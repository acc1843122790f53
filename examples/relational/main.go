// Command relational opens the hood on the relational path: the ShreX-style
// mapping (one table per element type), the shredded tuples of the paper's
// Table 4, the XPath-to-SQL translation of the policy rules (the paper's
// queries Q1, Q3, Q7), and the node-set form of the annotation query.
//
// It uses the library's internal packages directly — this is the layer a
// downstream user normally never sees, shown here for study. The storage
// engines are obtained from the store registry, the same seam the full
// System runs on; the concrete database is reached through the optional
// store.Relational interface.
//
//	go run ./examples/relational
package main

import (
	"context"
	"fmt"
	"log"

	"xmlac"
	"xmlac/internal/core"
	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/shred"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func main() {
	schema := hospital.Schema()
	m, err := shred.BuildMapping(schema)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Relational schema (one table per element type) ==")
	fmt.Println(m.DDL())

	pol := policy.MustParse(xmlac.HospitalPolicyText)
	reduced, _ := core.RemoveRedundant(pol)
	def := xmltree.SignMinus
	if reduced.Default == policy.Allow {
		def = xmltree.SignPlus
	}

	// Open the column-store engine through the registry and shred the
	// Figure 2 document into it.
	eng, err := store.Open("monetsql", store.Options{Schema: schema, Default: def})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Load(hospital.Document()); err != nil {
		log.Fatal(err)
	}
	db := eng.(store.Relational).DB()

	fmt.Println("== Table 4: the shredded document (selected tables) ==")
	for _, table := range []string{"patients", "patient", "name", "med", "bill"} {
		res, err := db.Exec("SELECT * FROM " + table)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s(%d rows)\n", table, len(res.Rows))
		for _, row := range res.Rows {
			fmt.Print("   ")
			for i, v := range row {
				fmt.Printf(" %s=%s", res.Columns[i], v)
			}
			fmt.Println()
		}
	}

	fmt.Println("\n== XPath → SQL translation of the policy rules ==")
	for _, r := range []struct{ name, expr string }{
		{"Q1 (R1)", "//patient"},
		{"Q3 (R3)", "//patient[treatment]"},
		{"Q7 (R7)", `//regular[med = "celecoxib"]`},
	} {
		sqlText, err := shred.Translate(m, xpath.MustParse(r.expr))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %s\n  → %s\n\n", r.name, r.expr, sqlText)
	}

	// The engine runs each rule path as its translated SQL, like the ones
	// above, and folds union and except over the returned id sets.
	fmt.Println("== The annotation query ==")
	q := core.BuildAnnotationQuery(reduced)
	fmt.Printf("  node-set form: %s, annotate %q\n\n", q.Expr, q.Sign.String())

	// Run the full Figure 6 annotation and show the signs.
	if _, err := eng.Annotate(context.Background(), q); err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Signs after annotation ==")
	for _, table := range []string{"patient", "name", "regular", "med"} {
		res, err := db.Exec("SELECT id, s FROM " + table)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s", table)
		for _, row := range res.Rows {
			fmt.Printf(" [id %s: %s]", row[0], row[1].S)
		}
		fmt.Println()
	}

	// Both engines answer identically; show the row store too.
	eng2, err := store.Open("postgres", store.Options{Schema: schema, Default: def})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng2.Load(hospital.Document()); err != nil {
		log.Fatal(err)
	}
	if _, err := eng2.Annotate(context.Background(), q); err != nil {
		log.Fatal(err)
	}
	a1, err := eng.AccessibleIDs()
	if err != nil {
		log.Fatal(err)
	}
	a2, err := eng2.AccessibleIDs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncolumn store: %d accessible; row store: %d accessible; agree: %v\n",
		len(a1), len(a2), equal(a1, a2))
}

func equal(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
