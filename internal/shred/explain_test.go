package shred

import (
	"strings"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// The EXPLAIN statement surfaces the greedy planner's decisions for the
// queries the XPath→SQL translator produces. These golden tests pin the
// plan for a three-table join chain: the access path of every base
// relation, the join order (smallest filtered relation first), and the
// switch to an index path once one exists.

func explainFixture(t *testing.T, engine sqldb.Engine) (*sqldb.Database, *Mapping) {
	t.Helper()
	schema := dtd.MustParse(`
<!ELEMENT a (b*)>
<!ELEMENT b (c*)>
<!ELEMENT c (#PCDATA)>
`)
	m, err := BuildMapping(schema)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<a><b><c>x</c><c>y</c></b><b><c>x</c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.Open(engine)
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	return db, m
}

func explainLines(t *testing.T, db *sqldb.Database, sql string) []string {
	t.Helper()
	res, err := db.Exec("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN: %v\nSQL: %s", err, sql)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN columns = %v", res.Columns)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, row[0].S)
	}
	return lines
}

func checkPlan(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("plan mismatch\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestExplainJoinChain(t *testing.T) {
	db, m := explainFixture(t, sqldb.EngineRow)
	sql, err := Translate(m, xpath.MustParse(`/a/b[c = "x"]`))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sql, " t"); !strings.Contains(sql, "FROM") || got < 3 {
		t.Fatalf("expected a three-alias join chain, got %q", sql)
	}

	// Without a secondary index, the value predicate runs as a column scan;
	// the join starts from the single-row root relation.
	checkPlan(t, explainLines(t, db, sql), []string{
		"scan t1 (a): full scan [scan=row] → 1 rows",
		"scan t2 (b): full scan [scan=row] → 2 rows",
		"scan t3 (c): column scan on v [scan=row] → 2 rows",
		"join: start t1 → 1 tuples",
		"join: hash t2 on t2.pid = t1.id → 2 tuples",
		"join: hash t3 on t3.pid = t2.id → 2 tuples",
		"join order: t1, t2, t3",
		"output: 2 rows",
	})

	// With an index on the value column the scan switches access path; the
	// join order is unchanged.
	if _, err := db.Exec(`CREATE INDEX c_v ON c (v)`); err != nil {
		t.Fatal(err)
	}
	checkPlan(t, explainLines(t, db, sql), []string{
		"scan t1 (a): full scan [scan=row] → 1 rows",
		"scan t2 (b): full scan [scan=row] → 2 rows",
		"scan t3 (c): secondary index on v [scan=row] → 2 rows",
		"join: start t1 → 1 tuples",
		"join: hash t2 on t2.pid = t1.id → 2 tuples",
		"join: hash t3 on t3.pid = t2.id → 2 tuples",
		"join order: t1, t2, t3",
		"output: 2 rows",
	})
}

func TestExplainCompoundAndPointLookup(t *testing.T) {
	db, _ := explainFixture(t, sqldb.EngineRow)

	checkPlan(t, explainLines(t, db, `SELECT id FROM b UNION SELECT id FROM c`), []string{
		"UNION",
		"  scan b (b): full scan [scan=row] → 2 rows",
		"  scan c (c): full scan [scan=row] → 3 rows",
		"output: 5 rows",
	})

	checkPlan(t, explainLines(t, db, `SELECT id FROM c EXCEPT SELECT id FROM c WHERE id = 3`), []string{
		"EXCEPT",
		"  scan c (c): full scan [scan=row] → 3 rows",
		"  scan c (c): pk index point lookup [scan=row] → 1 rows",
		"output: 2 rows",
	})

	// EXPLAIN DELETE is a dry run: it reports the access path and match
	// count without removing anything.
	checkPlan(t, explainLines(t, db, `DELETE FROM c WHERE id = 3`), []string{
		"delete c: pk index point lookup [scan=row] → 1 rows (dry run)",
	})
	if res, err := db.Exec(`SELECT id FROM c`); err != nil || len(res.Rows) != 3 {
		t.Fatalf("EXPLAIN DELETE mutated the table: rows=%v err=%v", res, err)
	}

	// EXPLAIN cannot nest.
	if _, err := db.Exec(`EXPLAIN EXPLAIN SELECT id FROM c`); err == nil {
		t.Fatal("expected error for nested EXPLAIN")
	}
}

// TestExplainUnionChain: a UNION chain runs as one node over all of its
// operands, not as a left-deep tree of binary UNIONs.
func TestExplainUnionChain(t *testing.T) {
	db, _ := explainFixture(t, sqldb.EngineRow)
	checkPlan(t, explainLines(t, db, `SELECT id FROM a UNION SELECT id FROM b UNION SELECT id FROM c`), []string{
		"UNION",
		"  scan a (a): full scan [scan=row] → 1 rows",
		"  scan b (b): full scan [scan=row] → 2 rows",
		"  scan c (c): full scan [scan=row] → 3 rows",
		"output: 6 rows",
	})
}
