package shred_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xmlac/internal/bench"
	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// maxRefBranches caps the random paths the differential runs: a path whose
// root-chain reference has more UNION branches (//* followed by further
// wildcard steps) is drawn again. The fixed paths always run.
const maxRefBranches = 64

var refEngines = []struct {
	name   string
	engine sqldb.Engine
}{
	{"postgres", sqldb.EngineRow},
	{"monetsql", sqldb.EngineColumn},
}

// TestTranslateMatchesReference holds Translate to the frozen root-chain
// translation and to tree evaluation on DTD-valid documents: XMark at
// f = 0.01 (seeds 1 and 2) and generated hospital documents, each shredded
// into the row and column engines with random signs. Every
// path must select the ids xpath.Eval selects, through Translate and
// through the reference, and TranslateAccessible must select the subset
// signed '+'. The paths are the 55 benchmark queries and the c1–c5 rule
// paths on XMark, the Table 1 rule paths on hospital, and random
// XP(/,//,*,[]) paths with or and value qualifiers on both.
func TestTranslateMatchesReference(t *testing.T) {
	var xmarkPaths []string
	for _, q := range bench.Queries() {
		xmarkPaths = append(xmarkPaths, q.String())
	}
	for _, np := range bench.CoveragePolicies() {
		for _, r := range np.Policy.Rules {
			xmarkPaths = append(xmarkPaths, r.Resource.String())
		}
	}
	var hospitalPaths []string
	for _, r := range hospital.Rules {
		hospitalPaths = append(hospitalPaths, r.Resource)
	}
	type fixture struct {
		name   string
		schema *dtd.Schema
		doc    *xmltree.Document
		paths  []string
	}
	var fixtures []fixture
	for _, seed := range []uint64{1, 2} {
		fixtures = append(fixtures, fixture{fmt.Sprintf("xmark seed %d", seed), xmark.Schema(),
			xmark.Generate(xmark.Options{Factor: 0.01, Seed: seed}), xmarkPaths})
	}
	for _, seed := range []uint64{1, 2} {
		fixtures = append(fixtures, fixture{fmt.Sprintf("hospital seed %d", seed), hospital.Schema(),
			hospital.Generate(hospital.GenOptions{Seed: seed, Departments: 3, PatientsPerDept: 20, StaffPerDept: 8}),
			hospitalPaths})
	}
	for fi, fx := range fixtures {
		if errs := fx.schema.Validate(fx.doc); len(errs) > 0 {
			t.Fatalf("%s: document is not DTD-valid: %v", fx.name, errs[0])
		}
		r := rand.New(rand.NewSource(int64(fi + 1)))
		fx.doc.Root().Walk(func(n *xmltree.Node) bool {
			if n.IsElement() {
				n.Sign = []xmltree.Sign{xmltree.SignPlus, xmltree.SignMinus}[r.Intn(2)]
			}
			return true
		})
		m, err := shred.BuildMapping(fx.schema)
		if err != nil {
			t.Fatal(err)
		}
		dbs := make([]*sqldb.Database, len(refEngines))
		for i, e := range refEngines {
			lm, err := shred.BuildMapping(fx.schema)
			if err != nil {
				t.Fatal(err)
			}
			dbs[i] = sqldb.Open(e.engine)
			if err := shred.NewShredder(lm).IntoDB(dbs[i], fx.doc); err != nil {
				t.Fatal(err)
			}
		}
		gen := newRefPathGen(r, fx.schema, fx.doc)
		paths := append([]string(nil), fx.paths...)
		for drawn := 0; drawn < 60; {
			p := gen.path()
			ref, err := shred.RefTranslate(m, xpath.MustParse(p))
			if err != nil {
				t.Fatalf("%s: reference %s: %v", fx.name, p, err)
			}
			if strings.Count(ref, " UNION ")+1 <= maxRefBranches {
				paths = append(paths, p)
				drawn++
			}
		}
		for _, expr := range paths {
			checkAgainstReference(t, fx.name, fx.doc, m, dbs, expr)
		}
	}
}

// checkAgainstReference runs one path's three translations on every engine
// and compares their ids with tree evaluation.
func checkAgainstReference(t *testing.T, fixture string, doc *xmltree.Document, m *shred.Mapping, dbs []*sqldb.Database, expr string) {
	t.Helper()
	p := xpath.MustParse(expr)
	nodes, err := xpath.Eval(p, doc)
	if err != nil {
		t.Fatalf("%s: eval %s: %v", fixture, expr, err)
	}
	want := xmltree.SortedIDs(nodes)
	var wantAcc []int64
	for _, id := range want {
		if doc.NodeByID(id).Sign == xmltree.SignPlus {
			wantAcc = append(wantAcc, id)
		}
	}
	got, err := shred.Translate(m, p)
	if err != nil {
		t.Fatalf("%s: Translate %s: %v", fixture, expr, err)
	}
	ref, err := shred.RefTranslate(m, p)
	if err != nil {
		t.Fatalf("%s: reference %s: %v", fixture, expr, err)
	}
	acc, err := shred.TranslateAccessible(m, p)
	if err != nil {
		t.Fatalf("%s: TranslateAccessible %s: %v", fixture, expr, err)
	}
	for i, db := range dbs {
		for _, c := range []struct {
			what, sql string
			want      []int64
		}{{"Translate", got, want}, {"reference", ref, want}, {"TranslateAccessible", acc, wantAcc}} {
			ids := sqlIDs(t, db, c.sql)
			if !slices.Equal(ids, c.want) {
				t.Errorf("%s on %s: %s %s selects %d ids, want %d\nSQL: %s",
					fixture, refEngines[i].name, c.what, expr, len(ids), len(c.want), c.sql)
			}
		}
	}
}

// sqlIDs runs an id query and returns the set of its ids, ascending. A
// translation is a set of ids: one SELECT block with a qualifier join
// returns a node once per witness, and only UNION removes duplicates.
func sqlIDs(t *testing.T, db *sqldb.Database, sql string) []int64 {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, sql)
	}
	ids := make([]int64, 0, len(res.Rows))
	for _, row := range res.Rows {
		ids = append(ids, row[0].I)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) == 0 {
		return nil
	}
	return ids
}

// refPathGen draws random XP(/,//,*,[]) paths over one schema. Steps follow
// the content models, so most paths select something; value qualifiers
// take their literals from the document's leaf values, comparing numbers
// on leaves whose every value is numeric and strings on the others.
type refPathGen struct {
	r       *rand.Rand
	s       *dtd.Schema
	labels  []string
	values  map[string][]string
	numeric map[string]bool
}

func newRefPathGen(r *rand.Rand, s *dtd.Schema, doc *xmltree.Document) *refPathGen {
	g := &refPathGen{r: r, s: s, labels: s.Names(), values: map[string][]string{}, numeric: map[string]bool{}}
	sort.Strings(g.labels)
	seen := map[string]bool{}
	doc.Root().Walk(func(n *xmltree.Node) bool {
		if !n.IsElement() || len(n.ChildElements()) > 0 {
			return true
		}
		v := n.TextContent()
		if v == "" || strings.Contains(v, `"`) {
			return true
		}
		if !seen[n.Label] {
			seen[n.Label] = true
			g.numeric[n.Label] = true
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			g.numeric[n.Label] = false
		}
		g.values[n.Label] = append(g.values[n.Label], v)
		return true
	})
	return g
}

// path draws one absolute path of one to four steps.
func (g *refPathGen) path() string {
	var b strings.Builder
	cur := g.s.Root
	if g.r.Intn(5) == 0 {
		b.WriteString("/" + g.test(cur))
	} else {
		cur = g.labels[g.r.Intn(len(g.labels))]
		b.WriteString("//" + g.test(cur))
	}
	b.WriteString(g.quals(cur))
	for steps := g.r.Intn(4); steps > 0; steps-- {
		next, axis := g.step(cur)
		if next == "" {
			break
		}
		b.WriteString(axis + g.test(next) + g.quals(next))
		cur = next
	}
	return b.String()
}

// step picks a child of cur (axis "/") or an element below it (axis
// "//"); it returns "" when nothing is below cur.
func (g *refPathGen) step(cur string) (label, axis string) {
	if kids := g.s.Element(cur).ChildNames(); len(kids) > 0 && g.r.Intn(2) == 0 {
		return kids[g.r.Intn(len(kids))], "/"
	}
	var below []string
	for l := range g.s.Reachable(cur) {
		below = append(below, l)
	}
	if len(below) == 0 {
		return "", ""
	}
	sort.Strings(below)
	return below[g.r.Intn(len(below))], "//"
}

// test writes the label, now and then as the wildcard.
func (g *refPathGen) test(label string) string {
	if g.r.Intn(8) == 0 {
		return "*"
	}
	return label
}

// quals draws an optional qualifier at cur, now and then a disjunction.
func (g *refPathGen) quals(cur string) string {
	if g.r.Intn(2) != 0 {
		return ""
	}
	q := g.qual(cur, 2)
	if q == "" {
		return ""
	}
	if g.r.Intn(3) == 0 {
		if alt := g.qual(cur, 2); alt != "" {
			q += " or " + alt
		}
	}
	return "[" + q + "]"
}

// qual draws one existence or value qualifier below cur, nesting at most
// depth deep; "" when nothing is below cur.
func (g *refPathGen) qual(cur string, depth int) string {
	label, axis := g.step(cur)
	if label == "" {
		return ""
	}
	rel := label
	if axis == "//" {
		rel = ".//" + label
	}
	if vals := g.values[label]; len(vals) > 0 && g.r.Intn(2) == 0 {
		v := vals[g.r.Intn(len(vals))]
		if g.numeric[label] {
			f, _ := strconv.ParseFloat(v, 64)
			op := []string{"=", "!=", "<", "<=", ">", ">="}[g.r.Intn(6)]
			return fmt.Sprintf("%s %s %d", rel, op, int64(f))
		}
		return fmt.Sprintf(`%s %s "%s"`, rel, []string{"=", "!="}[g.r.Intn(2)], v)
	}
	if depth > 1 && g.r.Intn(4) == 0 {
		if nested := g.qual(label, depth-1); nested != "" {
			rel += "[" + nested + "]"
		}
	}
	return rel
}
