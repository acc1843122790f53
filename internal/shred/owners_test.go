package shred

import (
	"reflect"
	"strings"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func TestOwnerIndexAscendingCoalesces(t *testing.T) {
	ix := &OwnerIndex{}
	// Shredding order: a run of "a" ids, one "b" id, more "a" ids.
	for id := int64(1); id <= 5; id++ {
		ix.Record(id, "a")
	}
	ix.Record(6, "b")
	ix.Record(7, "a")
	ix.Record(8, "a")
	if got := ix.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3 ranges", got)
	}
	for id, want := range map[int64]string{1: "a", 5: "a", 6: "b", 7: "a", 8: "a"} {
		if got, ok := ix.Lookup(id); !ok || got != want {
			t.Errorf("Lookup(%d) = %q, %v; want %q", id, got, ok, want)
		}
	}
	if _, ok := ix.Lookup(9); ok {
		t.Error("Lookup(9) should miss")
	}
	if _, ok := ix.Lookup(0); ok {
		t.Error("Lookup(0) should miss")
	}
}

func TestOwnerIndexForgetSplitsAndRemoves(t *testing.T) {
	ix := &OwnerIndex{}
	for id := int64(1); id <= 9; id++ {
		ix.Record(id, "a")
	}
	ix.Forget(5) // interior: split
	if _, ok := ix.Lookup(5); ok {
		t.Error("Lookup(5) after Forget should miss")
	}
	for _, id := range []int64{1, 4, 6, 9} {
		if got, ok := ix.Lookup(id); !ok || got != "a" {
			t.Errorf("Lookup(%d) = %q, %v after split", id, got, ok)
		}
	}
	if got := ix.Len(); got != 2 {
		t.Errorf("Len() after split = %d, want 2", got)
	}
	ix.Forget(1) // range head
	ix.Forget(4) // range tail
	if _, ok := ix.Lookup(1); ok {
		t.Error("Lookup(1) should miss")
	}
	if _, ok := ix.Lookup(4); ok {
		t.Error("Lookup(4) should miss")
	}
	for _, id := range []int64{2, 3} {
		if _, ok := ix.Lookup(id); !ok {
			t.Errorf("Lookup(%d) should still hit", id)
		}
	}
	ix.Forget(2)
	ix.Forget(3) // empties the first range entirely
	if got, ok := ix.Lookup(7); !ok || got != "a" {
		t.Errorf("Lookup(7) = %q, %v", got, ok)
	}
	ix.Forget(100) // unknown id: no-op
}

func TestOwnerIndexRerecordOverwrites(t *testing.T) {
	ix := &OwnerIndex{}
	for id := int64(1); id <= 4; id++ {
		ix.Record(id, "a")
	}
	// A mapping reused across documents re-records ids; the newest table
	// must win.
	ix.Record(2, "b")
	if got, _ := ix.Lookup(2); got != "b" {
		t.Errorf("Lookup(2) = %q, want b (overwrite)", got)
	}
	for _, id := range []int64{1, 3, 4} {
		if got, _ := ix.Lookup(id); got != "a" {
			t.Errorf("Lookup(%d) = %q, want a", id, got)
		}
	}
	// Re-recording with the same table coalesces back into one range.
	ix.Record(2, "a")
	if got := ix.Len(); got != 1 {
		t.Errorf("Len() after re-coalesce = %d, want 1", got)
	}
}

func TestMappingRecordsOwnersOnShred(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT a (b*)>
<!ELEMENT b (c*)>
<!ELEMENT c (#PCDATA)>
`)
	m, err := BuildMapping(schema)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<a><b><c>x</c><c>y</c></b><b><c>z</c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.Open(sqldb.EngineRow)
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	doc.Walk(func(n *xmltree.Node) bool {
		if !n.IsElement() {
			return true
		}
		want := m.TableFor(n.Label).Table
		if got := m.OwnerTable(n.ID); got != want {
			t.Errorf("OwnerTable(%d %s) = %q, want %q", n.ID, n.Label, got, want)
		}
		return true
	})
	var ids []int64
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && n.Label == "c" {
			ids = append(ids, n.ID)
		}
		return true
	})
	owned, unknown := m.GroupByOwner(ids)
	if len(unknown) != 0 {
		t.Errorf("unknown ids = %v", unknown)
	}
	if !reflect.DeepEqual(owned, map[string][]int64{"c": ids}) {
		t.Errorf("GroupByOwner = %v", owned)
	}
}

func TestMappingWithoutOwnerIndexDegrades(t *testing.T) {
	m := &Mapping{} // hand-constructed: no owner index
	m.RecordOwner(1, "a")
	m.ForgetOwner(1)
	if got := m.OwnerTable(1); got != "" {
		t.Errorf("OwnerTable = %q, want empty", got)
	}
	owned, unknown := m.GroupByOwner([]int64{1, 2})
	if owned != nil || !reflect.DeepEqual(unknown, []int64{1, 2}) {
		t.Errorf("GroupByOwner = %v, %v; want all unknown", owned, unknown)
	}
	if m.OwnerRanges() != 0 {
		t.Errorf("OwnerRanges = %d", m.OwnerRanges())
	}
}

func TestTranslateAccessibleAddsSignPredicatePerBranch(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT a (b*, c*)>
<!ELEMENT b (d*)>
<!ELEMENT c (d*)>
<!ELEMENT d (#PCDATA)>
`)
	m, err := BuildMapping(schema)
	if err != nil {
		t.Fatal(err)
	}
	p := xpath.MustParse("/a/*/d")
	plain, err := Translate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := TranslateAccessible(m, p)
	if err != nil {
		t.Fatal(err)
	}
	branches := strings.Count(plain, "SELECT")
	if branches != 2 {
		t.Fatalf("expected 2 UNION branches, got %d:\n%s", branches, plain)
	}
	if got := strings.Count(signed, ".s = '+'"); got != branches {
		t.Errorf("signed query has %d sign predicates, want one per branch (%d):\n%s", got, branches, signed)
	}
	// The signed query is the plain one plus the predicates: stripping them
	// must give back the plain text.
	stripped := strings.ReplaceAll(signed, " AND t3.s = '+'", "")
	if stripped != plain {
		t.Errorf("signed query diverges beyond the sign predicates:\nplain:  %s\nsigned: %s", plain, signed)
	}
}

func TestIndexDDLCreatesUsableIndexes(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT a (b*)>
<!ELEMENT b (#PCDATA)>
`)
	m, err := BuildMapping(schema)
	if err != nil {
		t.Fatal(err)
	}
	ddl := m.IndexDDL()
	for _, want := range []string{
		"CREATE INDEX a_pid_idx ON a (pid);",
		"CREATE INDEX a_s_idx ON a (s);",
		"CREATE INDEX b_pid_idx ON b (pid);",
		"CREATE INDEX b_s_idx ON b (s);",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("IndexDDL missing %q:\n%s", want, ddl)
		}
	}
	// DDL() must stay index-free: the shredded SQL scripts keep the paper's
	// shape (Table 5 sizes, Figure 9 loading).
	if strings.Contains(m.DDL(), "CREATE INDEX") {
		t.Error("DDL() must not contain CREATE INDEX")
	}
	db := sqldb.Open(sqldb.EngineColumn)
	doc, err := xmltree.ParseString(`<a><b>x</b><b>y</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	// The sign index must drive s = '+' probes.
	res, err := db.Exec("EXPLAIN SELECT id FROM b WHERE s = '+'")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, row := range res.Rows {
		plan.WriteString(row[0].S)
		plan.WriteString("\n")
	}
	if !strings.Contains(plan.String(), "secondary index on s") {
		t.Errorf("sign probe does not use the s index:\n%s", plan.String())
	}
}
