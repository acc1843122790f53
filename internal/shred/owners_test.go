package shred

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func TestOwnerIndexAscendingCoalesces(t *testing.T) {
	ix := &ownerIndex{}
	// Shredding order: a run of "a" ids, one "b" id, more "a" ids.
	for id := int64(1); id <= 5; id++ {
		ix.record(id, "a")
	}
	ix.record(6, "b")
	ix.record(7, "a")
	ix.record(8, "a")
	for id, want := range map[int64]string{1: "a", 5: "a", 6: "b", 7: "a", 8: "a"} {
		if got, ok := ix.lookup(id); !ok || got != want {
			t.Errorf("lookup(%d) = %q, %v; want %q", id, got, ok, want)
		}
	}
	if _, ok := ix.lookup(9); ok {
		t.Error("lookup(9) should miss")
	}
	if _, ok := ix.lookup(0); ok {
		t.Error("lookup(0) should miss")
	}
	if !slices.Equal(ix.tables, []string{"a", "b"}) {
		t.Errorf("tables = %v, want each name once", ix.tables)
	}
}

func TestOwnerIndexForgetSplitsAndRemoves(t *testing.T) {
	ix := &ownerIndex{}
	for id := int64(1); id <= 9; id++ {
		ix.record(id, "a")
	}
	ix.forget(5) // interior
	if _, ok := ix.lookup(5); ok {
		t.Error("lookup(5) after forget should miss")
	}
	for _, id := range []int64{1, 4, 6, 9} {
		if got, ok := ix.lookup(id); !ok || got != "a" {
			t.Errorf("lookup(%d) = %q, %v after forget(5)", id, got, ok)
		}
	}
	ix.forget(1) // first id
	ix.forget(4)
	if _, ok := ix.lookup(1); ok {
		t.Error("lookup(1) should miss")
	}
	if _, ok := ix.lookup(4); ok {
		t.Error("lookup(4) should miss")
	}
	for _, id := range []int64{2, 3} {
		if _, ok := ix.lookup(id); !ok {
			t.Errorf("lookup(%d) should still hit", id)
		}
	}
	ix.forget(2, 3)
	if got, ok := ix.lookup(7); !ok || got != "a" {
		t.Errorf("lookup(7) = %q, %v", got, ok)
	}
	ix.forget(100, -1) // unknown ids: no-op
}

func TestOwnerIndexRerecordOverwrites(t *testing.T) {
	ix := &ownerIndex{}
	for id := int64(1); id <= 4; id++ {
		ix.record(id, "a")
	}
	// A mapping reused across documents re-records ids; the newest table
	// must win.
	ix.record(2, "b")
	if got, _ := ix.lookup(2); got != "b" {
		t.Errorf("lookup(2) = %q, want b (overwrite)", got)
	}
	for _, id := range []int64{1, 3, 4} {
		if got, _ := ix.lookup(id); got != "a" {
			t.Errorf("lookup(%d) = %q, want a", id, got)
		}
	}
	owned, unknown := ix.group([]int64{1, 2, 3, 4})
	want := []OwnedIDs{{Table: "a", IDs: []int64{1, 3, 4}}, {Table: "b", IDs: []int64{2}}}
	if !reflect.DeepEqual(owned, want) || len(unknown) != 0 {
		t.Errorf("group = %v, %v; want %v and no unknown", owned, unknown, want)
	}
	ix.record(2, "a")
	if got, _ := ix.lookup(2); got != "a" {
		t.Errorf("lookup(2) = %q, want a after re-recording", got)
	}
}

// TestOwnerIndexFarIDStaysUnknown: an id far past the slot table's end
// (one set by hand on a built document) neither grows the table nor
// routes; GroupByOwner hands it back as unknown for the every-table
// fallback.
func TestOwnerIndexFarIDStaysUnknown(t *testing.T) {
	ix := &ownerIndex{}
	for id := int64(1); id <= 3; id++ {
		ix.record(id, "b")
	}
	before := len(ix.slots)
	const far = int64(1) << 40
	ix.record(far, "a")
	if len(ix.slots) != before {
		t.Errorf("recording id 1<<40 grew the table from %d to %d slots", before, len(ix.slots))
	}
	if got, ok := ix.lookup(far); ok {
		t.Errorf("lookup(1<<40) = %q, want unknown", got)
	}
	ix.record(-3, "a")
	if _, ok := ix.lookup(-3); ok {
		t.Error("lookup(-3) should miss")
	}
	ix.forget(far)
	owned, unknown := ix.group([]int64{1, far, 2, -5})
	want := []OwnedIDs{{Table: "b", IDs: []int64{1, 2}}}
	if !reflect.DeepEqual(owned, want) || !slices.Equal(unknown, []int64{far, -5}) {
		t.Errorf("group = %v, %v; want %v and [1<<40 -5] unknown", owned, unknown, want)
	}
	// An id just past the end grows the table: ids arrive densely.
	ix.record(int64(before)+10, "a")
	if got, ok := ix.lookup(int64(before) + 10); !ok || got != "a" {
		t.Errorf("lookup(%d) = %q, %v; want a", before+10, got, ok)
	}
}

// TestGroupByOwnerTableOrder: groups come in the mapping's declaration
// order, each keeping its ids' order, whatever the order the ids arrive
// in.
func TestGroupByOwnerTableOrder(t *testing.T) {
	m, err := BuildMapping(dtd.MustParse(`
<!ELEMENT z (m*, a*)>
<!ELEMENT m (#PCDATA)>
<!ELEMENT a (#PCDATA)>
`))
	if err != nil {
		t.Fatal(err)
	}
	for id, table := range map[int64]string{1: "z", 2: "m", 3: "a", 4: "m", 5: "a", 6: "z"} {
		m.RecordOwner(id, table)
	}
	owned, unknown := m.GroupByOwner([]int64{6, 5, 4, 3, 2, 1, 7})
	want := []OwnedIDs{{Table: "z", IDs: []int64{6, 1}}, {Table: "m", IDs: []int64{4, 2}}, {Table: "a", IDs: []int64{5, 3}}}
	if !reflect.DeepEqual(owned, want) || !slices.Equal(unknown, []int64{7}) {
		t.Errorf("GroupByOwner = %v, %v; want %v and [7]", owned, unknown, want)
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
	if !reflect.DeepEqual(owned, []OwnedIDs{{Table: "c", IDs: ids}}) {
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
