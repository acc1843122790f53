package shred

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func hospitalMapping(t *testing.T) *Mapping {
	t.Helper()
	m, err := BuildMapping(hospital.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loadHospital(t *testing.T, engine sqldb.Engine) (*sqldb.Database, *Mapping, *xmltree.Document) {
	t.Helper()
	m := hospitalMapping(t)
	db := sqldb.Open(engine)
	doc := hospital.Document()
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	return db, m, doc
}

func TestBuildMappingHospital(t *testing.T) {
	m := hospitalMapping(t)
	if len(m.Tables()) != 18 {
		t.Fatalf("tables = %d", len(m.Tables()))
	}
	pat := m.TableFor("patient")
	if pat.Table != "patient" || pat.HasValue {
		t.Fatalf("patient info = %+v", pat)
	}
	med := m.TableFor("med")
	if !med.HasValue {
		t.Fatalf("med should have a v column")
	}
	// name has three possible parents.
	if got := m.TableFor("name").ParentTables; len(got) != 3 {
		t.Fatalf("name parents = %v", got)
	}
	// test is a SQL-safe identifier here; bill unique parent? No: two.
	if got := m.TableFor("bill").ParentTables; !reflect.DeepEqual(got, []string{"experimental", "regular"}) {
		t.Fatalf("bill parents = %v", got)
	}
}

func TestBuildMappingRejectsRecursive(t *testing.T) {
	s := dtd.MustParse(`<!ELEMENT a (b?)> <!ELEMENT b (a?)>`)
	if _, err := BuildMapping(s); err == nil {
		t.Fatal("expected recursion error")
	}
}

func TestMappingSanitizesKeywords(t *testing.T) {
	s := dtd.MustParse(`
<!ELEMENT site (from*, text*, date*)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT date (#PCDATA)>
`)
	m, err := BuildMapping(s)
	if err != nil {
		t.Fatal(err)
	}
	// "from" and "text" collide with SQL keywords and must be renamed;
	// "date" is no keyword in this dialect and may keep its name.
	for _, el := range []string{"from", "text"} {
		tbl := m.TableFor(el).Table
		if strings.EqualFold(tbl, el) {
			t.Errorf("element %q mapped to unsanitized keyword table %q", el, tbl)
		}
	}
	// The DDL must actually execute.
	db := sqldb.Open(sqldb.EngineRow)
	if _, err := db.ExecScript(m.DDL()); err != nil {
		t.Fatalf("DDL failed: %v\n%s", err, m.DDL())
	}
}

func TestDDLShape(t *testing.T) {
	m := hospitalMapping(t)
	ddl := m.DDL()
	if !strings.Contains(ddl, "CREATE TABLE patient (id INT PRIMARY KEY, pid INT, s TEXT") {
		t.Fatalf("ddl = %s", ddl)
	}
	if !strings.Contains(ddl, "CREATE TABLE med (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT, FOREIGN KEY (pid) REFERENCES regular (id));") {
		t.Fatalf("ddl = %s", ddl)
	}
	// bill has two possible parents: no FOREIGN KEY clause.
	for _, line := range strings.Split(ddl, "\n") {
		if strings.HasPrefix(line, "CREATE TABLE bill ") && strings.Contains(line, "FOREIGN KEY") {
			t.Fatalf("bill should have no FK: %s", line)
		}
	}
}

// TestShredHospitalTable4 verifies the relational representation of the
// Figure 2 document (paper Table 4): one tuple per element node, correct
// parent links, values in v, default '-' signs.
func TestShredHospitalTable4(t *testing.T) {
	db, _, doc := loadHospital(t, sqldb.EngineRow)
	// One tuple per element node.
	total := 0
	for _, tn := range db.TableNames() {
		total += db.Table(tn).RowCount()
	}
	if total != doc.ElementCount() {
		t.Fatalf("tuples = %d, elements = %d", total, doc.ElementCount())
	}
	// Three patients, all children of the single patients tuple.
	r, err := db.Exec(`SELECT p.id, p.pid FROM patient p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("patients = %d", len(r.Rows))
	}
	var patientsID int64
	{
		rr, err := db.Exec(`SELECT id FROM patients`)
		if err != nil || len(rr.Rows) != 1 {
			t.Fatalf("patients table: %v %v", rr, err)
		}
		patientsID = rr.Rows[0][0].I
	}
	for _, row := range r.Rows {
		if row[1].I != patientsID {
			t.Fatalf("patient %d has pid %d, want %d", row[0].I, row[1].I, patientsID)
		}
	}
	// Values land in v, e.g. john doe's name.
	r, err = db.Exec(`SELECT n.v FROM name n, patient p WHERE n.pid = p.id`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row[0].S] = true
	}
	for _, want := range []string{"john doe", "jane doe", "joy smith"} {
		if !names[want] {
			t.Fatalf("missing name %q in %v", want, names)
		}
	}
	// Default signs are '-'.
	r, err = db.Exec(`SELECT s FROM med`)
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].S != "-" {
		t.Fatalf("med sign: %v %v", r, err)
	}
	// The root tuple has NULL pid.
	r, err = db.Exec(`SELECT COUNT(*) FROM hospital`)
	if err != nil || r.Rows[0][0].I != 1 {
		t.Fatalf("hospital count: %v %v", r, err)
	}
}

func TestShredPreservesSigns(t *testing.T) {
	m := hospitalMapping(t)
	doc := hospital.Document()
	// Mark one node accessible before shredding.
	doc.ElementsByLabel("regular")[0].Sign = xmltree.SignPlus
	db := sqldb.Open(sqldb.EngineColumn)
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(`SELECT s FROM regular`)
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].S != "+" {
		t.Fatalf("regular sign: %v %v", r, err)
	}
}

func TestToSQLAndLoad(t *testing.T) {
	m := hospitalMapping(t)
	doc := hospital.Document()
	var b strings.Builder
	if err := NewShredder(m).ToSQL(&b, doc); err != nil {
		t.Fatal(err)
	}
	script := b.String()
	if !strings.Contains(script, "INSERT INTO name VALUES") {
		t.Fatalf("script missing inserts:\n%s", script)
	}
	db := sqldb.Open(sqldb.EngineRow)
	n, err := db.ExecScript(script)
	if err != nil {
		t.Fatal(err)
	}
	wantStmts := 18 + doc.ElementCount() // DDL + one INSERT per element
	if n != wantStmts {
		t.Fatalf("statements = %d, want %d", n, wantStmts)
	}
	// The scripted load equals the direct load.
	db2 := sqldb.Open(sqldb.EngineRow)
	if err := NewShredder(m).IntoDB(db2, doc); err != nil {
		t.Fatal(err)
	}
	for _, tn := range db.TableNames() {
		if db.Table(tn).RowCount() != db2.Table(tn).RowCount() {
			t.Fatalf("table %s differs: %d vs %d", tn, db.Table(tn).RowCount(), db2.Table(tn).RowCount())
		}
	}
}

func TestRebuildRoundTrip(t *testing.T) {
	for _, eng := range []sqldb.Engine{sqldb.EngineRow, sqldb.EngineColumn} {
		db, m, doc := loadHospital(t, eng)
		re, err := Rebuild(db, m)
		if err != nil {
			t.Fatal(err)
		}
		if re.String() != doc.String() {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", re.String(), doc.String())
		}
		// Universal ids preserved.
		for _, n := range doc.Elements() {
			rn := re.NodeByID(n.ID)
			if rn == nil || rn.Label != n.Label {
				t.Fatalf("node %d (%s) lost in round trip", n.ID, n.Label)
			}
		}
	}
}

func TestRebuildErrors(t *testing.T) {
	m := hospitalMapping(t)
	db := sqldb.Open(sqldb.EngineRow)
	if _, err := db.ExecScript(m.DDL()); err != nil {
		t.Fatal(err)
	}
	if _, err := Rebuild(db, m); err == nil {
		t.Fatal("expected empty-database error")
	}
	// Two roots.
	if _, err := db.Exec(`INSERT INTO hospital VALUES (1, NULL, '-')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO dept VALUES (2, NULL, '-')`); err != nil {
		t.Fatal(err)
	}
	if _, err := Rebuild(db, m); err == nil {
		t.Fatal("expected multiple-roots error")
	}
}

// evalSQL runs a translated query and returns sorted ids.
func evalSQL(t *testing.T, db *sqldb.Database, m *Mapping, expr string) []int64 {
	t.Helper()
	q, err := Translate(m, xpath.MustParse(expr))
	if err != nil {
		t.Fatalf("Translate(%s): %v", expr, err)
	}
	r, err := db.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%s): %v\nSQL: %s", expr, err, q)
	}
	var ids []int64
	for _, row := range r.Rows {
		ids = append(ids, row[0].I)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sameIDs compares two sorted id slices, treating nil and empty alike.
func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evalXPath evaluates the same expression natively for comparison.
func evalXPath(t *testing.T, doc *xmltree.Document, expr string) []int64 {
	t.Helper()
	nodes, err := xpath.Eval(xpath.MustParse(expr), doc)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.SortedIDs(nodes)
}

// TestTranslateMatchesNativeEval: the central equivalence — for every rule
// of the paper's policy and a batch of other expressions, the translated SQL
// returns exactly the universal ids the native XPath evaluator returns.
func TestTranslateMatchesNativeEval(t *testing.T) {
	for _, eng := range []sqldb.Engine{sqldb.EngineRow, sqldb.EngineColumn} {
		db, m, doc := loadHospital(t, eng)
		exprs := []string{
			// Table 1 rules.
			"//patient",
			"//patient/name",
			"//patient[treatment]",
			"//patient[treatment]/name",
			"//patient[.//experimental]",
			"//regular",
			`//regular[med = "celecoxib"]`,
			"//regular[bill > 1000]",
			// Structure.
			"/hospital",
			"/hospital/dept",
			"/hospital/dept/patients/patient",
			"//name",
			"//bill",
			"//dept//bill",
			"//treatment/*",
			"/*",
			"//*",
			"//patient/*",
			// Qualifiers.
			"//patient[treatment/regular]",
			"//patient[treatment/regular/med]",
			"//dept[.//bill]",
			"//dept[.//experimental]",
			"//patient[psn and name]",
			`//patient[name = "joy smith"]`,
			`//patient[psn = "033"]`,
			"//regular[bill >= 700]",
			"//regular[bill < 700]",
			"//regular[bill <= 700]",
			"//regular[bill != 700]",
			`//experimental[bill > 1000]`,
			"//treatment[regular and experimental]",
			"//patient[treatment[regular[bill]]]",
			// Schema-unsatisfiable.
			"//psn/bill",
			"//bogus",
			"/dept",
			"//patient[bogus]",
			`//patient[psn = "033"]/name`,
		}
		for _, e := range exprs {
			want := evalXPath(t, doc, e)
			got := evalSQL(t, db, m, e)
			if !sameIDs(got, want) {
				q, _ := Translate(m, xpath.MustParse(e))
				t.Errorf("engine %v: %s: sql ids %v != native %v\nSQL: %s", eng, e, got, want, q)
			}
		}
	}
}

// TestTranslatePaperQ1Shape: the paper's Q1 for R1 joins patient to
// patients; the translation scans the patient table alone, as every
// patient row is a patient element of the stored document.
func TestTranslatePaperQ1Shape(t *testing.T) {
	m := hospitalMapping(t)
	q, err := Translate(m, xpath.MustParse("//patient"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT t1.id FROM patient t1"; q != want {
		t.Fatalf("Q1 = %q, want %q", q, want)
	}
}

func TestTranslateErrors(t *testing.T) {
	m := hospitalMapping(t)
	if _, err := Translate(m, xpath.MustParse("patient")); err == nil {
		t.Fatal("relative path accepted")
	}
	if _, err := Translate(m, xpath.MustParse("//regular[bill > 10.5]")); err == nil {
		t.Fatal("non-integer literal accepted")
	}
}

// TestTranslateOnGenerated cross-checks SQL vs native evaluation on larger
// generated hospital documents.
func TestTranslateOnGenerated(t *testing.T) {
	m := hospitalMapping(t)
	doc := hospital.Generate(hospital.GenOptions{Seed: 7, Departments: 3, PatientsPerDept: 25, StaffPerDept: 10})
	if errs := hospital.Schema().Validate(doc); len(errs) > 0 {
		t.Fatalf("generated doc invalid: %v", errs[0])
	}
	db := sqldb.Open(sqldb.EngineColumn)
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	exprs := []string{
		"//patient",
		"//patient[treatment]",
		"//patient[.//experimental]",
		`//regular[med = "celecoxib"]`,
		"//regular[bill > 1000]",
		"//staff/*/name",
		"//doctor",
		"//dept[.//test]",
	}
	for _, e := range exprs {
		want := evalXPath(t, doc, e)
		got := evalSQL(t, db, m, e)
		if !sameIDs(got, want) {
			t.Errorf("%s: sql %d ids != native %d ids", e, len(got), len(want))
		}
	}
}

func TestGeneratedDocsGrowWithSize(t *testing.T) {
	small := hospital.Generate(hospital.GenOptions{Seed: 1, Departments: 1, PatientsPerDept: 5})
	big := hospital.Generate(hospital.GenOptions{Seed: 1, Departments: 2, PatientsPerDept: 50})
	if big.Size() <= small.Size() {
		t.Fatalf("sizes: %d vs %d", small.Size(), big.Size())
	}
	// Determinism.
	again := hospital.Generate(hospital.GenOptions{Seed: 1, Departments: 1, PatientsPerDept: 5})
	if again.String() != small.String() {
		t.Fatal("generator is not deterministic")
	}
}

func TestAttrColumns(t *testing.T) {
	s := dtd.MustParse(`
<!ELEMENT item (#PCDATA)>
<!ATTLIST item id ID #REQUIRED
               kind CDATA #IMPLIED>
`)
	m, err := BuildMapping(s)
	if err != nil {
		t.Fatal(err)
	}
	ddl := m.DDL()
	if !strings.Contains(ddl, "a_id TEXT") || !strings.Contains(ddl, "a_kind TEXT") {
		t.Fatalf("ddl = %s", ddl)
	}
	doc, err := xmltree.ParseString(`<item id="i1" kind="gold">hello</item>`)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.Open(sqldb.EngineRow)
	if err := NewShredder(m).IntoDB(db, doc); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(`SELECT a_id, a_kind, v FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[0].S != "i1" || row[1].S != "gold" || row[2].S != "hello" {
		t.Fatalf("row = %v", row)
	}
	// Attributes survive the round trip.
	re, err := Rebuild(db, m)
	if err != nil {
		t.Fatal(err)
	}
	if re.Root().Attrs["id"] != "i1" || re.Root().Attrs["kind"] != "gold" {
		t.Fatalf("rebuilt attrs = %v", re.Root().Attrs)
	}
}

func TestShredUnknownElement(t *testing.T) {
	m := hospitalMapping(t)
	doc, _ := xmltree.ParseString(`<hospital><zot/></hospital>`)
	db := sqldb.Open(sqldb.EngineRow)
	if err := NewShredder(m).IntoDB(db, doc); err == nil {
		t.Fatal("expected unknown-element error")
	}
}

func TestShredderDefaultSign(t *testing.T) {
	m := hospitalMapping(t)
	sh := NewShredder(m)
	sh.DefaultSign = xmltree.SignPlus
	db := sqldb.Open(sqldb.EngineRow)
	if err := sh.IntoDB(db, hospital.Document()); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(`SELECT s FROM psn`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row[0].S != "+" {
			t.Fatalf("sign = %q", row[0].S)
		}
	}
}

func TestTranslateVariantDedup(t *testing.T) {
	// //name//... no; check that a query with overlapping expansions still
	// returns set-unique ids.
	db, m, _ := loadHospital(t, sqldb.EngineRow)
	ids := evalSQL(t, db, m, "//dept[.//bill]")
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	_ = fmt.Sprint(ids)
}
