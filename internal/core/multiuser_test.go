package core

import (
	"errors"
	"reflect"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Multi-user tests: one shared document, per-requester policies.

var userPolicies = map[string]string{
	// The doctor sees all clinical data.
	"doctor": `
default deny
conflict deny
rule D1 allow //patient
rule D2 allow //patient//*
rule D3 allow //treatment//*
`,
	// The receptionist sees names only.
	"reception": `
default deny
conflict deny
rule C1 allow //patient/name
`,
	// The auditor sees everything except experimental treatments.
	"auditor": `
default allow
conflict deny
rule A1 deny //experimental
rule A2 deny //patient[.//experimental]
`,
	// Staffing sees the staff roster, nothing clinical.
	"staffing": `
default deny
conflict deny
rule S1 allow //staffinfo
rule S2 allow //staffinfo//*
`,
}

func newMultiUser(t *testing.T) *MultiUser {
	t.Helper()
	doc := hospital.Generate(hospital.GenOptions{Seed: 23, Departments: 2, PatientsPerDept: 15, StaffPerDept: 6})
	m, err := NewMultiUser(hospital.Schema(), doc)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range userPolicies {
		if err := m.AddUser(name, policy.MustParse(text)); err != nil {
			t.Fatalf("AddUser(%s): %v", name, err)
		}
	}
	return m
}

func TestMultiUserBasics(t *testing.T) {
	m := newMultiUser(t)
	if got := m.Users(); !reflect.DeepEqual(got, []string{"auditor", "doctor", "reception", "staffing"}) {
		t.Fatalf("users = %v", got)
	}
	if err := m.AddUser("doctor", policy.MustParse("rule X allow //patient")); err == nil {
		t.Fatal("duplicate user accepted")
	}
	if _, err := m.Request("ghost", xpath.MustParse("//patient")); err == nil {
		t.Fatal("unknown user accepted")
	}
	m.RemoveUser("staffing")
	if len(m.Users()) != 3 {
		t.Fatal("remove failed")
	}
}

// TestMultiUserMatchesSingleUserSystems: each user's accessible set equals
// what a dedicated single-user System computes for their policy.
func TestMultiUserMatchesSingleUserSystems(t *testing.T) {
	m := newMultiUser(t)
	for name, text := range userPolicies {
		sys, err := NewSystem(Config{
			Schema: hospital.Schema(), Policy: policy.MustParse(text),
			Backend: BackendNative, Optimize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(m.Document().Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		want, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AccessibleIDs(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s: %d accessible, single-user system %d", name, len(got), len(want))
		}
	}
}

func TestMultiUserRequests(t *testing.T) {
	m := newMultiUser(t)
	names := xpath.MustParse("//patient/name")
	// Doctor and receptionist may read names; staffing may not.
	if _, err := m.Request("doctor", names); err != nil {
		t.Fatalf("doctor: %v", err)
	}
	if _, err := m.Request("reception", names); err != nil {
		t.Fatalf("reception: %v", err)
	}
	if _, err := m.Request("staffing", names); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("staffing: %v", err)
	}
	// The auditor is denied experimental data but sees regular treatments.
	if _, err := m.Request("auditor", xpath.MustParse("//experimental")); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("auditor experimental: %v", err)
	}
	if _, err := m.Request("auditor", xpath.MustParse("//regular")); err != nil {
		t.Fatalf("auditor regular: %v", err)
	}
	// Filtering mode for staffing over a mixed query.
	res, dropped, err := m.RequestFiltered("staffing", xpath.MustParse("//name"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) == 0 || dropped == 0 {
		t.Fatalf("filtered: %d visible %d dropped", len(res.Nodes), dropped)
	}
}

// TestMultiUserDeleteReannotatesOnlyTriggered: deleting experimental
// treatments selects only the auditor's cohort, the one policy with a
// qualifier (//patient[.//experimental]) that can look down into the
// deleted subtrees, so its write region is non-empty. The other policies
// have no qualifiers: their decisions of the remaining nodes cannot
// change, so three of four users skip re-annotation entirely.
func TestMultiUserDeleteReannotatesOnlyTriggered(t *testing.T) {
	m := newMultiUser(t)
	rep, err := m.Delete(xpath.MustParse("//experimental"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeletedNodes == 0 {
		t.Fatal("nothing deleted")
	}
	if !reflect.DeepEqual(rep.Reannotated, []string{"auditor"}) {
		t.Fatalf("reannotated = %v", rep.Reannotated)
	}
	// After the update every user still matches a from-scratch computation.
	for name, text := range userPolicies {
		want, err := policy.MustParse(text).Semantics(m.Document())
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AccessibleIDs(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s after delete: %d accessible, want %d", name, len(got), len(want))
		}
	}
	// The auditor now sees every patient (no experimental treatments left).
	if _, err := m.Request("auditor", xpath.MustParse("//patient")); err != nil {
		t.Fatalf("auditor patients after delete: %v", err)
	}
}

func TestMultiUserMapsAreCompact(t *testing.T) {
	m := newMultiUser(t)
	total := m.Document().ElementCount()
	for _, u := range m.Users() {
		size, err := m.MapSize(u)
		if err != nil {
			t.Fatal(err)
		}
		if size >= total {
			t.Fatalf("user %s map has %d marks for %d elements", u, size, total)
		}
	}
}

func TestMultiUserViews(t *testing.T) {
	m := newMultiUser(t)
	recView, err := m.ExportView("reception", ViewPromote)
	if err != nil {
		t.Fatal(err)
	}
	// Receptionist's view: root + patient names only.
	wantNames := len(m.Document().ElementsByLabel("patient"))
	if got := len(recView.ElementsByLabel("name")); got != wantNames {
		t.Fatalf("reception view has %d names, want %d", got, wantNames)
	}
	if got := recView.ElementCount(); got != wantNames+1 {
		t.Fatalf("reception view has %d elements, want %d", got, wantNames+1)
	}
	// Staffing's view must not contain clinical data.
	staffView, err := m.ExportView("staffing", ViewPrune)
	if err != nil {
		t.Fatal(err)
	}
	if len(staffView.ElementsByLabel("patient")) != 0 {
		t.Fatal("staffing view leaked patients")
	}
}

func TestMultiUserValidation(t *testing.T) {
	if _, err := NewMultiUser(nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
	bad, _ := xmltree.ParseString(`<nope/>`)
	if _, err := NewMultiUser(hospital.Schema(), bad); err == nil {
		t.Fatal("invalid document accepted")
	}
}
