package cam_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlac/internal/cam"
	"xmlac/internal/core"
	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
)

const hospitalPolicy = `
default deny
conflict deny
rule R1 allow //patient
rule R2 allow //patient/name
rule R3 deny //patient[treatment]
rule R5 deny //patient[.//experimental]
rule R6 allow //regular
`

func annotatedHospital(t *testing.T) (*xmltree.Document, map[int64]bool) {
	t.Helper()
	doc := hospital.Generate(hospital.GenOptions{Seed: 5, Departments: 2, PatientsPerDept: 25, StaffPerDept: 8})
	acc, err := policy.MustParse(hospitalPolicy).Semantics(doc)
	if err != nil {
		t.Fatal(err)
	}
	return doc, acc
}

func TestBuildAndLookupMatchDirect(t *testing.T) {
	doc, acc := annotatedHospital(t)
	m := cam.Build(doc, acc, false)
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			if got := m.Accessible(n); got != acc[n.ID] {
				t.Fatalf("node %d (%s): cam %v, direct %v", n.ID, n.Label, got, acc[n.ID])
			}
		}
		return true
	})
}

func TestCompression(t *testing.T) {
	doc, acc := annotatedHospital(t)
	m := cam.Build(doc, acc, false)
	if m.Size() == 0 {
		t.Fatal("map empty")
	}
	// Locality: the map must be smaller than one mark per element.
	if m.Size() >= doc.ElementCount() {
		t.Fatalf("no compression: %d marks for %d elements", m.Size(), doc.ElementCount())
	}
	t.Logf("%s for %d elements (%.1f%%)", m, doc.ElementCount(),
		100*float64(m.Size())/float64(doc.ElementCount()))
}

func TestUniformDocumentCompressesToNothing(t *testing.T) {
	doc, _ := xmltree.ParseString(`<a><b><c/></b><d/></a>`)
	// Everything accessible, default allow: zero marks.
	acc := map[int64]bool{}
	for _, n := range doc.Elements() {
		acc[n.ID] = true
	}
	m := cam.Build(doc, acc, true)
	if m.Size() != 0 {
		t.Fatalf("marks = %d, want 0", m.Size())
	}
	// Everything accessible, default deny: one mark at the root.
	m = cam.Build(doc, acc, false)
	if m.Size() != 1 {
		t.Fatalf("marks = %d, want 1", m.Size())
	}
}

func TestFromSignsAndApplyRoundTrip(t *testing.T) {
	doc, acc := annotatedHospital(t)
	// Materialize signs the way the native annotator would (explicit '+'
	// only, default deny).
	for _, n := range doc.Elements() {
		if acc[n.ID] {
			n.Sign = xmltree.SignPlus
		}
	}
	m := cam.FromSigns(doc, false)
	// Apply to a fresh clone and compare accessibility everywhere.
	clone := doc.Clone()
	clone.ClearSigns()
	m.Apply(clone)
	for _, n := range clone.Elements() {
		want := acc[n.ID]
		got := n.Sign == xmltree.SignPlus
		if got != want {
			t.Fatalf("node %d: applied %v, want %v", n.ID, got, want)
		}
	}
}

func TestAccessibleIDsMatchesInput(t *testing.T) {
	doc, acc := annotatedHospital(t)
	m := cam.Build(doc, acc, false)
	got := m.AccessibleIDs(doc)
	if len(got) != len(acc) {
		t.Fatalf("expanded %d ids, want %d", len(got), len(acc))
	}
	for id := range acc {
		if !got[id] {
			t.Fatalf("id %d lost", id)
		}
	}
}

func TestCamAgainstSystemAnnotation(t *testing.T) {
	sys, err := core.NewSystem(core.Config{
		Schema:   hospital.Schema(),
		Policy:   policy.MustParse(hospitalPolicy),
		Backend:  core.BackendNative,
		Optimize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := hospital.Generate(hospital.GenOptions{Seed: 9, Departments: 1, PatientsPerDept: 30})
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	ids, err := sys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	m := cam.FromSigns(sys.Document(), false)
	got := m.AccessibleIDs(sys.Document())
	if len(got) != len(ids) {
		t.Fatalf("cam %d vs system %d", len(got), len(ids))
	}
}

// TestQuickCamRoundTrip: for random trees and random accessibility
// assignments, Build + Accessible reproduces the input exactly, and the
// mark count never exceeds the number of elements.
func TestQuickCamRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b", "c"}
		doc := xmltree.NewDocument("root")
		nodes := []*xmltree.Node{doc.Root()}
		for i := 0; i < r.Intn(40); i++ {
			p := nodes[r.Intn(len(nodes))]
			nodes = append(nodes, doc.AddElement(p, labels[r.Intn(len(labels))]))
		}
		acc := map[int64]bool{}
		for _, n := range nodes {
			if r.Intn(2) == 0 {
				acc[n.ID] = true
			}
		}
		def := r.Intn(2) == 0
		m := cam.Build(doc, acc, def)
		if m.Size() > len(nodes) {
			return false
		}
		for _, n := range nodes {
			if m.Accessible(n) != acc[n.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestForgetMatchesFreshBuild: when a delete leaves every remaining
// node's accessibility alone, forgetting the deleted ids leaves exactly
// the map a fresh build of the updated document holds, and Forget reports
// how many marks it dropped.
func TestForgetMatchesFreshBuild(t *testing.T) {
	doc, acc := annotatedHospital(t)
	m := cam.Build(doc, acc, false)
	before := m.Size()
	var gone []int64
	for _, n := range doc.ElementsByLabel("regular") {
		n.Walk(func(d *xmltree.Node) bool {
			if d.IsElement() {
				gone = append(gone, d.ID)
			}
			return true
		})
		if err := doc.DeleteSubtree(n); err != nil {
			t.Fatal(err)
		}
	}
	dropped := m.Forget(gone)
	if dropped == 0 {
		t.Fatal("test premise broken: no deleted element carried a mark")
	}
	if fresh := cam.Build(doc, acc, false).Size(); m.Size() != fresh || before-dropped != m.Size() {
		t.Fatalf("after Forget: %d marks (%d of %d dropped), fresh build %d", m.Size(), dropped, before, fresh)
	}
	for _, n := range doc.Elements() {
		if m.Accessible(n) != acc[n.ID] {
			t.Fatalf("after Forget: node %d (%s) accessible %v, want %v", n.ID, n.Label, m.Accessible(n), acc[n.ID])
		}
	}
}
