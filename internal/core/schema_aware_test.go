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

// These tests exercise schema-aware containment (the optimization the
// paper's conclusion proposes), which the ablation library keeps: the
// optimizer and the dependency graph recognize containments that only
// hold on schema-valid documents. The System itself uses plain
// containment, and these tests pin that it stays exact where the
// schema-aware reasoning is incomplete or unsound.

// TestSchemaAwareOptimizerRemovesMore: //regular/med and //treatment/*/med
// are incomparable to the plain test but equivalent under the hospital DTD
// (med only occurs along treatment/regular/med), so the schema-aware
// optimizer eliminates one of them.
func TestSchemaAwareOptimizerRemovesMore(t *testing.T) {
	pol := policy.MustParse(`
rule A allow //regular/med
rule B allow //treatment/*/med
`)
	plain, removedPlain := RemoveRedundant(pol)
	if len(plain.Rules) != 2 || len(removedPlain) != 0 {
		t.Fatalf("plain optimizer removed %v", removedPlain)
	}
	aware, removedAware := RemoveRedundantWith(pol, SchemaContainFunc(hospital.Schema()))
	if len(aware.Rules) != 1 || len(removedAware) != 1 {
		t.Fatalf("schema-aware optimizer kept %d removed %d", len(aware.Rules), len(removedAware))
	}
}

// TestSchemaAwareDependencyEdge: deny //treatment[experimental] and allow
// //patient/treatment share scope only modulo the schema; the plain graph
// has no edge, the schema-aware one does.
func TestSchemaAwareDependencyEdge(t *testing.T) {
	pol := policy.MustParse(`
rule A allow //patient/treatment
rule D deny //treatment[experimental]
`)
	plain := BuildDependencyGraph(pol)
	if len(plain.Neighbors[0]) != 0 {
		t.Fatalf("plain graph found an edge: %v", plain.Neighbors)
	}
	aware := BuildDependencyGraphWith(pol, SchemaContainFunc(hospital.Schema()))
	if !reflect.DeepEqual(aware.Neighbors[0], []int{1}) {
		t.Fatalf("schema-aware graph edges: %v", aware.Neighbors)
	}
}

// TestSchemaAwareReannotationCorrectness: with a policy whose rules
// interact only modulo the schema, plain Trigger misses the dependency
// (TestSchemaAwareDependencyEdge). Re-annotation must still match a
// from-scratch annotation: the write's region, not the triggered rules,
// decides what is re-annotated.
func TestSchemaAwareReannotationCorrectness(t *testing.T) {
	polText := `
default deny
conflict deny
rule A allow //patient/treatment
rule D deny //treatment[experimental]
`
	doc := hospital.Generate(hospital.GenOptions{Seed: 13, Departments: 2, PatientsPerDept: 20, StaffPerDept: 3})
	u := xpath.MustParse("//experimental")
	annotated := func(doc *xmltree.Document) *System {
		sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(polText), Backend: BackendNative, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sys := annotated(doc.Clone())
	if _, err := sys.DeleteAndReannotate(u); err != nil {
		t.Fatal(err)
	}
	got, err := sys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: fresh annotation of the updated document.
	ref := doc.Clone()
	applyDelete(t, ref, u)
	want, err := annotated(ref).AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reannotated %d accessible, fresh annotation %d", len(got), len(want))
	}
}

// TestSchemaAwareSystemEndToEnd: schema-aware redundancy elimination is
// only sound on schema-valid documents, and accepted writes do not keep
// the document valid. Under the hospital DTD med only occurs along
// treatment/regular/med, so the schema-aware optimizer drops the deny of
// //treatment/*/med as redundant with //regular/med. Inserting a med
// under an experimental treatment then tells them apart: the System's
// plain optimizer keeps both rules and must match the Table 2 semantics
// before and after the insert, on every backend.
func TestSchemaAwareSystemEndToEnd(t *testing.T) {
	pol := policy.MustParse(`
default deny
conflict deny
rule A allow //treatment//*
rule D1 deny //regular/med
rule D2 deny //treatment/*/med
`)
	if kept, _ := RemoveRedundantWith(pol, SchemaContainFunc(hospital.Schema())); len(kept.Rules) != 2 {
		t.Fatalf("test premise broken: schema-aware optimizer kept %d of 3 rules", len(kept.Rules))
	}
	med := xmltree.NewSubtree("med")
	for _, b := range allBackends {
		sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: pol.Clone(), Backend: b, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sys.Policy().Rules); n != 3 {
			t.Fatalf("backend %v: optimizer kept %d of 3 rules", b, n)
		}
		if err := sys.Load(hospital.Document()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		check := func(stage string, want int) {
			t.Helper()
			ref, err := pol.Semantics(sys.Document())
			if err != nil {
				t.Fatal(err)
			}
			ids, err := sys.AccessibleIDs()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids, ref) || len(ref) != want {
				t.Fatalf("backend %v %s: %d accessible, semantics %d, want %d", b, stage, len(ids), len(ref), want)
			}
		}
		check("annotated", 5)
		if _, err := sys.InsertAndReannotate(xpath.MustParse("//experimental"), med); err != nil {
			t.Fatal(err)
		}
		check("after insert", 5)
		// The relational translation follows the DTD and finds no such
		// med; wherever the query reaches it, it must be denied.
		res, err := sys.Request(xpath.MustParse("//experimental/med"))
		if !errors.Is(err, ErrAccessDenied) && (err != nil || len(res.Nodes) > 0) {
			t.Fatalf("backend %v: request for the inserted med: %v, want access denied", b, err)
		}
	}
}
