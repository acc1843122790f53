package core

import (
	"reflect"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/policy"

	"xmlac/internal/xpath"
)

// These tests exercise the schema-aware containment option (the
// optimization the paper's conclusion proposes): the optimizer, the
// dependency graph and Trigger recognize containments that only hold on
// schema-valid documents.

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
// from-scratch annotation in both modes, the default included: the
// write's region, not the triggered rules, decides what is re-annotated.
func TestSchemaAwareReannotationCorrectness(t *testing.T) {
	polText := `
default deny
conflict deny
rule A allow //patient/treatment
rule D deny //treatment[experimental]
`
	doc := hospital.Generate(hospital.GenOptions{Seed: 13, Departments: 2, PatientsPerDept: 20, StaffPerDept: 3})
	u := xpath.MustParse("//experimental")

	run := func(schemaAware bool) map[int64]bool {
		sys, err := NewSystem(Config{
			Schema:      hospital.Schema(),
			Policy:      policy.MustParse(polText),
			Backend:     BackendNative,
			Optimize:    true,
			SchemaAware: schemaAware,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(doc.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeleteAndReannotate(u); err != nil {
			t.Fatal(err)
		}
		ids, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}

	// Ground truth: fresh annotation of the updated document.
	ref := doc.Clone()
	if _, _, err := ApplyDeleteTree(ref, u); err != nil {
		t.Fatal(err)
	}
	refSys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(polText), Backend: BackendNative, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSys.Load(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := refSys.Annotate(); err != nil {
		t.Fatal(err)
	}
	want, err := refSys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}

	for _, aware := range []bool{true, false} {
		if got := run(aware); !reflect.DeepEqual(got, want) {
			t.Fatalf("SchemaAware=%v: reannotated %d accessible, fresh annotation %d", aware, len(got), len(want))
		}
	}
}

// TestSchemaAwareSystemEndToEnd: the option composes with the full system
// on all backends and still matches the brute-force semantics.
func TestSchemaAwareSystemEndToEnd(t *testing.T) {
	doc := hospital.Generate(hospital.GenOptions{Seed: 31, Departments: 1, PatientsPerDept: 15, StaffPerDept: 5})
	pol := policy.MustParse(table1Policy)
	ref, err := pol.Semantics(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBackends {
		sys, err := NewSystem(Config{
			Schema: hospital.Schema(), Policy: pol.Clone(),
			Backend: b, Optimize: true, SchemaAware: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(doc.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		ids, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, ref) {
			t.Fatalf("backend %v: schema-aware system disagrees with semantics", b)
		}
	}
}

// TestSchemaAwareReannotationStillEquivalent: with schema-aware triggering,
// the re-annotation ≡ full-annotation invariant holds across the update
// workload (superset of interactions can only help).
func TestSchemaAwareReannotationStillEquivalent(t *testing.T) {
	updates := []string{"//treatment", "//experimental", "//regular", "//patient[treatment]"}
	for _, u := range updates {
		doc := hospital.Generate(hospital.GenOptions{Seed: 17, Departments: 1, PatientsPerDept: 10})
		sys, err := NewSystem(Config{
			Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy),
			Backend: BackendNative, Optimize: true, SchemaAware: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Load(doc.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeleteAndReannotate(xpath.MustParse(u)); err != nil {
			t.Fatal(err)
		}
		got, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		ref := doc.Clone()
		if _, _, err := ApplyDeleteTree(ref, xpath.MustParse(u)); err != nil {
			t.Fatal(err)
		}
		want := freshAnnotatedIDs(t, BackendNative, ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("update %s: %d accessible, fresh %d", u, len(got), len(want))
		}
	}
}
