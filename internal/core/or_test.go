package core

import (
	"reflect"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// End-to-end tests for the disjunction extension: policies whose rules use
// "or" must work identically across all backends, through the optimizer,
// annotation, requests and re-annotation.

const orPolicy = `
default deny
conflict deny
rule R1 allow //patient[regular or .//experimental]
rule R2 allow //patient/name
rule R3 deny //patient[.//test or .//med]
rule R4 allow //regular
rule R5 allow //patient[treatment/regular or treatment/experimental]
`

func TestContainsWithOr(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		// Each disjunct contained in the plain right side.
		{"//a[b or c]", "//a", true},
		{"//a", "//a[b or c]", false},
		// Left or contained in right or.
		{"//a[b or c]", "//a[b or c or d]", true},
		{"//a[b or c or d]", "//a[b or c]", false},
		// Plain left in or right.
		{"//a[b]", "//a[b or c]", true},
		{"//a[c]", "//a[b or c]", true},
		{"//a[d]", "//a[b or c]", false},
		// And/or interplay.
		{"//a[b and c]", "//a[b or c]", true},
		{"//a[b or c]", "//a[b and c]", false},
		// Value constraints through disjuncts.
		{"//a[b = 5]", "//a[b = 5 or b = 6]", true},
		{"//a[b = 7]", "//a[b = 5 or b = 6]", false},
		{"//a[b > 10 or b = 3]", "//a[b > 5 or b = 3]", true},
	}
	for _, c := range cases {
		if got := pattern.Contains(xpath.MustParse(c.p), xpath.MustParse(c.q)); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestOptimizerWithOr(t *testing.T) {
	pol := policy.MustParse(`
rule A allow //a[b or c]
rule B allow //a[b]
rule C allow //a
`)
	reduced, removed := RemoveRedundant(pol)
	// B ⊑ A ⊑ C: only C survives.
	if len(reduced.Rules) != 1 || reduced.Rules[0].Name != "C" {
		t.Fatalf("kept %v, removed %v", ruleNames(reduced.Rules), ruleNames(removed))
	}
}

// TestOrPolicyBackendsAgree: the or-policy's accessible set matches the
// brute-force semantics on every backend (exercising or through XPath
// evaluation AND the SQL translation).
func TestOrPolicyBackendsAgree(t *testing.T) {
	doc := hospital.Generate(hospital.GenOptions{Seed: 77, Departments: 2, PatientsPerDept: 18, StaffPerDept: 4})
	pol := policy.MustParse(orPolicy)
	ref, err := pol.Semantics(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("degenerate fixture: nothing accessible")
	}
	for _, b := range allBackends {
		sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: pol.Clone(), Backend: b, Optimize: true})
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
			t.Fatalf("backend %v: %d accessible, want %d", b, len(ids), len(ref))
		}
	}
}

// TestOrPolicyReannotation: re-annotation stays equivalent to fresh
// annotation with or-rules in play.
func TestOrPolicyReannotation(t *testing.T) {
	for _, b := range allBackends {
		for _, u := range []string{"//experimental", "//regular", "//treatment"} {
			doc := hospital.Generate(hospital.GenOptions{Seed: 19, Departments: 1, PatientsPerDept: 14})
			sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(orPolicy), Backend: b, Optimize: true})
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
			applyDelete(t, ref, xpath.MustParse(u))
			refSys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(orPolicy), Backend: b, Optimize: true})
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
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("backend %v update %s: %d accessible, fresh %d", b, u, len(got), len(want))
			}
		}
	}
}

// TestExpandWithOr: expansion linearizes both or-branches.
func TestExpandWithOr(t *testing.T) {
	paths, err := pattern.Expand(xpath.MustParse("//patient[regular or .//experimental]"), hospital.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range paths {
		got = append(got, p.String())
	}
	want := []string{
		"//patient",
		"//patient/regular", // schema-nonconforming branch kept verbatim
		"//patient/treatment",
		"//patient/treatment/experimental",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expand = %v", got)
	}
}

// TestInstantiateWithOr: schema instantiation forks per disjunct and prunes
// unsatisfiable branches.
func TestInstantiateWithOr(t *testing.T) {
	insts, err := pattern.Instantiate(xpath.MustParse("//patient[.//med or .//test]"), hospital.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range insts {
		got = append(got, p.String())
	}
	want := []string{
		"/hospital/dept/patients/patient[treatment/experimental/test]",
		"/hospital/dept/patients/patient[treatment/regular/med]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instantiate = %v", got)
	}
}
