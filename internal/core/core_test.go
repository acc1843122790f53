package core

import (
	"reflect"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// table1Policy is the paper's Table 1 policy.
const table1Policy = `
default deny
conflict deny
rule R1 allow //patient
rule R2 allow //patient/name
rule R3 deny //patient[treatment]
rule R4 allow //patient[treatment]/name
rule R5 deny //patient[.//experimental]
rule R6 allow //regular
rule R7 allow //regular[med = "celecoxib"]
rule R8 allow //regular[bill > 1000]
`

func ruleNames(rules []policy.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name
	}
	return out
}

// TestOptimizerTable3 reproduces Table 3: the optimizer removes R4
// (⊑ R2), R7 and R8 (⊑ R6), and keeps R3 even though R3 ⊑ R1 because their
// effects differ.
func TestOptimizerTable3(t *testing.T) {
	p := policy.MustParse(table1Policy)
	opt, removed := RemoveRedundant(p)
	if got := ruleNames(opt.Rules); !reflect.DeepEqual(got, []string{"R1", "R2", "R3", "R5", "R6"}) {
		t.Fatalf("kept = %v", got)
	}
	if got := ruleNames(removed); !reflect.DeepEqual(got, []string{"R4", "R7", "R8"}) {
		t.Fatalf("removed = %v", got)
	}
}

// TestOptimizerPreservesSemantics: redundancy elimination never changes the
// accessible node set.
func TestOptimizerPreservesSemantics(t *testing.T) {
	p := policy.MustParse(table1Policy)
	opt, _ := RemoveRedundant(p)
	for _, seed := range []uint64{1, 2, 3} {
		doc := hospital.Generate(hospital.GenOptions{Seed: seed, Departments: 2, PatientsPerDept: 15, StaffPerDept: 5})
		a, err := p.Semantics(doc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opt.Semantics(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: optimized policy changed semantics (%d vs %d accessible)", seed, len(a), len(b))
		}
	}
}

func TestOptimizerEquivalentRulesKeepOne(t *testing.T) {
	p := policy.MustParse(`
rule A allow //x
rule B allow //x
`)
	opt, removed := RemoveRedundant(p)
	if len(opt.Rules) != 1 || opt.Rules[0].Name != "A" {
		t.Fatalf("kept = %v", ruleNames(opt.Rules))
	}
	if len(removed) != 1 || removed[0].Name != "B" {
		t.Fatalf("removed = %v", ruleNames(removed))
	}
}

func TestOptimizerKeepsIncomparableRules(t *testing.T) {
	p := policy.MustParse(`
rule A allow //x
rule B allow //y
rule C deny //x
`)
	opt, removed := RemoveRedundant(p)
	if len(opt.Rules) != 3 || len(removed) != 0 {
		t.Fatalf("kept=%v removed=%v", ruleNames(opt.Rules), ruleNames(removed))
	}
}

// TestBuildAnnotationQueryTable2: the four (ds, cr) combinations produce
// the update sets of Figure 5.
func TestBuildAnnotationQueryTable2(t *testing.T) {
	mk := func(ds, cr policy.Effect) *policy.Policy {
		return &policy.Policy{Default: ds, Conflict: cr, Rules: []policy.Rule{
			{Name: "G", Resource: xpath.MustParse("//g"), Effect: policy.Allow},
			{Name: "D", Resource: xpath.MustParse("//d"), Effect: policy.Deny},
		}}
	}
	cases := []struct {
		ds, cr   policy.Effect
		wantExpr string
		wantSign string
	}{
		{policy.Deny, policy.Deny, "(//g except //d)", "+"},
		{policy.Deny, policy.Allow, "//g", "+"},
		{policy.Allow, policy.Deny, "//d", "-"},
		{policy.Allow, policy.Allow, "(//d except //g)", "-"},
	}
	for _, c := range cases {
		q := BuildAnnotationQuery(mk(c.ds, c.cr))
		if q.Expr.String() != c.wantExpr {
			t.Errorf("ds=%v cr=%v: expr = %s, want %s", c.ds, c.cr, q.Expr, c.wantExpr)
		}
		if q.Sign.String() != c.wantSign {
			t.Errorf("ds=%v cr=%v: sign = %s, want %s", c.ds, c.cr, q.Sign, c.wantSign)
		}
	}
}

func TestAnnotationQueryEmptySides(t *testing.T) {
	// No grants under deny default: nothing to update.
	p := &policy.Policy{Default: policy.Deny, Conflict: policy.Deny, Rules: []policy.Rule{
		{Resource: xpath.MustParse("//d"), Effect: policy.Deny},
	}}
	if q := BuildAnnotationQuery(p); q.Expr != nil {
		t.Fatalf("expr = %v, want nil", q.Expr)
	}
	// Grants but no denies under deny/deny: plain grants.
	p = &policy.Policy{Default: policy.Deny, Conflict: policy.Deny, Rules: []policy.Rule{
		{Resource: xpath.MustParse("//g"), Effect: policy.Allow},
	}}
	if q := BuildAnnotationQuery(p); q.Expr.String() != "//g" {
		t.Fatalf("expr = %v", q.Expr)
	}
}

// TestDependencyGraphHospital: with the optimized Table 3 policy, R1's
// neighbors are R3 and R5 (opposite effect, contained in R1); R2 and R6
// are isolated; the transitive closure connects R3 and R5 through R1.
func TestDependencyGraphHospital(t *testing.T) {
	p, _ := RemoveRedundant(policy.MustParse(table1Policy))
	g := BuildDependencyGraph(p)
	idx := map[string]int{}
	for i, r := range p.Rules {
		idx[r.Name] = i
	}
	if got := g.Neighbors[idx["R1"]]; !reflect.DeepEqual(got, []int{idx["R3"], idx["R5"]}) {
		t.Fatalf("neighbors(R1) = %v", got)
	}
	if len(g.Neighbors[idx["R2"]]) != 0 {
		t.Fatalf("neighbors(R2) = %v", g.Neighbors[idx["R2"]])
	}
	if len(g.Neighbors[idx["R6"]]) != 0 {
		t.Fatalf("neighbors(R6) = %v", g.Neighbors[idx["R6"]])
	}
	// Closure: from R3 we reach R1 and, through it, R5.
	if got := g.Depends[idx["R3"]]; !reflect.DeepEqual(got, []int{idx["R1"], idx["R5"]}) {
		t.Fatalf("depends(R3) = %v", got)
	}
	if got := g.Depends[idx["R5"]]; !reflect.DeepEqual(got, []int{idx["R1"], idx["R3"]}) {
		t.Fatalf("depends(R5) = %v", got)
	}
}

func TestDependencyGraphSameEffectNoEdge(t *testing.T) {
	p := policy.MustParse(`
rule A allow //x
rule B allow //x[y]
`)
	g := BuildDependencyGraph(p)
	if len(g.Neighbors[0]) != 0 || len(g.Neighbors[1]) != 0 {
		t.Fatal("same-effect rules must not be neighbors")
	}
}

// TestTriggerPaperExamples walks through both triggering scenarios of
// Section 5.3.
func TestTriggerPaperExamples(t *testing.T) {
	p, _ := RemoveRedundant(policy.MustParse(table1Policy))
	r, err := NewReannotator(p, hospital.Schema())
	if err != nil {
		t.Fatal(err)
	}
	names := func(u string) []string {
		return r.RuleNames(r.Trigger(xpath.MustParse(u)))
	}
	// Deleting //patient/treatment: R3's expansion matches the update;
	// dependency resolution pulls in R1 (and R5, R3's sibling under R1).
	got := names("//patient/treatment")
	want := []string{"R1", "R3", "R5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trigger(//patient/treatment) = %v, want %v", got, want)
	}
	// Deleting //treatment: without the schema-aware expansion R5 would be
	// missed; with it //patient/treatment ⊑ //treatment triggers both deny
	// rules, and R1 follows by dependency.
	got = names("//treatment")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trigger(//treatment) = %v, want %v", got, want)
	}
	// Deleting //experimental triggers R5 (expansion reaches experimental
	// through treatment) and its dependents; R3's expansion
	// //patient/treatment is unrelated to //experimental, but R3 is pulled
	// in transitively through R1.
	got = names("//experimental")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trigger(//experimental) = %v, want %v", got, want)
	}
	// Deleting //regular triggers only R6 (no dependencies).
	got = names("//regular")
	if !reflect.DeepEqual(got, []string{"R6"}) {
		t.Fatalf("trigger(//regular) = %v", got)
	}
	// Deleting staff members triggers nothing.
	got = names("//staff")
	if len(got) != 0 {
		t.Fatalf("trigger(//staff) = %v", got)
	}
}
