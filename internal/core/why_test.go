package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// table1With renders the Table 1 rules under the given default semantics
// and conflict resolution — the four rows of Table 2.
func table1With(ds, cr string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "default %s\nconflict %s\n", ds, cr)
	for _, r := range hospital.Rules {
		effect := "deny"
		if r.Allow {
			effect = "allow"
		}
		fmt.Fprintf(&b, "rule %s %s %s\n", r.Name, effect, r.Resource)
	}
	return b.String()
}

func whySystem(t *testing.T, b Backend, policyText string, optimize bool) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Schema:   hospital.Schema(),
		Policy:   policy.MustParse(policyText),
		Backend:  b,
		Optimize: optimize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(hospital.Document()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWhyAgreesWithSigns is the golden attribution test: on the hospital
// document, under all four (default, conflict-resolution) semantics of
// Table 2 and on both store families, every element's Why decision must
// agree with its materialized sign.
func TestWhyAgreesWithSigns(t *testing.T) {
	for _, backend := range []Backend{BackendNative, BackendColumn} {
		for _, ds := range []string{"allow", "deny"} {
			for _, cr := range []string{"allow", "deny"} {
				name := fmt.Sprintf("%s/ds=%s,cr=%s", backend, ds, cr)
				t.Run(name, func(t *testing.T) {
					sys := whySystem(t, backend, table1With(ds, cr), false)
					doc := sys.Document()

					// The backend's materialized accessible set.
					materialized, err := sys.AccessibleIDs()
					if err != nil {
						t.Fatal(err)
					}
					// The brute-force Table 2 reference.
					reference, err := sys.Policy().Semantics(doc)
					if err != nil {
						t.Fatal(err)
					}

					decisions, err := sys.Why(xpath.MustParse("//*"))
					if err != nil {
						t.Fatal(err)
					}
					byID := map[int64]WhyDecision{}
					for _, d := range decisions {
						byID[d.ID] = d
					}
					for _, n := range doc.Elements() {
						d, ok := byID[n.ID]
						if !ok {
							// //* misses the root element; explain it directly.
							nd, err := sys.WhyNode(n.ID)
							if err != nil || nd == nil {
								t.Fatalf("node %d (%s): no decision (%v)", n.ID, n.Label, err)
							}
							d = *nd
						}
						if d.Accessible != materialized[n.ID] {
							t.Fatalf("node %d (%s): Why says %v, materialized sign says %v (deciding %s)",
								n.ID, n.Label, d.Accessible, materialized[n.ID], d.Deciding)
						}
						if d.Accessible != reference[n.ID] {
							t.Fatalf("node %d (%s): Why says %v, Table 2 semantics says %v",
								n.ID, n.Label, d.Accessible, reference[n.ID])
						}
						if d.Deciding.Index == -1 {
							if (d.Deciding.Effect == policy.Allow) != (ds == "allow") {
								t.Fatalf("node %d: default decision carries effect %v under ds=%s", n.ID, d.Deciding.Effect, ds)
							}
						}
					}
				})
			}
		}
	}
}

// TestWhyHospitalAttribution pins the paper's running example: the exact
// deciding, co-matching and losing rules of Figure 2's nodes under the
// Table 1 policy (ds=deny, cr=deny), unoptimized so all eight rules
// participate.
func TestWhyHospitalAttribution(t *testing.T) {
	sys := whySystem(t, BackendNative, table1With("deny", "deny"), false)

	type want struct {
		accessible bool
		deciding   string
		also       []string
		losing     []string
	}
	cases := []struct {
		query string
		want  []want
	}{
		{"//patient", []want{
			// john: has treatment → R3 denies, overriding R1.
			{false, "R3", nil, []string{"R1"}},
			// jane: experimental → R3 and R5 deny, overriding R1.
			{false, "R3", []string{"R5"}, []string{"R1"}},
			// joy: no treatment → R1 alone grants.
			{true, "R1", nil, nil},
		}},
		{"//patient/name", []want{
			// Names of treated patients match R2 and R4.
			{true, "R2", []string{"R4"}, nil},
			{true, "R2", []string{"R4"}, nil},
			// joy has no treatment: R2 alone.
			{true, "R2", nil, nil},
		}},
		{"//regular", []want{
			// bill 700, med enoxaparin: R6 alone (R7, R8 predicates fail).
			{true, "R6", nil, nil},
		}},
		{"//psn", []want{
			// No rule scopes psn: the deny default decides.
			{false, "default", nil, nil},
			{false, "default", nil, nil},
			{false, "default", nil, nil},
		}},
	}
	for _, c := range cases {
		decisions, err := sys.Why(xpath.MustParse(c.query))
		if err != nil {
			t.Fatal(err)
		}
		if len(decisions) != len(c.want) {
			t.Fatalf("%s: %d decisions, want %d: %v", c.query, len(decisions), len(c.want), decisions)
		}
		for i, w := range c.want {
			d := decisions[i]
			if d.Accessible != w.accessible || d.Deciding.Name != w.deciding ||
				!reflect.DeepEqual(refNames(d.Also), w.also) || !reflect.DeepEqual(refNames(d.Losing), w.losing) {
				t.Errorf("%s[%d] = %s, want accessible=%v deciding=%s also=%v losing=%v",
					c.query, i, d, w.accessible, w.deciding, w.also, w.losing)
			}
		}
	}
}

func refNames(refs []RuleRef) []string {
	if len(refs) == 0 {
		return nil
	}
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.Name
	}
	return out
}

// TestWhyOptimizedPolicy: attribution explains the policy in force — after
// redundancy elimination R4 is gone, so a treated patient's name is decided
// by R2 with no co-matching rule, and the decision indices point into
// System.Policy().Rules.
func TestWhyOptimizedPolicy(t *testing.T) {
	sys := whySystem(t, BackendNative, table1With("deny", "deny"), true)
	if got := len(sys.Policy().Rules); got != 5 {
		t.Fatalf("optimizer kept %d rules, want 5", got)
	}
	decisions, err := sys.Why(xpath.MustParse("//patient/name"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if d.Deciding.Name != "R2" || len(d.Also) != 0 {
			t.Fatalf("decision = %s, want R2 deciding alone", d)
		}
		if r := sys.Policy().Rules[d.Deciding.Index]; r.Name != "R2" {
			t.Fatalf("deciding index %d resolves to %s, want R2", d.Deciding.Index, r.Name)
		}
	}
}
