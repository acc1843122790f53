package pattern_test

import (
	"testing"

	"xmlac/internal/bench"
	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/pattern"
	"xmlac/internal/xmark"
	"xmlac/internal/xpath"
)

// TestContainsMatchesReferenceOnPolicies: on the paths the Trigger
// algorithm compares, Contains answers as the frozen reference does, in
// both directions — every rule expansion of the Table 1 policy on the
// hospital DTD and of the five coverage policies on XMark, against every
// other expansion, the 40 Fig. 12 delete updates, the 55 benchmark queries
// and the benchmark's bidder write paths.
func TestContainsMatchesReferenceOnPolicies(t *testing.T) {
	type fixture struct {
		rules  []*xpath.Path
		schema *dtd.Schema
	}
	table1 := fixture{schema: hospital.Schema()}
	for _, r := range hospital.Rules {
		table1.rules = append(table1.rules, xpath.MustParse(r.Resource))
	}
	fixtures := []fixture{table1}
	for _, np := range bench.CoveragePolicies() {
		f := fixture{schema: xmark.Schema()}
		for _, r := range np.Policy.Rules {
			f.rules = append(f.rules, r.Resource)
		}
		fixtures = append(fixtures, f)
	}
	others := append(bench.Updates(), bench.Queries()...)
	for _, w := range []string{
		`//open_auction[type = "BenchLot"]`,
		`//open_auction[type = "BenchLot"]/bidder[time = "MARKER"]`,
		`//open_auction[type = "BenchLot"]/bidder/increase`,
	} {
		others = append(others, xpath.MustParse(w))
	}
	pairs, held := 0, 0
	for _, f := range fixtures {
		var xs []*xpath.Path
		for _, r := range f.rules {
			ex, err := pattern.Expand(r, f.schema)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, r)
			xs = append(xs, ex...)
		}
		all := append(append([]*xpath.Path{}, xs...), others...)
		for _, x := range xs {
			for _, u := range all {
				for _, pq := range [][2]*xpath.Path{{x, u}, {u, x}} {
					got := pattern.Contains(pq[0], pq[1])
					if want := pattern.RefContains(pq[0], pq[1]); got != want {
						t.Fatalf("Contains(%s, %s) = %v, reference %v", pq[0], pq[1], got, want)
					}
					pairs++
					if got {
						held++
					}
				}
			}
		}
	}
	if held == 0 {
		t.Fatalf("containment held on none of %d pairs; the comparison is vacuous", pairs)
	}
	t.Logf("%d pairs, %d contained", pairs, held)
}
