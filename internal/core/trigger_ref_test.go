package core_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"xmlac/internal/bench"
	"xmlac/internal/core"
	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// refTrigger and refTriggerAll freeze the per-call Trigger algorithm as
// the reference the compiled one is held to: every containment test
// compiles both paths, and every update expression takes its own
// dependency closure.
func refTrigger(r *core.Reannotator, u *xpath.Path) []int {
	triggered := map[int]bool{}
	for i := range r.Policy.Rules {
		for _, x := range r.Expansions[i] {
			if pattern.Contains(x, u) || pattern.Contains(u, x) {
				triggered[i] = true
				break
			}
		}
	}
	for i := range r.Policy.Rules {
		if triggered[i] {
			for _, dep := range r.Graph.Depends[i] {
				triggered[dep] = true
			}
		}
	}
	out := make([]int, 0, len(triggered))
	for i := range triggered {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func refTriggerAll(r *core.Reannotator, us []*xpath.Path) []int {
	set := map[int]bool{}
	for _, u := range us {
		for _, i := range refTrigger(r, u) {
			set[i] = true
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// table1 is the paper's Table 1 policy, built from the hospital fixture.
func table1() *policy.Policy {
	text := "default deny\nconflict deny\n"
	for _, r := range hospital.Rules {
		effect := "deny"
		if r.Allow {
			effect = "allow"
		}
		text += "rule " + r.Name + " " + effect + " " + r.Resource + "\n"
	}
	return policy.MustParse(text)
}

// bidderText is the write template of the repository benchmark: one
// bidder, inserted under //open_auction[type = "BenchLot"].
const bidderText = `<bidder><date>01/03/2000</date><time>MARKER</time><personref person="person0"/><increase>25.00</increase></bidder>`

// TestTriggerAllMatchesReference: the compiled TriggerAll and Trigger
// select exactly the rules the frozen per-call algorithm selects — on
// every rule expansion, the 40 Fig. 12 delete updates, the 55 benchmark
// queries, the benchmark's bidder insert and the insert locators of random
// templates — under Table 1 and Table 3 on the hospital DTD and the five
// coverage policies on XMark.
func TestTriggerAllMatchesReference(t *testing.T) {
	table3, _ := core.RemoveRedundant(table1())
	type fixture struct {
		name   string
		pol    *policy.Policy
		schema *dtd.Schema
	}
	fixtures := []fixture{
		{"table1", table1(), hospital.Schema()},
		{"table3", table3, hospital.Schema()},
	}
	for _, np := range bench.CoveragePolicies() {
		fixtures = append(fixtures, fixture{np.Name, np.Policy, xmark.Schema()})
	}
	bidder, err := xmltree.ParseString(bidderText)
	if err != nil {
		t.Fatal(err)
	}
	lot := xpath.MustParse(`//open_auction[type = "BenchLot"]`)
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			r, err := core.NewReannotator(f.pol, f.schema)
			if err != nil {
				t.Fatal(err)
			}
			var singles []*xpath.Path
			for _, xs := range r.Expansions {
				singles = append(singles, xs...)
			}
			singles = append(singles, bench.Updates()...)
			singles = append(singles, bench.Queries()...)
			singles = append(singles, lot, xpath.MustParse(`//open_auction[type = "BenchLot"]/bidder[time = "MARKER"]`))
			triggeredSome := false
			for _, u := range singles {
				want := refTrigger(r, u)
				if got := r.Trigger(u); !reflect.DeepEqual(got, want) {
					t.Fatalf("Trigger(%s) = %v, reference %v", u, got, want)
				}
				if got := r.TriggerAll([]*xpath.Path{u}); !reflect.DeepEqual(got, want) {
					t.Fatalf("TriggerAll([%s]) = %v, reference %v", u, got, want)
				}
				triggeredSome = triggeredSome || len(want) > 0
			}
			if !triggeredSome {
				t.Fatal("no input triggered a rule; the comparison is vacuous")
			}
			inserts := [][]*xpath.Path{core.InsertLocators(lot, bidder.Root())}
			rng := rand.New(rand.NewSource(1))
			names := f.schema.Names()
			for k := 0; k < 60; k++ {
				tmpl := randomTemplate(rng, names)
				inserts = append(inserts, core.InsertLocators(singles[rng.Intn(len(singles))], tmpl.Root()))
			}
			for _, us := range inserts {
				want := refTriggerAll(r, us)
				if got := r.TriggerAll(us); !reflect.DeepEqual(got, want) {
					t.Fatalf("TriggerAll(%v) = %v, reference %v", us, got, want)
				}
			}
		})
	}
}

// randomTemplate draws a subtree of one to six elements over the schema's
// element names.
func randomTemplate(rng *rand.Rand, names []string) *xmltree.Document {
	d := xmltree.NewDocument(names[rng.Intn(len(names))])
	nodes := []*xmltree.Node{d.Root()}
	for n := rng.Intn(6); n > 0; n-- {
		nodes = append(nodes, d.AddElement(nodes[rng.Intn(len(nodes))], names[rng.Intn(len(names))]))
	}
	return d
}
