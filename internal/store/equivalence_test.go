// The golden cross-backend equivalence suite: the paper's central claim
// is that one access-control model is enforced identically over native
// XML and relational storage, and this suite verifies it through the
// store.Engine seam alone — every registered engine is opened by name,
// annotated from the same compiled annotation query, and must produce
// exactly the brute-force Table 2 reference semantics and identical
// request outcomes, for all four (default, conflict) combinations on
// both evaluation workloads (the hospital document and XMark).
package store_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"xmlac/internal/core"
	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// The policy texts mirror the core test suite's Table 1 hospital policy
// and the XMark grant/deny mix; the (default, conflict) header lines are
// overridden per combination below.
const hospitalPolicy = `
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

const xmarkPolicy = `
default deny
conflict deny
rule g1 allow //closed_auction
rule g2 allow //closed_auction//*
rule g3 allow //open_auction/*
rule g4 allow //person
rule g5 allow //person//*
rule g6 allow //item/name
rule d1 deny //closed_auction[price > 400]
rule d2 deny //creditcard
rule d3 deny //person[creditcard]
`

// workload bundles one evaluation document family with its policy and
// the request probes exercised against every engine.
type workload struct {
	name    string
	schema  *dtd.Schema
	policy  string
	gen     func() *xmltree.Document
	queries []string
}

func workloads() []workload {
	return []workload{
		{
			name:   "hospital",
			schema: hospital.Schema(),
			policy: hospitalPolicy,
			gen: func() *xmltree.Document {
				return hospital.Generate(hospital.GenOptions{Seed: 9, Departments: 2, PatientsPerDept: 10, StaffPerDept: 4})
			},
			queries: []string{
				"//patient/name",
				"//patient",
				"//regular",
				"//department",
				"//treatment",
				"/hospital",
			},
		},
		{
			name:   "xmark",
			schema: xmark.Schema(),
			policy: xmarkPolicy,
			gen: func() *xmltree.Document {
				return xmark.Generate(xmark.Options{Factor: 0.002, Seed: 7})
			},
			queries: []string{
				"//closed_auction",
				"//person",
				"//creditcard",
				"//item/name",
				"//open_auction",
			},
		},
	}
}

// openEngine opens one registered engine and loads a fresh copy of the
// workload document into it.
func openEngine(t *testing.T, name string, wl workload, def xmltree.Sign) store.Engine {
	t.Helper()
	eng, err := store.Open(name, store.Options{Schema: wl.schema, Default: def})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(wl.gen()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func signOf(e policy.Effect) xmltree.Sign {
	if e == policy.Allow {
		return xmltree.SignPlus
	}
	return xmltree.SignMinus
}

// TestGoldenEquivalence drives every registered engine through the
// store.Engine interface only and checks its accessible set against the
// brute-force reference semantics, for all four Table 2 combinations on
// both workloads.
func TestGoldenEquivalence(t *testing.T) {
	for _, wl := range workloads() {
		for _, ds := range []policy.Effect{policy.Allow, policy.Deny} {
			for _, cr := range []policy.Effect{policy.Allow, policy.Deny} {
				pol := policy.MustParse(wl.policy)
				pol.Default, pol.Conflict = ds, cr
				ref, err := pol.Semantics(wl.gen())
				if err != nil {
					t.Fatal(err)
				}
				q := core.BuildAnnotationQuery(pol)
				for _, name := range store.Engines() {
					eng := openEngine(t, name, wl, signOf(ds))
					if _, err := eng.Annotate(context.Background(), q); err != nil {
						t.Fatalf("%s/%s ds=%v cr=%v: annotate: %v", wl.name, name, ds, cr, err)
					}
					ids, err := eng.AccessibleIDs()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ids, ref) {
						t.Errorf("%s/%s ds=%v cr=%v: %d accessible, want %d",
							wl.name, name, ds, cr, len(ids), len(ref))
					}
				}
			}
		}
	}
}

// requestOutcome normalizes one engine's answer to a probe: the granted
// id list, or the fact of denial, or an unexpected error.
type requestOutcome struct {
	Granted bool
	IDs     []int64
}

func probe(t *testing.T, eng store.Engine, q *xpath.Path) requestOutcome {
	t.Helper()
	res, err := eng.Request(context.Background(), q)
	switch {
	case errors.Is(err, store.ErrAccessDenied):
		return requestOutcome{Granted: false}
	case err != nil:
		t.Fatalf("engine %s: request %s: %v", eng.Name(), q, err)
		return requestOutcome{}
	default:
		// The native engine answers with nodes, the relational engines
		// with ids; normalize to the sorted id list.
		ids := res.IDs
		if ids == nil {
			for _, n := range res.Nodes {
				ids = append(ids, n.ID)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if len(ids) == 0 {
			ids = nil
		}
		return requestOutcome{Granted: true, IDs: ids}
	}
}

// TestGoldenRequestsAgree runs the probe queries under every semantics
// combination and requires identical grant/deny outcomes and identical
// granted id sets from every engine.
func TestGoldenRequestsAgree(t *testing.T) {
	for _, wl := range workloads() {
		for _, ds := range []policy.Effect{policy.Allow, policy.Deny} {
			for _, cr := range []policy.Effect{policy.Allow, policy.Deny} {
				pol := policy.MustParse(wl.policy)
				pol.Default, pol.Conflict = ds, cr
				q := core.BuildAnnotationQuery(pol)
				engs := make([]store.Engine, 0, 3)
				for _, name := range store.Engines() {
					eng := openEngine(t, name, wl, signOf(ds))
					if _, err := eng.Annotate(context.Background(), q); err != nil {
						t.Fatal(err)
					}
					engs = append(engs, eng)
				}
				grants := 0
				for _, qs := range wl.queries {
					p := xpath.MustParse(qs)
					want := probe(t, engs[0], p)
					if want.Granted {
						grants++
					}
					for _, eng := range engs[1:] {
						got := probe(t, eng, p)
						if got.Granted != want.Granted || !reflect.DeepEqual(got.IDs, want.IDs) {
							t.Errorf("%s ds=%v cr=%v query %s: %s disagrees with %s (granted %v/%v, %d/%d ids)",
								wl.name, ds, cr, qs, eng.Name(), engs[0].Name(),
								got.Granted, want.Granted, len(got.IDs), len(want.IDs))
						}
					}
				}
				// With everything allowed, the probes must actually be
				// granted — guard against an all-deny vacuous pass.
				if ds == policy.Allow && cr == policy.Allow && grants == 0 {
					t.Errorf("%s ds=allow cr=allow: every probe denied", wl.name)
				}
			}
		}
	}
}

// TestGoldenWhyAgrees checks rule attribution through the full core
// stack: for every backend, Why must name the same deciding rule for the
// same node on both workloads.
func TestGoldenWhyAgrees(t *testing.T) {
	backends := []core.Backend{core.BackendNative, core.BackendRow, core.BackendColumn, core.BackendVector}
	for _, wl := range workloads() {
		type attribution struct {
			Accessible bool
			Deciding   string
		}
		var want map[int64]attribution
		for _, b := range backends {
			pol := policy.MustParse(wl.policy)
			sys, err := core.NewSystem(core.Config{Schema: wl.schema, Policy: pol, Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Load(wl.gen()); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			decisions, err := sys.Why(xpath.MustParse("//*"))
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[int64]attribution, len(decisions))
			for _, d := range decisions {
				got[d.ID] = attribution{Accessible: d.Accessible, Deciding: d.Deciding.Name}
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s backend %v: rule attribution differs from %v", wl.name, b, backends[0])
			}
		}
	}
}
