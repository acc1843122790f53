package xmlac_test

// Golden equivalence tests for the query path: the relational request
// path (RawQuery's matches, and the sign predicate folded into a second
// translation) must be result-identical — grant-or-deny, exact error text,
// returned ids and Checked — to the rewriting enforcer's decision set over
// the same store, on both documents and under all four policy semantics.
// TestSignCheckMatchesAccessibleIDs also holds the check to one that reads
// the same tables differently: RawQuery's matches decided against a full
// s = '+' scan of every table, after load, insert and delete, with the
// owner index that routes the sign writes full, emptied and half
// forgotten.

import (
	"context"
	"slices"
	"testing"

	"xmlac"
	"xmlac/internal/bench"
	"xmlac/internal/hospital"
	"xmlac/internal/store"
	"xmlac/internal/xmark"
)

// requestOutcome is everything a caller can observe from System.Request.
type requestOutcome struct {
	granted bool
	errText string
	ids     []int64
	checked int
}

func observe(t *testing.T, sys *xmlac.System, q *xmlac.Path) requestOutcome {
	t.Helper()
	res, err := sys.Request(q)
	if err != nil {
		return requestOutcome{errText: err.Error()}
	}
	ids := res.IDs
	if len(res.Nodes) > 0 { // native backend: compare node identities
		ids = make([]int64, len(res.Nodes))
		for i, n := range res.Nodes {
			ids[i] = n.ID
		}
	}
	return requestOutcome{granted: true, ids: ids, checked: res.Checked}
}

func (o requestOutcome) equal(p requestOutcome) bool {
	return o.granted == p.granted && o.errText == p.errText &&
		slices.Equal(o.ids, p.ids) && o.checked == p.checked
}

// requestFixture bundles a schema, a deterministic document generator and a
// query workload.
type requestFixture struct {
	name    string
	schema  *xmlac.Schema
	gen     func() *xmlac.Document
	base    *xmlac.Policy
	queries []*xmlac.Path
}

func requestFixtures() []requestFixture {
	hosp := []string{
		"//patient", "//patient/name", "//regular", "//doctor", "//psn",
		"//treatment", "//patient[treatment]/name", "//staff", "//dept/name",
		"//patient[.//experimental]",
	}
	hq := make([]*xmlac.Path, len(hosp))
	for i, q := range hosp {
		hq[i] = xmlac.MustParseXPath(q)
	}
	return []requestFixture{
		{
			name:   "hospital",
			schema: xmlac.HospitalSchema(),
			gen: func() *xmlac.Document {
				return xmlac.GenerateHospital(hospital.GenOptions{
					Seed: 2, Departments: 3, PatientsPerDept: 25, StaffPerDept: 8,
				})
			},
			base:    xmlac.HospitalPolicy(),
			queries: hq,
		},
		{
			name:   "xmark",
			schema: xmlac.XMarkSchema(),
			gen: func() *xmlac.Document {
				return xmlac.GenerateXMark(xmark.Options{Factor: 0.001, Seed: 1})
			},
			base:    bench.MidPolicy(),
			queries: bench.Queries(),
		},
	}
}

// semantics are the four Default × Conflict combinations of Section 3.
var semantics = []struct {
	name          string
	def, conflict xmlac.Effect
}{
	{"deny-deny", xmlac.Deny, xmlac.Deny},
	{"deny-allow", xmlac.Deny, xmlac.Allow},
	{"allow-deny", xmlac.Allow, xmlac.Deny},
	{"allow-allow", xmlac.Allow, xmlac.Allow},
}

func buildRequestSystem(t *testing.T, fx requestFixture, def, conflict xmlac.Effect, b xmlac.Backend, mode xmlac.EnforceMode) *xmlac.System {
	t.Helper()
	pol := fx.base.Clone()
	pol.Default = def
	pol.Conflict = conflict
	sys, err := xmlac.New(xmlac.Config{Schema: fx.schema, Policy: pol, Backend: b, Optimize: true, Enforce: mode})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(fx.gen()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestOptimizedRequestPathsMatchReference is the golden matrix: document ×
// semantics × relational backend, every outcome of the relational sign
// check byte-identical to the rewriting enforcer's on the same backend.
func TestOptimizedRequestPathsMatchReference(t *testing.T) {
	for _, fx := range requestFixtures() {
		for _, sem := range semantics {
			for _, b := range []xmlac.Backend{xmlac.BackendColumn, xmlac.BackendRow} {
				t.Run(fx.name+"/"+sem.name+"/"+b.String(), func(t *testing.T) {
					ref := buildRequestSystem(t, fx, sem.def, sem.conflict, b, xmlac.EnforceRewrite)
					want := make([]requestOutcome, len(fx.queries))
					granted := 0
					for i, q := range fx.queries {
						want[i] = observe(t, ref, q)
						if want[i].granted {
							granted++
						}
					}
					// The workload must exercise both outcomes somewhere in
					// the matrix; under uniform semantics a fixture can
					// legitimately be all-granted or all-denied, so only
					// sanity-check that it ran.
					if len(want) == 0 {
						t.Fatal("empty workload")
					}
					t.Logf("%d/%d queries granted by reference", granted, len(want))
					sys := buildRequestSystem(t, fx, sem.def, sem.conflict, b, xmlac.EnforceSigns)
					for i, q := range fx.queries {
						if got := observe(t, sys, q); !got.equal(want[i]) {
							t.Errorf("query %s: got %+v, want %+v", q, got, want[i])
						}
					}
				})
			}
		}
	}
}

// ownerStates are the owner-index states the sign check must be right in:
// as the shredder left it, emptied (every sign write routes its ids by
// scanning every table), and with every other element id forgotten (both
// routes in one write).
var ownerStates = []struct {
	name   string
	forget func(i int) bool // forget the i-th element in document order
}{
	{"full", func(int) bool { return false }},
	{"emptied", func(int) bool { return true }},
	{"alternate", func(i int) bool { return i%2 == 1 }},
}

// signCheckReference decides q as the relational sign check must, from
// code the check does not run: RawQuery's matches against AccessibleIDs(),
// a full s = '+' scan of every table. A denial names the smallest
// inaccessible match.
func signCheckReference(t *testing.T, eng store.Engine, accessible map[int64]bool, q *xmlac.Path) requestOutcome {
	t.Helper()
	raw, err := eng.RawQuery(context.Background(), q)
	if err != nil {
		t.Fatalf("RawQuery(%s): %v", q, err)
	}
	for _, id := range raw.IDs {
		if !accessible[id] {
			return requestOutcome{errText: (&store.DeniedError{ID: id}).Error()}
		}
	}
	return requestOutcome{granted: true, ids: raw.IDs, checked: raw.Checked}
}

// TestSignCheckMatchesAccessibleIDs holds every relational engine's
// Request to signCheckReference: the 55 benchmark queries on XMark
// f = 0.002 under c3, and the hospital queries under all four Table 2
// semantics, after load, after an insert and after a delete, in each of
// ownerStates.
func TestSignCheckMatchesAccessibleIDs(t *testing.T) {
	type workload struct {
		name              string
		fx                requestFixture
		def, conflict     xmlac.Effect
		parent, tmplLabel string // insert a copy of the first tmplLabel under every parent
		del               string
	}
	var workloads []workload
	for _, fx := range requestFixtures() {
		if fx.name != "hospital" {
			continue
		}
		for _, sem := range semantics {
			workloads = append(workloads, workload{fx.name + "/" + sem.name, fx, sem.def, sem.conflict,
				"//patients", "patient", "//patient/treatment"})
		}
	}
	c3 := bench.MidPolicy()
	workloads = append(workloads, workload{"xmark/c3", requestFixture{
		schema:  xmlac.XMarkSchema(),
		gen:     func() *xmlac.Document { return xmlac.GenerateXMark(xmark.Options{Factor: 0.002, Seed: 1}) },
		base:    c3,
		queries: bench.Queries(),
	}, c3.Default, c3.Conflict, "//open_auction", "bidder", "//bidder"})

	granted, denied := 0, 0
	for _, w := range workloads {
		for _, b := range []xmlac.Backend{xmlac.BackendColumn, xmlac.BackendRow} {
			for _, st := range ownerStates {
				t.Run(w.name+"/"+b.String()+"/"+st.name, func(t *testing.T) {
					sys := buildRequestSystem(t, w.fx, w.def, w.conflict, b, xmlac.EnforceSigns)
					eng := sys.Engine()
					check := func(stage string) {
						t.Helper()
						var forget []int64
						for i, n := range sys.Document().Elements() {
							if st.forget(i) {
								forget = append(forget, n.ID)
							}
						}
						eng.(store.Relational).Mapping().ForgetOwner(forget...)
						accessible, err := eng.AccessibleIDs()
						if err != nil {
							t.Fatal(err)
						}
						for _, q := range w.fx.queries {
							want := signCheckReference(t, eng, accessible, q)
							got := requestOutcome{}
							if res, err := eng.Request(context.Background(), q); err != nil {
								got.errText = err.Error()
							} else {
								got = requestOutcome{granted: true, ids: res.IDs, checked: res.Checked}
							}
							if !got.equal(want) {
								t.Errorf("%s: query %s: got %+v, want %+v", stage, q, got, want)
							}
							if want.granted {
								granted++
							} else {
								denied++
							}
						}
					}
					check("load")
					doc := sys.Document()
					tmpl := doc.ElementsByLabel(w.tmplLabel)[0]
					if _, err := sys.InsertAndReannotate(xmlac.MustParseXPath(w.parent), tmpl); err != nil {
						t.Fatal(err)
					}
					check("insert")
					if _, err := sys.DeleteAndReannotate(xmlac.MustParseXPath(w.del)); err != nil {
						t.Fatal(err)
					}
					check("delete")
				})
			}
		}
	}
	if granted == 0 || denied == 0 {
		t.Errorf("%d granted and %d denied requests; the workload must exercise both", granted, denied)
	}
}
