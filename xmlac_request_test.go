package xmlac_test

// Golden equivalence tests for the query path: the default relational
// request paths (id→table routed sign probes, or the sign predicate folded
// into the query on monetcol) and the query cache's decision set must be
// result-identical — grant-or-deny, exact error text, returned ids and
// Checked — to the reference, a default system whose owner index was
// emptied so that every sign probe falls back to probing every table, on
// both documents and under all four policy semantics.

import (
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

func buildRequestSystem(t *testing.T, fx requestFixture, def, conflict xmlac.Effect, b xmlac.Backend, mod func(*xmlac.Config)) *xmlac.System {
	t.Helper()
	pol := fx.base.Clone()
	pol.Default = def
	pol.Conflict = conflict
	cfg := xmlac.Config{Schema: fx.schema, Policy: pol, Backend: b, Optimize: true}
	if mod != nil {
		mod(&cfg)
	}
	sys, err := xmlac.New(cfg)
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

// forgetOwners empties a relational system's owner index: every sign
// probe then takes the probe-every-table fallback.
func forgetOwners(t *testing.T, sys *xmlac.System) {
	t.Helper()
	var ids []int64
	for _, n := range sys.Document().Elements() {
		ids = append(ids, n.ID)
	}
	m := sys.Engine().(store.Relational).Mapping()
	m.ForgetOwner(ids...)
	if owned, _ := m.GroupByOwner(ids); len(owned) != 0 {
		t.Fatalf("owner index still routes %d tables", len(owned))
	}
}

// TestOptimizedRequestPathsMatchReference is the golden matrix: document ×
// semantics × relational backend × request path, every outcome
// byte-identical to the emptied-owner-index reference.
func TestOptimizedRequestPathsMatchReference(t *testing.T) {
	modes := []struct {
		name string
		mod  func(*xmlac.Config)
	}{
		{"routed", nil},
		{"qcache", func(c *xmlac.Config) { c.QueryCache = true }},
	}
	for _, fx := range requestFixtures() {
		for _, sem := range semantics {
			for _, b := range []xmlac.Backend{xmlac.BackendColumn, xmlac.BackendVector, xmlac.BackendRow} {
				t.Run(fx.name+"/"+sem.name+"/"+b.String(), func(t *testing.T) {
					ref := buildRequestSystem(t, fx, sem.def, sem.conflict, b, nil)
					forgetOwners(t, ref)
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
					for _, m := range modes {
						sys := buildRequestSystem(t, fx, sem.def, sem.conflict, b, m.mod)
						for i, q := range fx.queries {
							if got := observe(t, sys, q); !got.equal(want[i]) {
								t.Errorf("%s: query %s: got %+v, want %+v", m.name, q, got, want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestCachedNativeRequestsMatchReference runs the same matrix for the
// native backend's query-cache path.
func TestCachedNativeRequestsMatchReference(t *testing.T) {
	for _, fx := range requestFixtures() {
		for _, sem := range semantics {
			t.Run(fx.name+"/"+sem.name, func(t *testing.T) {
				ref := buildRequestSystem(t, fx, sem.def, sem.conflict, xmlac.BackendNative, nil)
				cached := buildRequestSystem(t, fx, sem.def, sem.conflict, xmlac.BackendNative,
					func(c *xmlac.Config) { c.QueryCache = true })
				for _, q := range fx.queries {
					want := observe(t, ref, q)
					if got := observe(t, cached, q); !got.equal(want) {
						t.Errorf("query %s: got %+v, want %+v", q, got, want)
					}
				}
			})
		}
	}
}

// TestCachedRequestsSurviveUpdates checks the cache's version-stamp
// invalidation: after a delete update, cached answers must match a
// cache-less system that saw the same update.
func TestCachedRequestsSurviveUpdates(t *testing.T) {
	fx := requestFixtures()[0] // hospital
	del := xmlac.MustParseXPath("//patient/treatment")
	for _, b := range []xmlac.Backend{xmlac.BackendNative, xmlac.BackendColumn, xmlac.BackendVector, xmlac.BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			ref := buildRequestSystem(t, fx, xmlac.Deny, xmlac.Deny, b, nil)
			cached := buildRequestSystem(t, fx, xmlac.Deny, xmlac.Deny, b,
				func(c *xmlac.Config) { c.QueryCache = true })
			// Warm the cache, then invalidate it with an update.
			if _, err := cached.Request(fx.queries[0]); err != nil && err.Error() == "" {
				t.Fatal(err)
			}
			if _, err := ref.DeleteAndReannotate(del); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.DeleteAndReannotate(del); err != nil {
				t.Fatal(err)
			}
			for _, q := range fx.queries {
				want := observe(t, ref, q)
				if got := observe(t, cached, q); !got.equal(want) {
					t.Errorf("query %s: got %+v, want %+v", q, got, want)
				}
			}
		})
	}
}
