package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/shred"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// flatSystem builds an annotated system over a flat document <r> with n <c/>
// children.
func flatSystem(t *testing.T, b Backend, n int, polText string) *System {
	t.Helper()
	schema := dtd.MustParse(`
<!ELEMENT r (c*)>
<!ELEMENT c EMPTY>
`)
	sys, err := NewSystem(Config{Schema: schema, Policy: policy.MustParse(polText), Backend: b, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var xml strings.Builder
	xml.WriteString("<r>")
	for i := 0; i < n; i++ {
		xml.WriteString("<c/>")
	}
	xml.WriteString("</r>")
	doc, err := xmltree.ParseString(xml.String())
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

// forgetOwners empties the owner index of a relational system, so every
// later sign write routes its ids by scanning every table: the reference
// the owner-routed writes must agree with.
func forgetOwners(t *testing.T, sys *System) {
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

const allowAllPolicy = `
default allow
conflict allow
rule R1 allow //r
`

const rootOnlyPolicy = `
default deny
conflict deny
rule R1 allow //r
`

// TestRequestLargeResultSortedIDs is the regression test for the former
// O(n²) insertion sort on large relational result sets: the ids must come
// back ascending and complete.
func TestRequestLargeResultSortedIDs(t *testing.T) {
	const n = 600
	for _, b := range []Backend{BackendColumn, BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			sys := flatSystem(t, b, n, allowAllPolicy)
			res, err := sys.Request(xpath.MustParse("//c"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Checked != n || len(res.IDs) != n {
				t.Fatalf("Checked = %d, len(IDs) = %d, want %d", res.Checked, len(res.IDs), n)
			}
			if !slices.IsSorted(res.IDs) {
				t.Error("IDs are not ascending")
			}
			var want []int64
			sys.Document().Walk(func(nd *xmltree.Node) bool {
				if nd.IsElement() && nd.Label == "c" {
					want = append(want, nd.ID)
				}
				return true
			})
			slices.Sort(want)
			if !slices.Equal(res.IDs, want) {
				t.Error("IDs do not match the document's c nodes")
			}
		})
	}
}

// TestRequestBatchBoundary exercises result sizes at the 256-id IN-batch
// boundary, granted and denied.
func TestRequestBatchBoundary(t *testing.T) {
	for _, n := range []int{255, 256, 257} {
		for _, b := range []Backend{BackendColumn, BackendRow} {
			t.Run(fmt.Sprintf("%s/n=%d/granted", b, n), func(t *testing.T) {
				sys := flatSystem(t, b, n, allowAllPolicy)
				res, err := sys.Request(xpath.MustParse("//c"))
				if err != nil {
					t.Fatal(err)
				}
				if res.Checked != n || len(res.IDs) != n {
					t.Errorf("Checked = %d, len(IDs) = %d, want %d", res.Checked, len(res.IDs), n)
				}
			})
			t.Run(fmt.Sprintf("%s/n=%d/denied", b, n), func(t *testing.T) {
				sys := flatSystem(t, b, n, rootOnlyPolicy)
				_, err := sys.Request(xpath.MustParse("//c"))
				if !errors.Is(err, ErrAccessDenied) {
					t.Fatalf("err = %v, want ErrAccessDenied", err)
				}
				// The denial must name the smallest denied id so the
				// optimized paths stay byte-identical to the reference.
				var smallest int64
				sys.Document().Walk(func(nd *xmltree.Node) bool {
					if nd.IsElement() && nd.Label == "c" && (smallest == 0 || nd.ID < smallest) {
						smallest = nd.ID
					}
					return true
				})
				want := fmt.Sprintf("node %d is not accessible", smallest)
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %q, want mention of %q", err, want)
				}
			})
		}
	}
}

// TestRequestCheckedDeduplicatesWitnesses pins the duplicate-id semantics:
// a translated qualifier query returns one row per witness, but Checked
// counts distinct matched nodes on every backend.
func TestRequestCheckedDeduplicatesWitnesses(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (p*)>
<!ELEMENT p (t*)>
<!ELEMENT t EMPTY>
`)
	const xml = `<r><p><t/><t/></p><p><t/><t/></p><p><t/><t/></p></r>`
	pol := `
default allow
conflict allow
rule R1 allow //r
`
	build := func(t *testing.T, b Backend) *System {
		t.Helper()
		sys, err := NewSystem(Config{Schema: schema, Policy: policy.MustParse(pol), Backend: b, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.ParseString(xml)
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
	q := xpath.MustParse("//p[t]")

	native := build(t, BackendNative)
	nres, err := native.Request(q)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Checked != 3 || len(nres.Nodes) != 3 {
		t.Fatalf("native Checked = %d, len(Nodes) = %d, want 3", nres.Checked, len(nres.Nodes))
	}

	for _, b := range []Backend{BackendColumn, BackendRow} {
		for _, name := range []string{"reference", "routed"} {
			t.Run(b.String()+"/"+name, func(t *testing.T) {
				sys := build(t, b)
				if name == "reference" {
					forgetOwners(t, sys)
				}
				// The raw translated SQL really does return duplicate rows
				// (one per witness t); that is what Checked must not count.
				rel := sys.Engine().(store.Relational)
				sqlText, err := shred.Translate(rel.Mapping(), q)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := rel.DB().Exec(sqlText)
				if err != nil {
					t.Fatal(err)
				}
				if len(raw.Rows) != 6 {
					t.Fatalf("raw SQL rows = %d, want 6 (2 witnesses per p)", len(raw.Rows))
				}
				res, err := sys.Request(q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Checked != 3 || len(res.IDs) != 3 {
					t.Errorf("Checked = %d, len(IDs) = %d, want 3", res.Checked, len(res.IDs))
				}
				if res.Checked != nres.Checked {
					t.Errorf("relational Checked %d != native Checked %d", res.Checked, nres.Checked)
				}
			})
		}
	}
}

// TestRequestSpanOutcomesAndModes checks a relational request's spans in
// both enforcement modes: the request span names the mode, and the
// check-access span records the outcome of the one sign check (signs) or
// of the decision-set check, which names itself (rewrite).
func TestRequestSpanOutcomesAndModes(t *testing.T) {
	granted := xpath.MustParse("//patient/name")
	denied := xpath.MustParse("//patient")

	for _, b := range []Backend{BackendColumn, BackendRow} {
		for _, mode := range []EnforceMode{EnforceSigns, EnforceRewrite} {
			t.Run(b.String()+"/"+mode.String(), func(t *testing.T) {
				col := &obs.Collector{}
				sys, err := NewSystem(Config{
					Schema:   hospital.Schema(),
					Policy:   policy.MustParse(table1Policy),
					Backend:  b,
					Optimize: true,
					Enforce:  mode,
					Tracer:   obs.NewTracer(col),
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
				// The rewriting check names its mode; the sign check is
				// the only other one and carries no mode.
				var checkMode any
				if mode == EnforceRewrite {
					checkMode = "rewrite"
				}

				for _, c := range []struct {
					q       *xpath.Path
					outcome string
				}{{granted, "granted"}, {denied, "denied"}} {
					col.Reset()
					_, err := sys.Request(c.q)
					if (err == nil) != (c.outcome == "granted") || (err != nil && !errors.Is(err, ErrAccessDenied)) {
						t.Fatalf("%s: err = %v, want %s", c.q, err, c.outcome)
					}
					req := col.Root("request")
					if got := req.Attr("enforce"); got != mode.String() {
						t.Errorf("%s: request enforce = %v, want %s", c.q, got, mode)
					}
					check := req.Child("check-access")
					if check == nil {
						t.Fatalf("%s: no check-access span", c.q)
					}
					if got := check.Attr("outcome"); got != c.outcome {
						t.Errorf("%s: outcome = %v, want %s", c.q, got, c.outcome)
					}
					if got := check.Attr("mode"); got != checkMode {
						t.Errorf("%s: check-access mode = %v, want %v", c.q, got, checkMode)
					}
				}
			})
		}
	}
}

// TestRoutedRequestsSurviveDeletes checks that the owner index keeps
// routing re-annotation's sign writes correctly after a delete drops ids
// from it: requests must then answer as on a reference system that saw
// the same update with its owner index emptied, so that its sign writes
// routed every id by scanning every table.
func TestRoutedRequestsSurviveDeletes(t *testing.T) {
	queries := []string{"//patient/name", "//patient", "//regular", "//doctor", "//treatment"}
	for _, b := range []Backend{BackendColumn, BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			build := func(forget bool) *System {
				sys, err := NewSystem(Config{
					Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy),
					Backend: b, Optimize: true,
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
				if forget {
					forgetOwners(t, sys)
				}
				return sys
			}
			ref, routed := build(true), build(false)
			var ids []int64
			for _, n := range routed.Document().Elements() {
				ids = append(ids, n.ID)
			}
			if _, unknown := routed.Engine().(store.Relational).Mapping().GroupByOwner(ids); len(unknown) != 0 {
				t.Fatalf("owner index does not route %d of %d ids after load", len(unknown), len(ids))
			}
			del := xpath.MustParse("//patient/treatment")
			if _, err := ref.DeleteAndReannotate(del); err != nil {
				t.Fatal(err)
			}
			if _, err := routed.DeleteAndReannotate(del); err != nil {
				t.Fatal(err)
			}
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				rres, rerr := ref.Request(q)
				ores, oerr := routed.Request(q)
				if (rerr == nil) != (oerr == nil) || (rerr != nil && rerr.Error() != oerr.Error()) {
					t.Errorf("%s: ref err %v, routed err %v", qs, rerr, oerr)
					continue
				}
				if rerr != nil {
					continue
				}
				if !slices.Equal(rres.IDs, ores.IDs) || rres.Checked != ores.Checked {
					t.Errorf("%s: ref (%v, %d) != routed (%v, %d)", qs, rres.IDs, rres.Checked, ores.IDs, ores.Checked)
				}
			}
		})
	}
}
