package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

var allBackends = []Backend{BackendNative, BackendRow, BackendColumn}

func newHospitalSystem(t *testing.T, b Backend, doc *xmltree.Document) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Schema:   hospital.Schema(),
		Policy:   policy.MustParse(table1Policy),
		Backend:  b,
		Optimize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	return sys
}

// accessibleLabels projects an id set to label:text strings for readable
// assertions.
func accessibleLabels(doc *xmltree.Document, ids map[int64]bool) map[string]bool {
	out := map[string]bool{}
	doc.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && ids[n.ID] {
			out[n.Label+":"+n.TextContent()] = true
		}
		return true
	})
	return out
}

// TestAnnotateFigure2 annotates the motivating document on every backend
// and checks the accessible set against the annotated document of Figure 2.
func TestAnnotateFigure2(t *testing.T) {
	want := map[string]bool{
		"name:john doe":         true,
		"name:jane doe":         true,
		"name:joy smith":        true,
		"regular:enoxaparin700": true,
		"patient:099joy smith":  true,
	}
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			sys := newHospitalSystem(t, b, hospital.Document())
			stats, err := sys.Annotate()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Updated != 5 {
				t.Fatalf("updated = %d, want 5", stats.Updated)
			}
			ids, err := sys.AccessibleIDs()
			if err != nil {
				t.Fatal(err)
			}
			got := accessibleLabels(sys.Document(), ids)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("accessible = %v", got)
			}
		})
	}
}

// TestBackendsAgree: all three backends compute the same accessible id set,
// which also equals the brute-force policy semantics.
func TestBackendsAgree(t *testing.T) {
	doc := hospital.Generate(hospital.GenOptions{Seed: 42, Departments: 2, PatientsPerDept: 20, StaffPerDept: 6})
	ref, err := policy.MustParse(table1Policy).Semantics(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBackends {
		sys := newHospitalSystem(t, b, doc.Clone())
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		ids, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, ref) {
			t.Fatalf("backend %v: %d accessible, reference %d", b, len(ids), len(ref))
		}
	}
}

// TestAllFourSemanticsAgreeAcrossBackends exercises every (ds, cr)
// combination against the brute-force reference on every backend.
func TestAllFourSemanticsAgreeAcrossBackends(t *testing.T) {
	doc := hospital.Generate(hospital.GenOptions{Seed: 9, Departments: 1, PatientsPerDept: 12, StaffPerDept: 4})
	for _, ds := range []policy.Effect{policy.Allow, policy.Deny} {
		for _, cr := range []policy.Effect{policy.Allow, policy.Deny} {
			pol := policy.MustParse(table1Policy)
			pol.Default, pol.Conflict = ds, cr
			ref, err := pol.Semantics(doc)
			if err != nil {
				t.Fatal(err)
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
					t.Fatalf("ds=%v cr=%v backend=%v: %d accessible, want %d", ds, cr, b, len(ids), len(ref))
				}
			}
		}
	}
}

// applyDelete removes the matches of u from doc the way a delete update
// does, building the reference document of a fresh annotation.
func applyDelete(t *testing.T, doc *xmltree.Document, u *xpath.Path) {
	t.Helper()
	matches, err := xpath.Eval(u, doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deleteNodes(doc, u, matches); err != nil {
		t.Fatal(err)
	}
}

// freshAnnotatedIDs computes the ground truth after an update: annotate the
// updated document from scratch with a brand-new system.
func freshAnnotatedIDs(t *testing.T, b Backend, doc *xmltree.Document) map[int64]bool {
	t.Helper()
	sys := newHospitalSystem(t, b, doc)
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	ids, err := sys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestReannotationEquivalentToFull is invariant 4 of DESIGN.md: for a batch
// of delete updates, partial re-annotation leaves the stores in exactly the
// state a from-scratch annotation of the updated document produces.
func TestReannotationEquivalentToFull(t *testing.T) {
	updates := []string{
		"//patient/treatment",
		"//treatment",
		"//regular",
		"//experimental",
		"//treatment/regular",
		"//patient[.//experimental]",
		"//patient[treatment]",
		"//patient",
		"//staff",
		"//regular[bill > 1000]",
		`//regular[med = "celecoxib"]`,
		"//patient/treatment/experimental",
	}
	for _, b := range allBackends {
		for _, u := range updates {
			t.Run(fmt.Sprintf("%v/%s", b, u), func(t *testing.T) {
				doc := hospital.Generate(hospital.GenOptions{Seed: 5, Departments: 2, PatientsPerDept: 12, StaffPerDept: 3})
				sys := newHospitalSystem(t, b, doc.Clone())
				if _, err := sys.Annotate(); err != nil {
					t.Fatal(err)
				}
				rep, err := sys.DeleteAndReannotate(xpath.MustParse(u))
				if err != nil {
					t.Fatal(err)
				}
				got, err := sys.AccessibleIDs()
				if err != nil {
					t.Fatal(err)
				}
				// Ground truth: fresh annotation of an identically updated doc.
				ref := doc.Clone()
				applyDelete(t, ref, xpath.MustParse(u))
				want := freshAnnotatedIDs(t, b, ref)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("update %s (triggered %v, deleted %d): reannotated %d accessible, fresh %d",
						u, rep.Triggered, rep.DeletedNodes, len(got), len(want))
				}
			})
		}
	}
}

// TestReannotationTreatmentScenario is the paper's walk-through: delete all
// treatments and the previously denied patients become accessible.
func TestReannotationTreatmentScenario(t *testing.T) {
	for _, b := range allBackends {
		sys := newHospitalSystem(t, b, hospital.Document())
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		// Before: only the third patient is accessible.
		ids, _ := sys.AccessibleIDs()
		if n := countLabel(sys.Document(), ids, "patient"); n != 1 {
			t.Fatalf("backend %v: accessible patients before = %d", b, n)
		}
		rep, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Triggered, []string{"R1", "R3", "R5"}) {
			t.Fatalf("backend %v: triggered = %v", b, rep.Triggered)
		}
		ids, _ = sys.AccessibleIDs()
		if n := countLabel(sys.Document(), ids, "patient"); n != 3 {
			t.Fatalf("backend %v: accessible patients after = %d", b, n)
		}
	}
}

func countLabel(doc *xmltree.Document, ids map[int64]bool, label string) int {
	n := 0
	for _, e := range doc.ElementsByLabel(label) {
		if ids[e.ID] {
			n++
		}
	}
	return n
}

// TestDeleteAndFullAnnotateBaseline: the baseline produces the same state
// as re-annotation (it is the ground truth), just slower.
func TestDeleteAndFullAnnotateBaseline(t *testing.T) {
	doc := hospital.Generate(hospital.GenOptions{Seed: 11, Departments: 1, PatientsPerDept: 10})
	a := newHospitalSystem(t, BackendNative, doc.Clone())
	bSys := newHospitalSystem(t, BackendNative, doc.Clone())
	if _, err := a.Annotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := bSys.Annotate(); err != nil {
		t.Fatal(err)
	}
	u := xpath.MustParse("//treatment")
	if _, err := a.DeleteAndReannotate(u); err != nil {
		t.Fatal(err)
	}
	if _, err := bSys.DeleteAndFullAnnotate(u); err != nil {
		t.Fatal(err)
	}
	idsA, _ := a.AccessibleIDs()
	idsB, _ := bSys.AccessibleIDs()
	if !reflect.DeepEqual(idsA, idsB) {
		t.Fatalf("reannotate and full annotate disagree: %d vs %d", len(idsA), len(idsB))
	}
}

// TestInsertAndReannotate grafts a treatment under the healthy patient; the
// patient must become inaccessible, exactly as a fresh annotation decides.
func TestInsertAndReannotate(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			sys := newHospitalSystem(t, b, hospital.Document())
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			tmpl := xmltree.NewSubtree("treatment")
			reg := xmltree.AddTemplateChild(tmpl, "regular")
			xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "med"), "ibuprofen")
			xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "bill"), "150")
			parent := xpath.MustParse(`//patient[psn = "099"]`)
			rep, err := sys.InsertAndReannotate(parent, tmpl)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Triggered) == 0 {
				t.Fatal("insert triggered no rules")
			}
			got, err := sys.AccessibleIDs()
			if err != nil {
				t.Fatal(err)
			}
			want := freshAnnotatedIDs(t, b, sys.Document().Clone())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("insert reannotation: %d accessible, fresh %d", len(got), len(want))
			}
			// The formerly accessible patient is now denied.
			ids, _ := sys.AccessibleIDs()
			if n := countLabel(sys.Document(), ids, "patient"); n != 0 {
				t.Fatalf("accessible patients after insert = %d", n)
			}
		})
	}
}

// TestInsertDocumentRootRefused: grafting the document's own root under one
// of its nodes fails before the tree changes, instead of copying a subtree
// into itself.
func TestInsertDocumentRootRefused(t *testing.T) {
	sys := newHospitalSystem(t, BackendNative, hospital.Document())
	before, version := sys.Document().String(), sys.Version()
	if _, err := sys.InsertAndReannotate(xpath.MustParse(`//patient[psn = "099"]`), sys.Document().Root()); err == nil {
		t.Fatal("inserting the root under a patient succeeded")
	}
	if sys.Document().String() != before || sys.Version() != version {
		t.Fatalf("a refused insert changed the document or moved the version from %d to %d", version, sys.Version())
	}
}

// TestRequestAllOrNothing checks the requester's semantics on each backend.
func TestRequestAllOrNothing(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			sys := newHospitalSystem(t, b, hospital.Document())
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			// All patient names are accessible: granted.
			res, err := sys.Request(xpath.MustParse("//patient/name"))
			if err != nil {
				t.Fatalf("names request denied: %v", err)
			}
			if res.Checked != 3 {
				t.Fatalf("checked = %d", res.Checked)
			}
			// Two of three patients are inaccessible: denied.
			if _, err := sys.Request(xpath.MustParse("//patient")); !errors.Is(err, ErrAccessDenied) {
				t.Fatalf("patient request: %v", err)
			}
			// psn values are never accessible: denied.
			if _, err := sys.Request(xpath.MustParse("//psn")); !errors.Is(err, ErrAccessDenied) {
				t.Fatalf("psn request: %v", err)
			}
			// The single regular node is accessible: granted.
			if _, err := sys.Request(xpath.MustParse("//regular")); err != nil {
				t.Fatalf("regular request denied: %v", err)
			}
			// Empty result: trivially granted.
			res, err = sys.Request(xpath.MustParse("//doctor"))
			if err != nil {
				t.Fatalf("empty request denied: %v", err)
			}
			if res.Checked != 0 {
				t.Fatalf("checked = %d", res.Checked)
			}
		})
	}
}

func TestCoverage(t *testing.T) {
	sys := newHospitalSystem(t, BackendNative, hospital.Document())
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	cov, err := sys.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	total := sys.Document().ElementCount()
	want := 5.0 / float64(total)
	if cov != want {
		t.Fatalf("coverage = %f, want %f", cov, want)
	}
}

func TestSystemConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewSystem(Config{Schema: hospital.Schema()}); err == nil {
		t.Error("missing policy accepted")
	}
	sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy)})
	if err != nil {
		t.Fatal(err)
	}
	// Operations before Load fail cleanly.
	if _, err := sys.Annotate(); err == nil {
		t.Error("annotate before load accepted")
	}
	if _, err := sys.Request(xpath.MustParse("//patient")); err == nil {
		t.Error("request before load accepted")
	}
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//treatment")); err == nil {
		t.Error("update before load accepted")
	}
	// Loading a non-conforming document fails.
	bad, _ := xmltree.ParseString(`<nothospital/>`)
	if err := sys.Load(bad); err == nil {
		t.Error("non-conforming document accepted")
	}
}

func TestSystemRejectsRootDeletion(t *testing.T) {
	sys := newHospitalSystem(t, BackendNative, hospital.Document())
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("/hospital")); err == nil {
		t.Fatal("root deletion accepted")
	}
}

// TestBackendNames: the backends are the store registry's names, the
// empty name selects the native store, and an unknown name fails in
// store.Open with the registered engines listed.
func TestBackendNames(t *testing.T) {
	names := map[Backend]string{BackendNative: "xquery", BackendRow: "postgres", BackendColumn: "monetsql"}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%q.String() = %q, want %q", string(b), b.String(), want)
		}
	}
	cfg := Config{Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy)}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Backend() != BackendNative || sys.Engine().Name() != "native" {
		t.Errorf("default backend = %q (engine %s), want %q", sys.Backend(), sys.Engine().Name(), BackendNative)
	}
	cfg.Backend = "oracle"
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), `unknown engine "oracle" (registered: `) {
		t.Errorf("unknown backend: err = %v", err)
	}
}

// TestOptimizeDisabled keeps all rules.
func TestOptimizeDisabled(t *testing.T) {
	sys, err := NewSystem(Config{Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy), Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Policy().Rules) != 8 || len(sys.RemovedRules()) != 0 {
		t.Fatalf("rules = %d removed = %d", len(sys.Policy().Rules), len(sys.RemovedRules()))
	}
}

// TestReannotationRepeatedUpdates chains several updates, checking
// equivalence with fresh annotation after each.
func TestReannotationRepeatedUpdates(t *testing.T) {
	for _, b := range allBackends {
		doc := hospital.Generate(hospital.GenOptions{Seed: 21, Departments: 2, PatientsPerDept: 10, StaffPerDept: 2})
		sys := newHospitalSystem(t, b, doc.Clone())
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		ref := doc.Clone()
		for _, u := range []string{"//experimental", "//regular[bill > 1000]", "//treatment", "//staff"} {
			if _, err := sys.DeleteAndReannotate(xpath.MustParse(u)); err != nil {
				t.Fatalf("backend %v update %s: %v", b, u, err)
			}
			applyDelete(t, ref, xpath.MustParse(u))
			got, err := sys.AccessibleIDs()
			if err != nil {
				t.Fatal(err)
			}
			want := freshAnnotatedIDs(t, b, ref.Clone())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("backend %v after %s: %d accessible, fresh %d", b, u, len(got), len(want))
			}
		}
	}
}

// TestRelationalUpdatesLeaveNoOpenTransaction: the atomic wrapping of the
// relational mutation phases must always commit on success, leaving the
// database ready for the next statement batch.
func TestRelationalUpdatesLeaveNoOpenTransaction(t *testing.T) {
	for _, b := range []Backend{BackendRow, BackendColumn} {
		sys := newHospitalSystem(t, b, hospital.Document())
		if _, err := sys.Annotate(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeleteAndReannotate(xpath.MustParse("//regular")); err != nil {
			t.Fatal(err)
		}
		if sys.Engine().InTransaction() {
			t.Fatalf("backend %v: transaction left open after reannotate", b)
		}
		if _, err := sys.DeleteAndFullAnnotate(xpath.MustParse("//experimental")); err != nil {
			t.Fatal(err)
		}
		if sys.Engine().InTransaction() {
			t.Fatalf("backend %v: transaction left open after full annotate", b)
		}
		tmpl := xmltree.NewSubtree("treatment")
		if _, err := sys.InsertAndReannotate(xpath.MustParse(`//patient[psn = "099"]`), tmpl); err != nil {
			t.Fatal(err)
		}
		if sys.Engine().InTransaction() {
			t.Fatalf("backend %v: transaction left open after insert", b)
		}
		// The stores still agree after the whole sequence.
		ids, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		want := freshAnnotatedIDs(t, b, sys.Document().Clone())
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("backend %v: %d accessible, fresh %d", b, len(ids), len(want))
		}
	}
}
