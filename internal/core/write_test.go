package core

import (
	"errors"
	"fmt"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Tests for update access control (the paper's future-work extension):
// write rules in the policy, enforced on the fly before updates apply.

const writePolicy = `
default deny
conflict deny
rule R1 allow //patient
rule R2 allow //patient/name
rule R3 deny //patient[treatment]
rule R6 allow //regular
rule W1 allow write //treatment
rule W2 allow write //regular
rule W3 deny write //treatment[experimental]
rule W4 allow write //patient
`

func newWriteSystem(t *testing.T, b Backend, enforce bool) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Schema:       hospital.Schema(),
		Policy:       policy.MustParse(writePolicy),
		Backend:      b,
		Optimize:     true,
		EnforceWrite: enforce,
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

func TestWriteRulesSeparatedFromReadPolicy(t *testing.T) {
	sys := newWriteSystem(t, BackendNative, true)
	// The annotation policy must only contain read rules.
	for _, r := range sys.Policy().Rules {
		if r.Action != policy.ActionRead {
			t.Fatalf("write rule %s leaked into the read policy", r.Name)
		}
	}
	if got := len(sys.WritePolicy().Rules); got != 4 {
		t.Fatalf("write rules = %d", got)
	}
}

// TestWriteRulesDontAffectAnnotation: annotations under the write-extended
// policy equal those under the plain read policy.
func TestWriteRulesDontAffectAnnotation(t *testing.T) {
	withWrite := newWriteSystem(t, BackendNative, true)
	plain, err := NewSystem(Config{
		Schema:  hospital.Schema(),
		Policy:  policy.MustParse(writePolicy).ForAction(policy.ActionRead),
		Backend: BackendNative, Optimize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Load(hospital.Document()); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Annotate(); err != nil {
		t.Fatal(err)
	}
	a, _ := withWrite.AccessibleIDs()
	b, _ := plain.AccessibleIDs()
	if len(a) != len(b) {
		t.Fatalf("annotations differ: %d vs %d", len(a), len(b))
	}
}

func TestDeleteAllowedByWriteRules(t *testing.T) {
	for _, b := range allBackends {
		sys := newWriteSystem(t, b, true)
		// W2 allows deleting regular treatments.
		rep, err := sys.DeleteAndReannotate(xpath.MustParse("//regular"))
		if err != nil {
			t.Fatalf("backend %v: %v", b, err)
		}
		if rep.DeletedNodes == 0 {
			t.Fatalf("backend %v: nothing deleted", b)
		}
	}
}

func TestDeleteDeniedByWriteRules(t *testing.T) {
	for _, b := range allBackends {
		sys := newWriteSystem(t, b, true)
		// W3 denies updating treatments with an experimental child; the
		// second patient's treatment is in its scope, so the blanket delete
		// of //treatment must be rejected wholesale.
		if _, err := sys.DeleteAndReannotate(xpath.MustParse("//treatment")); !errors.Is(err, ErrUpdateDenied) {
			t.Fatalf("backend %v: expected ErrUpdateDenied, got %v", b, err)
		}
		// Nothing must have been applied.
		if got := len(sys.Document().ElementsByLabel("treatment")); got != 2 {
			t.Fatalf("backend %v: treatments = %d after denied update", b, got)
		}
		// The baseline path enforces too.
		if _, err := sys.DeleteAndFullAnnotate(xpath.MustParse("//treatment")); !errors.Is(err, ErrUpdateDenied) {
			t.Fatalf("backend %v: full-annotate path not enforced: %v", b, err)
		}
	}
}

func TestDeleteDefaultDenyWithoutRules(t *testing.T) {
	sys := newWriteSystem(t, BackendNative, true)
	// No write rule covers psn; write default semantics is deny.
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/psn")); !errors.Is(err, ErrUpdateDenied) {
		t.Fatalf("expected ErrUpdateDenied, got %v", err)
	}
}

func TestInsertWriteCheckOnParents(t *testing.T) {
	sys := newWriteSystem(t, BackendNative, true)
	tmpl := xmltree.NewSubtree("treatment")
	// W4 allows updating patient nodes, so inserting under patients is
	// permitted.
	if _, err := sys.InsertAndReannotate(xpath.MustParse(`//patient[psn = "099"]`), tmpl); err != nil {
		t.Fatalf("insert under patient: %v", err)
	}
	// staffinfo has no write rule: denied.
	staff := xmltree.NewSubtree("staff")
	n := xmltree.AddTemplateChild(staff, "nurse")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(n, "sid"), "s1")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(n, "name"), "x")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(n, "phone"), "555")
	if _, err := sys.InsertAndReannotate(xpath.MustParse("//staffinfo"), staff); !errors.Is(err, ErrUpdateDenied) {
		t.Fatalf("expected ErrUpdateDenied, got %v", err)
	}
}

// TestRejectedWriteKeepsCaches: a write that is denied, or fails before it
// changes the tree, leaves the version alone, so the next read is served
// from what the last read built — the rewriter's scope sets, or the CAM of
// the query cache under signs — instead of rebuilding it.
func TestRejectedWriteKeepsCaches(t *testing.T) {
	staff := xmltree.NewSubtree("staff")
	nurse := xmltree.AddTemplateChild(staff, "nurse")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(nurse, "sid"), "s1")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(nurse, "name"), "x")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(nurse, "phone"), "555")
	for _, mode := range []EnforceMode{EnforceSigns, EnforceRewrite} {
		for _, b := range []Backend{BackendNative, BackendColumn} {
			t.Run(fmt.Sprintf("%v/%v", mode, b), func(t *testing.T) {
				reg := obs.NewRegistry()
				sys, err := NewSystem(Config{
					Schema: hospital.Schema(), Policy: policy.MustParse(writePolicy),
					Backend: b, Optimize: true, EnforceWrite: true, QueryCache: true,
					Enforce: mode, Metrics: reg,
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
				q := xpath.MustParse("//patient/name")
				read := func() {
					if _, err := sys.Request(q); err != nil && !errors.Is(err, ErrAccessDenied) {
						t.Fatal(err)
					}
				}
				read()
				rebuilds := reg.Counter("core_rewrite_scope_rebuilds_total")
				misses := reg.Counter("core_qcache_misses_total")
				version, r0, m0 := sys.Version(), rebuilds.Value(), misses.Value()

				if _, err := sys.InsertAndReannotate(xpath.MustParse("//staffinfo"), staff); !errors.Is(err, ErrUpdateDenied) {
					t.Fatalf("insert under staffinfo: err = %v, want ErrUpdateDenied", err)
				}
				if _, err := sys.DeleteAndReannotate(xpath.MustParse("//treatment")); !errors.Is(err, ErrUpdateDenied) {
					t.Fatalf("delete of //treatment: err = %v, want ErrUpdateDenied", err)
				}
				if _, err := sys.InsertAndReannotate(xpath.MustParse("//patient"), nil); err == nil {
					t.Fatal("insert of a nil template succeeded")
				}
				if v := sys.Version(); v != version {
					t.Fatalf("version %d -> %d across rejected writes", version, v)
				}
				read()
				if r, m := rebuilds.Value(), misses.Value(); r != r0 || m != m0 {
					t.Fatalf("scope rebuilds %d -> %d, CAM misses %d -> %d after rejected writes", r0, r, m0, m)
				}
			})
		}
	}
}

func TestEnforceWriteOff(t *testing.T) {
	sys := newWriteSystem(t, BackendNative, false)
	// Without enforcement the same denied update goes through (the paper's
	// original read-only model).
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//treatment")); err != nil {
		t.Fatalf("unenforced delete failed: %v", err)
	}
}

func TestWriteAllowDefault(t *testing.T) {
	pol := policy.MustParse(`
default allow
conflict deny
rule W1 deny write //experimental
`)
	sys, err := NewSystem(Config{
		Schema: hospital.Schema(), Policy: pol,
		Backend: BackendNative, Optimize: true, EnforceWrite: true,
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
	// Allowed by the allow default.
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//regular")); err != nil {
		t.Fatalf("default-allow delete failed: %v", err)
	}
	// Denied by W1.
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//experimental")); !errors.Is(err, ErrUpdateDenied) {
		t.Fatalf("expected ErrUpdateDenied, got %v", err)
	}
}

func TestWritePolicyParseRoundTrip(t *testing.T) {
	p := policy.MustParse(writePolicy)
	if !p.HasWriteRules() {
		t.Fatal("write rules not detected")
	}
	p2, err := policy.Parse(p.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, p.String())
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip:\n%s\nvs\n%s", p.String(), p2.String())
	}
	// Write rule count preserved.
	if got := len(p2.ForAction(policy.ActionWrite).Rules); got != 4 {
		t.Fatalf("write rules after round trip = %d", got)
	}
}

// TestWriteSemanticsAction: the write semantics follow Table 2 with write
// rules only.
func TestWriteSemanticsAction(t *testing.T) {
	doc := hospital.Document()
	p := policy.MustParse(writePolicy)
	sem, err := p.SemanticsAction(doc, policy.ActionWrite)
	if err != nil {
		t.Fatal(err)
	}
	// W1 allows treatments except (W3) those with experimental children.
	treatments := doc.ElementsByLabel("treatment")
	if len(treatments) != 2 {
		t.Fatal("fixture drifted")
	}
	// First patient's treatment (regular): updatable; second (experimental): not.
	if !sem[treatments[0].ID] || sem[treatments[1].ID] {
		t.Fatalf("write semantics wrong: %v %v", sem[treatments[0].ID], sem[treatments[1].ID])
	}
	// Read semantics are untouched by write rules.
	read, err := p.Semantics(doc)
	if err != nil {
		t.Fatal(err)
	}
	for id := range read {
		n := doc.NodeByID(id)
		if n != nil && n.Label == "treatment" {
			t.Fatal("treatment readable only via write rule — actions leaked")
		}
	}
}
