package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmlac/internal/audit"
	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// The cross-mode golden equivalence suite: for every Table 2 semantics,
// every fixture and every registered backend, the rewriting enforcer must
// answer each request byte-identically to the materialized (signs)
// pipeline — the same granted ids/nodes in the same order, the same
// Checked count, and on denial the very same error string naming the
// same first inaccessible node. This is the refactor's safety net: the
// seam may change *how* the decision is made, never *what* is decided.

// crossModeQueries are the per-fixture request workloads. They mix clear
// grants, clear denials and queries whose outcome flips with the
// semantics, plus qualifier and value predicates so the relational
// translation is exercised too.
var crossModeQueries = map[string][]string{
	"hospital": {
		"/hospital/dept/patients/patient",
		"//patient/name",
		"//name",
		"//regular",
		"//regular/med",
		"//patient[treatment]",
		"//patient[.//experimental]",
		"//experimental",
		"//bill",
		"//treatment/regular",
		`//regular[med = "celecoxib"]`,
		"//staff",
	},
	"xmark": {
		"//person/name",
		"//person",
		"//creditcard",
		"//closed_auction",
		"//closed_auction/price",
		"//item/name",
		"//open_auction",
		"//person[creditcard]",
	},
}

// renderDecision serializes one request outcome for byte comparison:
// error string on denial/failure, otherwise checked count, relational
// ids and native node identities in answer order.
func renderDecision(res *RequestResult, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checked=%d", res.Checked)
	if len(res.IDs) > 0 {
		fmt.Fprintf(&b, " ids=%v", res.IDs)
	}
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, " node=%d(%s)", n.ID, n.Label)
	}
	return b.String()
}

// TestCrossModeEquivalence builds a signs system and a rewrite system
// over the same document and diffs every query's rendered decision,
// across all four (ds, cr) semantics, both fixtures and all backends.
func TestCrossModeEquivalence(t *testing.T) {
	fixtures := []struct {
		name   string
		schema *dtd.Schema
		pol    string
		doc    *xmltree.Document
	}{
		{"hospital", hospital.Schema(), table1Policy,
			hospital.Generate(hospital.GenOptions{Seed: 21, Departments: 2, PatientsPerDept: 12, StaffPerDept: 4})},
		{"xmark", xmark.Schema(), xmarkTestPolicy,
			xmark.Generate(xmark.Options{Factor: 0.002, Seed: 3})},
	}
	for _, fx := range fixtures {
		for _, ds := range []policy.Effect{policy.Allow, policy.Deny} {
			for _, cr := range []policy.Effect{policy.Allow, policy.Deny} {
				for _, b := range allBackends {
					pol := policy.MustParse(fx.pol)
					pol.Default, pol.Conflict = ds, cr
					name := fmt.Sprintf("%s/ds=%v/cr=%v/%v", fx.name, ds, cr, b)
					t.Run(name, func(t *testing.T) {
						signs, err := NewSystem(Config{
							Schema: fx.schema, Policy: pol.Clone(),
							Backend: b, Optimize: true, Enforce: EnforceSigns,
						})
						if err != nil {
							t.Fatal(err)
						}
						if err := signs.Load(fx.doc.Clone()); err != nil {
							t.Fatal(err)
						}
						if _, err := signs.Annotate(); err != nil {
							t.Fatal(err)
						}
						rewrite, err := NewSystem(Config{
							Schema: fx.schema, Policy: pol.Clone(),
							Backend: b, Optimize: true, Enforce: EnforceRewrite,
						})
						if err != nil {
							t.Fatal(err)
						}
						if err := rewrite.Load(fx.doc.Clone()); err != nil {
							t.Fatal(err)
						}
						for _, qs := range crossModeQueries[fx.name] {
							q := xpath.MustParse(qs)
							sres, serr := signs.Request(q)
							rres, rerr := rewrite.Request(q)
							if got, want := renderDecision(rres, rerr), renderDecision(sres, serr); got != want {
								t.Errorf("query %s:\n  signs   %s\n  rewrite %s", qs, want, got)
							}
						}
						// The accessible universe must agree too.
						sids, err := signs.AccessibleIDs()
						if err != nil {
							t.Fatal(err)
						}
						rids, err := rewrite.AccessibleIDs()
						if err != nil {
							t.Fatal(err)
						}
						if len(sids) != len(rids) {
							t.Fatalf("accessible sets diverge: signs %d, rewrite %d", len(sids), len(rids))
						}
						for id := range sids {
							if !rids[id] {
								t.Fatalf("node %d accessible under signs but not rewrite", id)
							}
						}
					})
				}
			}
		}
	}
}

// partsDTD is a recursive schema — part contains part — that the
// materialized pipeline cannot serve: schema-aware pattern expansion of
// the annotation queries does not terminate, and the shredder cannot
// assign elements to finitely many tables. Rewriting enforcement needs
// neither, so the native backend serves it in rewrite mode.
const partsDTD = `
<!ELEMENT parts (part*)>
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
`

const partsDoc = `<parts>
  <part><name>engine</name>
    <part><name>piston</name>
      <part><name>ring</name></part>
    </part>
  </part>
  <part><name>wheel</name></part>
</parts>`

const partsPolicy = `
default deny
conflict deny
rule names allow //name
rule parts allow //part
rule secret deny //part[name = "piston"]
`

// TestRecursiveSchemaOnlyRewrite is the capability split the planner
// encodes: a recursive DTD is served by the rewriting path and refused
// by the materialized one.
func TestRecursiveSchemaOnlyRewrite(t *testing.T) {
	schema := dtd.MustParse(partsDTD)
	pol := policy.MustParse(partsPolicy)

	// Signs mode must refuse at construction, naming the cycle.
	_, err := NewSystem(Config{Schema: schema, Policy: pol.Clone(), Backend: BackendNative, Enforce: EnforceSigns})
	if err == nil {
		t.Fatal("signs mode accepted a recursive schema")
	}
	if !strings.Contains(err.Error(), "recursive schema") {
		t.Fatalf("signs-mode error = %v, want recursive-schema refusal", err)
	}

	// Relational backends fail earlier still: the shredder cannot map a
	// recursive DTD to tables, regardless of enforcement mode.
	if _, err := NewSystem(Config{Schema: schema, Policy: pol.Clone(), Backend: BackendRow, Enforce: EnforceRewrite}); err == nil {
		t.Fatal("relational backend accepted a recursive schema")
	}

	// Auto mode on the native backend plans rewriting and serves reads.
	sys, err := NewSystem(Config{Schema: schema, Policy: pol.Clone(), Backend: BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	plan := sys.Plan()
	if plan.Mode != EnforceRewrite || !plan.Recursive {
		t.Fatalf("plan = %+v, want rewrite mode on a recursive schema", plan)
	}
	if len(plan.Cycle) == 0 {
		t.Fatalf("plan reports no cycle: %+v", plan)
	}
	doc, err := xmltree.ParseString(partsDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if res, err := sys.Request(xpath.MustParse("//name")); err != nil {
		t.Fatalf("//name: %v", err)
	} else if res.Checked != 4 {
		t.Fatalf("//name checked = %d, want 4", res.Checked)
	}
	// //part touches the denied piston part: all-or-nothing denial.
	_, err = sys.Request(xpath.MustParse("//part"))
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("//part err = %v, want DeniedError", err)
	}
	if denied.Label != "part" {
		t.Fatalf("denied node label = %q, want part", denied.Label)
	}
	// The accessible universe is derivable with no signs anywhere.
	ids, err := sys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	var names, parts int
	for id := range ids {
		switch doc.NodeByID(id).Label {
		case "name":
			names++
		case "part":
			parts++
		}
	}
	if names != 4 || parts != 3 {
		t.Fatalf("accessible names=%d parts=%d, want 4 and 3 (piston denied)", names, parts)
	}
}

// TestStaticDenyFastPath is the instant-refusal contract: a query the
// enforceability checker proves denied is refused before the system read
// lock and before any engine dispatch — it works on a system with no
// document loaded, returns the typed DeniedError carrying the query, and
// lands in the audit trail as mode "static-deny".
func TestStaticDenyFastPath(t *testing.T) {
	log := audit.NewLog(0)
	sys, err := NewSystem(Config{
		Schema:  hospital.Schema(),
		Policy:  policy.MustParse(table1Policy),
		Backend: BackendNative,
		Audit:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	// /hospital/dept/patients is a required child chain (guaranteed to
	// match) disjoint from every allow scope; under ds=deny it is denied
	// on every schema-valid document.
	q := xpath.MustParse("/hospital/dept/patients")
	if v := sys.ClassifyQuery(q); v != pattern.StaticDeny {
		t.Fatalf("verdict = %v, want deny", v)
	}

	// No document is loaded: only a path that never reaches the store can
	// answer at all.
	_, err = sys.Request(q)
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %v, want DeniedError", err)
	}
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v, want ErrAccessDenied", err)
	}
	if denied.Query != q.String() || denied.ID != 0 {
		t.Fatalf("denial = %+v, want static (query set, no node)", denied)
	}
	wantMsg := "core: access denied: query /hospital/dept/patients is statically denied by the policy"
	if err.Error() != wantMsg {
		t.Fatalf("error text = %q, want %q", err.Error(), wantMsg)
	}

	// The refusal is audited with the static-deny mode stamp.
	recent := log.Recent(1)
	if len(recent) != 1 {
		t.Fatal("no audit event recorded")
	}
	e := recent[0]
	if e.Kind != "request" || e.Outcome != audit.OutcomeDeny || e.Mode != "static-deny" {
		t.Fatalf("audit event = %+v, want request/deny/static-deny", e)
	}

	// The planner-decision counters saw it.
	st := sys.EnforcementStats()
	if st.StaticDenials == 0 {
		t.Fatalf("stats = %+v, want a static denial counted", st)
	}
	if st.Requests["static-deny/deny"] != 1 {
		t.Fatalf("requests = %v, want static-deny/deny = 1", st.Requests)
	}

	// A statically undecidable query still requires a loaded document —
	// proof the fast path, not the engine, answered above.
	if _, err := sys.Request(xpath.MustParse("//name")); err == nil ||
		!strings.Contains(err.Error(), "no document loaded") {
		t.Fatalf("dynamic query pre-load err = %v, want no-document error", err)
	}
}
