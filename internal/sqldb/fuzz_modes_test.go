// Enforcement-mode differential fuzzing. The engine differential fuzzer
// (fuzz_test.go) diffs the three SQL executors statement by statement;
// this file lifts the same idea one layer up and diffs the two
// *enforcement strategies* request by request: on every backend, the
// rewriting enforcer must answer a randomized XPath workload exactly as
// the materialized signs pipeline does — same grants, same checked
// counts, same id sets, same denial strings. It lives in package
// sqldb_test so it can drive the full core.System without an import
// cycle (core → store → sqldb).
package sqldb_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlac/internal/core"
	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

const modeFuzzRules = `
rule R1 allow //patient
rule R2 allow //patient/name
rule R3 deny //patient[treatment]
rule R4 allow //patient[treatment]/name
rule R5 deny //patient[.//experimental]
rule R6 allow //regular
rule R7 allow //regular[med = "celecoxib"]
rule R8 allow //regular[bill > 1000]
`

var modeFuzzBackends = []core.Backend{core.BackendNative, core.BackendRow, core.BackendColumn, core.BackendVector}

// fuzzLabels are the hospital element vocabulary plus the wildcard; the
// generator draws steps from it so queries hit real, empty and mixed
// scopes alike.
var fuzzLabels = []string{
	"hospital", "dept", "patients", "staffinfo", "patient", "treatment",
	"regular", "experimental", "staff", "nurse", "doctor",
	"psn", "name", "med", "bill", "test", "sid", "phone", "*",
}

// randXPath generates one random absolute query: 1–4 child or descendant
// steps over the hospital vocabulary with occasional existence and value
// predicates — enough variety to stress both the relational translation
// and the rewriter's scope algebra.
func randXPath(r *rand.Rand) string {
	var b strings.Builder
	steps := 1 + r.Intn(4)
	for i := 0; i < steps; i++ {
		if r.Intn(2) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(fuzzLabels[r.Intn(len(fuzzLabels))])
		switch r.Intn(8) {
		case 0:
			b.WriteString("[" + fuzzLabels[r.Intn(len(fuzzLabels)-1)] + "]")
		case 1:
			b.WriteString(fmt.Sprintf("[bill > %d]", r.Intn(3000)))
		case 2:
			b.WriteString(`[med = "celecoxib"]`)
		}
	}
	return b.String()
}

// renderModeDecision flattens a request outcome for comparison; errors
// compare by full text, grants by checked count plus the relational id
// vector and native node identities.
func renderModeDecision(res *core.RequestResult, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checked=%d ids=%v", res.Checked, res.IDs)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, " node=%d(%s)", n.ID, n.Label)
	}
	return b.String()
}

// randWrite draws one write against the hospital document: delete a
// patient, its treatment or every node of a treatment kind, or insert a
// regular, experimental or empty treatment under a patient. It returns
// the write's description and the call that applies it to a system.
func randWrite(r *rand.Rand, doc *xmltree.Document) (string, func(*core.System) error) {
	patients := doc.ElementsByLabel("patient")
	if len(patients) == 0 {
		return "noop", func(*core.System) error { return nil }
	}
	psn := patients[r.Intn(len(patients))].ChildElements()[0].TextContent()
	patient := `//patient[psn = "` + psn + `"]`
	del := func(u string) (string, func(*core.System) error) {
		return "delete " + u, func(sys *core.System) error {
			_, err := sys.DeleteAndReannotate(xpath.MustParse(u))
			return err
		}
	}
	switch r.Intn(6) {
	case 0:
		return del(patient)
	case 1:
		return del(patient + "/treatment")
	case 2:
		return del([]string{"//experimental", `//regular[med = "celecoxib"]`, "//regular[bill > 1000]"}[r.Intn(3)])
	}
	tr := xmltree.NewSubtree("treatment")
	switch r.Intn(3) {
	case 0:
		reg := xmltree.AddTemplateChild(tr, "regular")
		xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "med"), []string{"celecoxib", "ibuprofen"}[r.Intn(2)])
		xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "bill"), fmt.Sprint(100+r.Intn(2000)))
	case 1:
		exp := xmltree.AddTemplateChild(tr, "experimental")
		xmltree.AddTemplateText(xmltree.AddTemplateChild(exp, "test"), "gene therapy")
		xmltree.AddTemplateText(xmltree.AddTemplateChild(exp, "bill"), fmt.Sprint(100+r.Intn(2000)))
	}
	return "insert treatment under " + patient, func(sys *core.System) error {
		_, err := sys.InsertAndReannotate(xpath.MustParse(patient), tr)
		return err
	}
}

// TestModeDifferentialFuzz replays randomized query workloads over
// randomized documents and semantics, with random inserts and deletes
// between its query batches, and requires every backend's rewrite-mode
// answer to be byte-identical to its signs-mode answer — and the three
// relational engines to agree with each other within each mode.
func TestModeDifferentialFuzz(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		doc := hospital.Generate(hospital.GenOptions{
			Seed: uint64(seed), Departments: 1 + r.Intn(2),
			PatientsPerDept: 4 + r.Intn(8), StaffPerDept: 1 + r.Intn(3),
		})
		ds := []policy.Effect{policy.Allow, policy.Deny}[r.Intn(2)]
		cr := []policy.Effect{policy.Allow, policy.Deny}[r.Intn(2)]
		pol := policy.MustParse(modeFuzzRules)
		pol.Default, pol.Conflict = ds, cr

		type pair struct{ signs, rewrite *core.System }
		systems := map[core.Backend]pair{}
		for _, b := range modeFuzzBackends {
			var p pair
			for _, mode := range []core.EnforceMode{core.EnforceSigns, core.EnforceRewrite} {
				sys, err := core.NewSystem(core.Config{
					Schema: hospital.Schema(), Policy: pol.Clone(),
					Backend: b, Optimize: true, Enforce: mode,
				})
				if err != nil {
					t.Fatalf("seed %d backend %v mode %v: %v", seed, b, mode, err)
				}
				if err := sys.Load(doc.Clone()); err != nil {
					t.Fatal(err)
				}
				if mode == core.EnforceSigns {
					if _, err := sys.Annotate(); err != nil {
						t.Fatal(err)
					}
					p.signs = sys
				} else {
					p.rewrite = sys
				}
			}
			systems[b] = p
		}

		write := "none"
		for i := 0; i < 50; i++ {
			if i > 0 && i%10 == 0 {
				var apply func(*core.System) error
				write, apply = randWrite(r, systems[core.BackendNative].rewrite.Document())
				for _, b := range modeFuzzBackends {
					for _, sys := range []*core.System{systems[b].signs, systems[b].rewrite} {
						if err := apply(sys); err != nil {
							t.Fatalf("seed %d backend %v %s: %v", seed, b, write, err)
						}
					}
				}
			}
			qs := randXPath(r)
			q, err := xpath.Parse(qs)
			if err != nil {
				continue // generator produced something the parser rejects
			}
			// Relational engines must also agree with each other per mode.
			var relSigns, relRewrite string
			for _, b := range modeFuzzBackends {
				p := systems[b]
				sres, serr := p.signs.Request(q)
				rres, rerr := p.rewrite.Request(q)
				signs, rewrite := renderModeDecision(sres, serr), renderModeDecision(rres, rerr)
				if signs != rewrite {
					t.Fatalf("seed %d ds=%v cr=%v backend %v query %s after %s:\n  signs   %s\n  rewrite %s",
						seed, ds, cr, b, qs, write, signs, rewrite)
				}
				if b == core.BackendNative {
					continue
				}
				if relSigns == "" {
					relSigns, relRewrite = signs, rewrite
					continue
				}
				if signs != relSigns || rewrite != relRewrite {
					t.Fatalf("seed %d query %s after %s: relational engines diverge on %v:\n  %s\n  %s",
						seed, qs, write, b, relSigns, signs)
				}
			}
		}
	}
}
