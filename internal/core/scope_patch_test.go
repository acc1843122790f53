package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// The write-sequence differential for the decision set's patching, under
// rewriting enforcement and under signs with the query cache: after every
// insert or delete, the allow/deny sets the write patched must equal a
// fresh EvalScope rebuild over the engine, without the rebuild counter
// moving, and the accessible set must equal the brute-force Table 2
// semantics of the updated document. Policies with a predicate on the
// root (or on a * step) put every write's region at the whole document;
// there the sets must be left stale and rebuilt by the next read instead.

// locator builds an absolute path selecting n: its label chain from the
// root, or just //label, narrowed most of the time by a value predicate
// on n's own text or on a leaf child's.
func locator(r *rand.Rand, n *xmltree.Node) *xpath.Path {
	var steps []*xpath.Step
	for m := n; m != nil; m = m.Parent() {
		steps = append([]*xpath.Step{{Axis: xpath.Child, Test: m.Label}}, steps...)
	}
	if len(steps) > 1 && r.Intn(3) == 0 {
		steps = []*xpath.Step{{Axis: xpath.Descendant, Test: n.Label}}
	}
	if p := valuePred(n); p != nil && r.Intn(4) != 0 {
		steps[len(steps)-1].Preds = []*xpath.Pred{p}
	}
	return &xpath.Path{Absolute: true, Steps: steps}
}

// valuePred is [. = "v"] for a text leaf and [c = "v"] for an element
// with a text-leaf child c; nil otherwise.
func valuePred(n *xmltree.Node) *xpath.Pred {
	leafText := func(m *xmltree.Node) (string, bool) {
		if len(m.ChildElements()) > 0 || len(m.Children()) == 0 {
			return "", false
		}
		return m.TextContent(), true
	}
	if v, ok := leafText(n); ok {
		return &xpath.Pred{Kind: xpath.Cmp, Path: &xpath.Path{}, Op: xpath.Eq, Value: xpath.Literal{Str: v}}
	}
	for _, c := range n.ChildElements() {
		if v, ok := leafText(c); ok {
			rel := &xpath.Path{Steps: []*xpath.Step{{Axis: xpath.Child, Test: c.Label}}}
			return &xpath.Pred{Kind: xpath.Cmp, Path: rel, Op: xpath.Eq, Value: xpath.Literal{Str: v}}
		}
	}
	return nil
}

// template copies n's subtree into a detached insert template.
func template(n *xmltree.Node) *xmltree.Node {
	out := xmltree.NewSubtree(n.Label)
	var copyKids func(src, dst *xmltree.Node)
	copyKids = func(src, dst *xmltree.Node) {
		for _, c := range src.Children() {
			if c.IsText() {
				xmltree.AddTemplateText(dst, c.Value)
				continue
			}
			copyKids(c, xmltree.AddTemplateChild(dst, c.Label))
		}
	}
	copyKids(n, out)
	return out
}

// subtreeSize counts the elements of n's subtree.
func subtreeSize(n *xmltree.Node) int {
	size := 0
	n.Walk(func(m *xmltree.Node) bool {
		if m.IsElement() {
			size++
		}
		return true
	})
	return size
}

// applyRandomWrite applies one seeded write: a delete of the subtrees a
// locator of a random element selects, or an insert of a copy of a small
// random subtree under the elements a locator of its parent selects —
// the copy keeps the schema's parent/child labels, so every engine can
// store it. It returns the write's description.
func applyRandomWrite(t *testing.T, r *rand.Rand, sys *System) string {
	t.Helper()
	elems := sys.Document().Elements()[1:]
	if len(elems) == 0 {
		t.Fatal("the writes emptied the document")
	}
	n := elems[r.Intn(len(elems))]
	if len(elems) > 8 && r.Intn(3) == 0 {
		// Deletes are kept small, so the inserts keep up with them.
		u := locator(r, n)
		matches, err := xpath.Eval(u, sys.Document())
		if err != nil {
			t.Fatal(err)
		}
		removed := 0
		for _, m := range matches {
			removed += subtreeSize(m)
		}
		if removed <= len(elems)/4 && matches[0] != sys.Document().Root() {
			if _, err := sys.DeleteAndReannotate(u); err != nil {
				t.Fatalf("delete %s: %v", u, err)
			}
			return "delete " + u.String()
		}
	}
	for subtreeSize(n) > 30 {
		n = n.ChildElements()[r.Intn(len(n.ChildElements()))]
	}
	parent := locator(r, n.Parent())
	if _, err := sys.InsertAndReannotate(parent, template(n)); err != nil {
		t.Fatalf("insert %s under %s: %v", n.Label, parent, err)
	}
	return "insert " + n.Label + " under " + parent.String()
}

// sameSet reports whether two id sets hold the same ids.
func sameSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func TestRewriteScopePatchDifferential(t *testing.T) {
	// signs reports whether signs enforcement can serve the fixture (its
	// schema is not recursive).
	fixtures := []struct {
		name     string
		schema   *dtd.Schema
		doc      func() *xmltree.Document
		pol      string
		backends []Backend
		signs    bool
	}{
		{"hospital", hospital.Schema(), func() *xmltree.Document {
			return hospital.Generate(hospital.GenOptions{Seed: 5, Departments: 2, PatientsPerDept: 8, StaffPerDept: 3})
		}, table1Policy, allBackends, true},
		{"xmark", xmark.Schema(), func() *xmltree.Document {
			return xmark.Generate(xmark.Options{Factor: 0.002, Seed: 9})
		}, xmarkTestPolicy, allBackends, true},
		{"parts", dtd.MustParse(partsDTD), func() *xmltree.Document {
			d, err := xmltree.ParseString(partsDoc)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}, partsPolicy, []Backend{BackendNative}, false},
	}
	// The fallback variants add one rule whose predicated step matches
	// the root element: by its label, or by a * test.
	variants := []struct {
		name     string
		rule     func(root string) string
		fallback bool
	}{
		{"patched", func(string) string { return "" }, false},
		{"root-predicate", func(root string) string { return "rule F1 deny /" + root + "[*]//name\n" }, true},
		{"wildcard-predicate", func(string) string { return "rule F2 allow //*[name]\n" }, true},
	}
	writes := 30
	if testing.Short() {
		writes = 10
	}
	// The signs input runs signs enforcement with the query cache, named
	// by a /signs-qcache suffix.
	for fi, fx := range fixtures {
		for vi, v := range variants {
			for _, b := range fx.backends {
				for _, mode := range []EnforceMode{EnforceRewrite, EnforceSigns} {
					if mode == EnforceSigns && !fx.signs {
						continue
					}
					name := fmt.Sprintf("%s/%s/%v", fx.name, v.name, b)
					if mode == EnforceSigns {
						name += "/signs-qcache"
					}
					t.Run(name, func(t *testing.T) {
						doc := fx.doc()
						checkScopePatches(t, fx.schema, doc, fx.pol+v.rule(doc.Root().Label), mode, b, v.fallback,
							rand.New(rand.NewSource(int64(100*fi+10*vi+int(b)))), writes)
					})
				}
			}
		}
	}
}

// checkScopePatches runs one TestRewriteScopePatchDifferential case;
// fallback marks a policy that puts every write's region at the whole
// document.
func checkScopePatches(t *testing.T, schema *dtd.Schema, doc *xmltree.Document, pol string, mode EnforceMode, b Backend,
	fallback bool, r *rand.Rand, writes int) {
	reg := obs.NewRegistry()
	sys, err := NewSystem(Config{
		Schema: schema, Policy: policy.MustParse(pol),
		Backend: b, Optimize: true, Enforce: mode, QueryCache: mode == EnforceSigns, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if got := sys.region.predAny || sys.region.predLabels[doc.Root().Label]; got != fallback {
		t.Fatalf("policy falls back = %v, want %v", got, fallback)
	}
	rebuilds := reg.Counter("core_rewrite_scope_rebuilds_total")
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	rw := sys.region.rw
	for i := 0; i < writes; i++ {
		before := rebuilds.Value()
		w := applyRandomWrite(t, r, sys)
		c := sys.dec.cur.Load()
		if patched := c.built == sys.version; patched == fallback {
			t.Fatalf("write %d (%s): sets patched = %v, want %v", i, w, patched, !fallback)
		}
		if !fallback {
			allow, err := sys.engine.EvalScope(scopeUnion(rw.Allow))
			if err != nil {
				t.Fatal(err)
			}
			deny, err := sys.engine.EvalScope(scopeUnion(rw.Deny))
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(c.allow, allow) || !sameSet(c.deny, deny) {
				t.Fatalf("write %d (%s): patched sets allow=%d deny=%d, rebuild allow=%d deny=%d",
					i, w, len(c.allow), len(c.deny), len(allow), len(deny))
			}
		}
		got, err := sys.AccessibleIDs()
		if err != nil {
			t.Fatal(err)
		}
		want := before
		if fallback {
			want++
		}
		if n := rebuilds.Value(); n != want {
			t.Fatalf("write %d (%s): %d scope rebuilds, want %d", i, w, n-before, want-before)
		}
		sem, err := sys.Policy().Semantics(sys.Document())
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(got, sem) {
			t.Fatalf("write %d (%s): %d accessible, the Table 2 semantics give %d", i, w, len(got), len(sem))
		}
	}
}

// xmarkC3Policy is the coverage dataset's mid policy c3 (internal/bench),
// the policy of the Fig. 12 workload and of the repository benchmark.
const xmarkC3Policy = `
default deny
conflict deny
rule g1a allow //closed_auction
rule g1b allow //closed_auction//*
rule g1c allow //category
rule g1d allow //category//*
rule g1e allow //edge
rule d1 deny //closed_auction[price > 400]
rule g2a allow //open_auction
rule g2b allow //open_auction/*
rule g2c allow //open_auction/annotation//*
rule g2d allow //interval/*
rule d2 deny //open_auction[privacy = "Yes"]
rule g3a allow //bidder//*
rule d3 deny //bidder[increase > 20]
`

// engineCounter counts the scope evaluations and full annotations an
// engine serves.
type engineCounter struct {
	store.Engine
	scopes, annotations int
}

func (c *engineCounter) EvalScope(x *store.SetExpr) (map[int64]bool, error) {
	c.scopes++
	return c.Engine.EvalScope(x)
}

func (c *engineCounter) Annotate(ctx context.Context, q store.AnnotationQuery) (store.AnnotateStats, error) {
	c.annotations++
	return c.Engine.Annotate(ctx, q)
}

// checkSigns fails unless the system's accessible set equals the Table 2
// semantics of its document, and its complete sign state equals what a
// fresh full annotation of the same store writes. (A fresh system over a
// clone would not do: random writes leave documents that Load rejects as
// schema-invalid.)
func checkSigns(t *testing.T, sys *System, what string) {
	t.Helper()
	got, err := sys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	sem, err := sys.Policy().Semantics(sys.Document())
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, sem) {
		t.Fatalf("%s: %d accessible, the Table 2 semantics give %d", what, len(got), len(sem))
	}
	maintained := signDump(t, sys)
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	if fresh := signDump(t, sys); fresh != maintained {
		t.Fatalf("%s: the maintained signs differ from a fresh annotation", what)
	}
}

// TestSignPatchDifferential is the signs-mode counterpart of
// TestRewriteScopePatchDifferential: after every seeded insert or delete,
// the maintained signs must equal the Table 2 semantics and a fresh
// annotation, and a write whose region is bounded must neither evaluate a
// rule scope nor annotate in full. Under the root-predicate and
// //*[…] variants every write's region is the whole document, and every
// write must annotate in full instead.
func TestSignPatchDifferential(t *testing.T) {
	fixtures := []struct {
		name   string
		schema *dtd.Schema
		doc    func() *xmltree.Document
		pol    string
	}{
		{"hospital", hospital.Schema(), func() *xmltree.Document {
			return hospital.Generate(hospital.GenOptions{Seed: 5, Departments: 2, PatientsPerDept: 8, StaffPerDept: 3})
		}, table1Policy},
		{"xmark", xmark.Schema(), func() *xmltree.Document {
			return xmark.Generate(xmark.Options{Factor: 0.002, Seed: 9})
		}, xmarkC3Policy},
	}
	variants := []struct {
		name     string
		rule     func(root string) string
		fallback bool
	}{
		{"patched", func(string) string { return "" }, false},
		{"root-predicate", func(root string) string { return "rule F1 deny /" + root + "[*]//name\n" }, true},
		{"wildcard-predicate", func(string) string { return "rule F2 allow //*[name]\n" }, true},
	}
	writes := 20
	if testing.Short() {
		writes = 8
	}
	for fi, fx := range fixtures {
		for vi, v := range variants {
			for _, b := range allBackends {
				t.Run(fmt.Sprintf("%s/%s/%v", fx.name, v.name, b), func(t *testing.T) {
					doc := fx.doc()
					sys, err := NewSystem(Config{
						Schema: fx.schema, Policy: policy.MustParse(fx.pol + v.rule(doc.Root().Label)),
						Backend: b, Optimize: true, Enforce: EnforceSigns,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.Load(doc); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Annotate(); err != nil {
						t.Fatal(err)
					}
					if fallback := sys.region.predAny || sys.region.predLabels[doc.Root().Label]; fallback != v.fallback {
						t.Fatalf("policy falls back = %v, want %v", fallback, v.fallback)
					}
					r := rand.New(rand.NewSource(int64(100*fi + 10*vi + int(b))))
					for i := 0; i < writes; i++ {
						// The counter hides the engine's optional interfaces,
						// so it wraps the engine for the write only.
						eng := &engineCounter{Engine: sys.engine}
						sys.engine = eng
						w := applyRandomWrite(t, r, sys)
						sys.engine = eng.Engine
						want := 0
						if v.fallback {
							want = 1
						}
						if eng.scopes != 0 || eng.annotations != want {
							t.Fatalf("write %d (%s): %d scope evaluations and %d full annotations, want 0 and %d",
								i, w, eng.scopes, eng.annotations, want)
						}
						checkSigns(t, sys, fmt.Sprintf("write %d (%s)", i, w))
					}
				})
			}
		}
	}
}

// TestAuctionPairGolden pins the write pair the repository benchmark
// could not use under the Trigger-driven re-annotation: insert a whole
// open_auction, then delete it by its type, under c3 on XMark. Plain
// Trigger selects g2a g2b g2c d2 but not d3 for the delete, and
// re-annotating //open_auction/* without d3 flipped every denied bidder
// to '+'. After each write the signs must equal a fresh annotation and
// the Table 2 semantics, on every backend, with plain and schema-aware
// containment.
func TestAuctionPairGolden(t *testing.T) {
	const lot = `<open_auction id="open_auction_golden"><initial>12.00</initial>` +
		`<bidder><date>01/02/2000</date><time>10:00:00</time><personref person="person0"/><increase>25.00</increase></bidder>` +
		`<current>37.00</current><privacy>No</privacy><itemref item="item0"/><seller person="person0"/>` +
		`<annotation><author person="person0"/><description><text>golden lot</text></description><happiness>5</happiness></annotation>` +
		`<quantity>1</quantity><type>GoldenLot</type><interval><start>01/01/2000</start><end>02/01/2000</end></interval></open_auction>`
	tmpl, err := xmltree.ParseString(lot)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBackends {
		for _, aware := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/schema-aware=%v", b, aware), func(t *testing.T) {
				sys, err := NewSystem(Config{Schema: xmark.Schema(), Policy: policy.MustParse(xmarkC3Policy),
					Backend: b, Optimize: true, SchemaAware: aware})
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Load(xmark.Generate(xmark.Options{Factor: 0.005, Seed: 1})); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Annotate(); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.InsertAndReannotate(xpath.MustParse("/site/open_auctions"), tmpl.Root()); err != nil {
					t.Fatal(err)
				}
				checkSigns(t, sys, "insert")
				if _, err := sys.DeleteAndReannotate(xpath.MustParse(`//open_auction[type = "GoldenLot"]`)); err != nil {
					t.Fatal(err)
				}
				checkSigns(t, sys, "delete")
			})
		}
	}
}

// TestRewriteScopesConcurrentReads runs readers on the decision set's
// lock-free hit path while a writer patches the set: under -race this is
// the synchronization proof for publishing it through an atomic pointer.
// Every read must be a grant or an access denial.
func TestRewriteScopesConcurrentReads(t *testing.T) {
	sys, err := NewSystem(Config{
		Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy),
		Backend: BackendColumn, Optimize: true, Enforce: EnforceRewrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(hospital.Generate(hospital.GenOptions{Seed: 3, Departments: 2, PatientsPerDept: 10, StaffPerDept: 2})); err != nil {
		t.Fatal(err)
	}
	queries := []*xpath.Path{
		xpath.MustParse("//patient/name"), xpath.MustParse("//regular"), xpath.MustParse("//patient"),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.Request(queries[i%len(queries)]); err != nil && !errors.Is(err, ErrAccessDenied) {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	parent := xpath.MustParse(`//patient[psn = "004"]`)
	tmpl := xmltree.NewSubtree("treatment")
	xmltree.AddTemplateChild(tmpl, "experimental")
	for i := 0; i < 20; i++ {
		if _, err := sys.InsertAndReannotate(parent, tmpl); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeleteAndReannotate(xpath.MustParse(`//patient[psn = "004"]/treatment`)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
