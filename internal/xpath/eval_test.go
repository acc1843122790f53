package xpath

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xmlac/internal/xmltree"
)

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// labelsOf projects a node set to its labels for compact assertions.
func labelsOf(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label
	}
	return out
}

func evalLabels(t *testing.T, doc *xmltree.Document, expr string) []string {
	t.Helper()
	res, err := Eval(MustParse(expr), doc)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return labelsOf(res)
}

const hospitalDoc = `<hospital><dept><patients>` +
	`<patient><psn>033</psn><name>john doe</name><treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment></patient>` +
	`<patient><psn>042</psn><name>jane doe</name><treatment><experimental><test>regression hypnosis</test><bill>1600</bill></experimental></treatment></patient>` +
	`<patient><psn>099</psn><name>joy smith</name></patient>` +
	`</patients><staffinfo/></dept></hospital>`

func TestEvalChildAndDescendant(t *testing.T) {
	doc := mustDoc(t, `<a><b><c/></b><c/></a>`)
	if got := evalLabels(t, doc, "/a"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("/a = %v", got)
	}
	if got := evalLabels(t, doc, "/a/c"); len(got) != 1 {
		t.Fatalf("/a/c = %v", got)
	}
	if got := evalLabels(t, doc, "//c"); len(got) != 2 {
		t.Fatalf("//c = %v", got)
	}
	if got := evalLabels(t, doc, "/a//c"); len(got) != 2 {
		t.Fatalf("/a//c = %v", got)
	}
	// //a matches the root element itself.
	if got := evalLabels(t, doc, "//a"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("//a = %v", got)
	}
	// /b does not match a non-root element.
	if got := evalLabels(t, doc, "/b"); len(got) != 0 {
		t.Fatalf("/b = %v", got)
	}
}

func TestEvalWildcard(t *testing.T) {
	doc := mustDoc(t, `<a><b/><c><d/></c></a>`)
	if got := evalLabels(t, doc, "/a/*"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("/a/* = %v", got)
	}
	if got := evalLabels(t, doc, "//*"); len(got) != 4 {
		t.Fatalf("//* = %v", got)
	}
	if got := evalLabels(t, doc, "/*/*/d"); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("/*/*/d = %v", got)
	}
}

func TestEvalExistencePredicates(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	// Patients with a treatment: the first two.
	res, err := Eval(MustParse("//patient[treatment]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("//patient[treatment] matched %d", len(res))
	}
	// Patients with an experimental treatment anywhere below: the second.
	res, err = Eval(MustParse("//patient[.//experimental]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("//patient[.//experimental] matched %d", len(res))
	}
	// Multi-step qualifier path.
	res, err = Eval(MustParse("//patient[treatment/regular]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("//patient[treatment/regular] matched %d", len(res))
	}
}

func TestEvalValueComparisons(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	cases := []struct {
		expr string
		n    int
	}{
		{`//regular[med = "celecoxib"]`, 0},
		{`//regular[med = "enoxaparin"]`, 1},
		{`//regular[bill > 1000]`, 0},
		{`//regular[bill > 500]`, 1},
		{`//experimental[bill > 1000]`, 1},
		{`//patient[psn = "033"]`, 1},
		{`//patient[psn = 33]`, 1}, // numeric coercion: "033" == 33
		{`//regular[bill >= 700]`, 1},
		{`//regular[bill <= 700]`, 1},
		{`//regular[bill < 700]`, 0},
		{`//regular[bill != 700]`, 0},
		{`//regular[med != "celecoxib"]`, 1},
		{`//patient[name > 5]`, 0}, // non-numeric value with numeric op
	}
	for _, c := range cases {
		res, err := Eval(MustParse(c.expr), doc)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.expr, err)
			continue
		}
		if len(res) != c.n {
			t.Errorf("Eval(%q) matched %d, want %d", c.expr, len(res), c.n)
		}
	}
}

func TestEvalAndQualifier(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	res, err := Eval(MustParse(`//patient[treatment and name = "john doe"]`), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("matched %d", len(res))
	}
	res, err = Eval(MustParse(`//patient[treatment and name = "joy smith"]`), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("matched %d, want 0", len(res))
	}
}

func TestEvalSelfQualifier(t *testing.T) {
	doc := mustDoc(t, `<a><b/></a>`)
	res, err := Eval(MustParse("/a[.]"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("/a[.] matched %d", len(res))
	}
}

func TestEvalDocumentOrderAndDedup(t *testing.T) {
	doc := mustDoc(t, `<a><b><c/></b><b><c/></b></a>`)
	res, err := Eval(MustParse("//b/c"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("matched %d", len(res))
	}
	if res[0].ID >= res[1].ID {
		t.Fatalf("not in document order: %v then %v", res[0].ID, res[1].ID)
	}
	// Overlapping descendant steps must not produce duplicates.
	res, err = Eval(MustParse("//a//c"), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("//a//c matched %d (duplicates?)", len(res))
	}
}

func TestEvalFromRelative(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	patients, _ := Eval(MustParse("//patient"), doc)
	res, err := EvalFrom(MustParse("name"), patients[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].TextContent() != "john doe" {
		t.Fatalf("relative name = %v", labelsOf(res))
	}
	res, err = EvalFrom(MustParse(".//bill"), patients[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].TextContent() != "1600" {
		t.Fatalf(".//bill = %v", res)
	}
	// Bare "." returns the context node.
	res, err = EvalFrom(MustParse("."), patients[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != patients[2] {
		t.Fatalf(". = %v", res)
	}
}

func TestEvalRejectsWrongPathKinds(t *testing.T) {
	doc := mustDoc(t, `<a/>`)
	if _, err := Eval(MustParse("a"), doc); err == nil {
		t.Error("Eval accepted relative path")
	}
	if _, err := EvalFrom(MustParse("/a"), doc.Root()); err == nil {
		t.Error("EvalFrom accepted absolute path")
	}
}

func TestMatches(t *testing.T) {
	doc := mustDoc(t, hospitalDoc)
	patients, _ := Eval(MustParse("//patient"), doc)
	ok, err := Matches(MustParse("//patient[treatment]"), doc, patients[0])
	if err != nil || !ok {
		t.Fatalf("Matches = %v, %v", ok, err)
	}
	ok, err = Matches(MustParse("//patient[treatment]"), doc, patients[2])
	if err != nil || ok {
		t.Fatalf("Matches = %v, %v (joy smith has no treatment)", ok, err)
	}
}

// treeLabels and treeValues are the vocabularies of randomTree; the path
// generators draw from the same ones so tests and comparisons hit.
var (
	treeLabels = []string{"a", "b", "c"}
	treeValues = []string{"1", "5", "x"}
)

// randomTree builds a random labeled tree for property tests; about a
// third of its elements carry a text value.
func randomTree(r *rand.Rand) *xmltree.Document {
	d := xmltree.NewDocument(treeLabels[r.Intn(len(treeLabels))])
	nodes := []*xmltree.Node{d.Root()}
	n := r.Intn(30)
	for i := 0; i < n; i++ {
		p := nodes[r.Intn(len(nodes))]
		c := d.AddElement(p, treeLabels[r.Intn(len(treeLabels))])
		if r.Intn(3) == 0 {
			d.AddText(c, treeValues[r.Intn(len(treeValues))])
		}
		nodes = append(nodes, c)
	}
	return d
}

// randomTest draws a node test over {a,b,c,*}.
func randomTest(r *rand.Rand) string {
	if r.Intn(4) == 0 {
		return Wildcard
	}
	return treeLabels[r.Intn(len(treeLabels))]
}

// randomPath builds a random absolute path over {a,b,c,*}: child,
// descendant and (after the first step) self steps, with occasional
// qualifiers.
func randomPath(r *rand.Rand) *Path {
	p := &Path{Absolute: true}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		s := &Step{Axis: Child, Test: randomTest(r)}
		switch r.Intn(6) {
		case 0, 1, 2:
			s.Axis = Descendant
		case 3:
			if i > 0 {
				s.Axis, s.Test = Self, Wildcard
			}
		}
		if r.Intn(4) == 0 {
			s.Preds = []*Pred{randomPred(r, 0)}
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

// randomPred builds a random qualifier: existence and value tests over
// relative paths (".", child and ".//" steps, nested qualifiers), joined
// by and/or up to two levels deep.
func randomPred(r *rand.Rand, depth int) *Pred {
	k := r.Intn(6)
	if depth >= 2 {
		k = 2 + r.Intn(4)
	}
	switch k {
	case 0:
		return &Pred{Kind: Or, Left: randomPred(r, depth+1), Right: randomPred(r, depth+1)}
	case 1:
		return &Pred{Kind: And, Left: randomPred(r, depth+1), Right: randomPred(r, depth+1)}
	case 2, 3:
		lit := Literal{Str: treeValues[r.Intn(len(treeValues))]}
		if r.Intn(2) == 0 {
			lit = Literal{IsNum: true, Num: float64(r.Intn(7))}
		}
		return &Pred{Kind: Cmp, Path: randomRelPath(r, depth), Op: CmpOp(r.Intn(6)), Value: lit}
	default:
		return &Pred{Kind: Exists, Path: randomRelPath(r, depth)}
	}
}

// randomRelPath builds a qualifier path of zero (the bare ".") to two
// steps.
func randomRelPath(r *rand.Rand, depth int) *Path {
	p := &Path{}
	for i, n := 0, r.Intn(3); i < n; i++ {
		s := &Step{Axis: Child, Test: randomTest(r)}
		if r.Intn(3) == 0 {
			s.Axis = Descendant
		}
		if depth < 2 && r.Intn(6) == 0 {
			s.Preds = []*Pred{randomPred(r, depth+1)}
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

// TestQuickSelectsAgreesWithEval: the backward matcher selects exactly the
// nodes the reference forward evaluator returns — Selects(p, n) ⇔ n ∈
// refEval(p, doc) for every node of the tree, text nodes included. The
// reference stands in for Eval, which rests on Selects.
func TestQuickSelectsAgreesWithEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		res, err := refEval(p, doc)
		if err != nil {
			t.Logf("refEval(%s): %v", p, err)
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range res {
			in[n] = true
		}
		ok := true
		doc.Walk(func(n *xmltree.Node) bool {
			if Selects(p, n) != in[n] {
				t.Logf("seed %d: %s on node %d (%s): Selects=%v, reference=%v", seed, p, n.ID, n.Path(), !in[n], in[n])
				ok = false
			}
			if m, err := Matches(p, doc, n); err != nil || m != in[n] {
				t.Logf("seed %d: Matches(%s, node %d) = %v, %v", seed, p, n.ID, m, err)
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectsDeepChain: ancestor chains deeper than Selects' stack
// buffers take the allocating path and still agree with the reference.
func TestSelectsDeepChain(t *testing.T) {
	text := strings.Repeat("<a>", 2*selectsDepth) + "<b><c/></b>" + strings.Repeat("</a>", 2*selectsDepth)
	doc := mustDoc(t, text)
	for _, q := range []string{"//a//b", "/a/a//b[c]", "//a[b]", "//a/b/c", "/a/b"} {
		p := MustParse(q)
		res, err := refEval(p, doc)
		if err != nil {
			t.Fatal(err)
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range res {
			in[n] = true
		}
		doc.Walk(func(n *xmltree.Node) bool {
			if Selects(p, n) != in[n] {
				t.Errorf("%s on %s: Selects = %v, reference = %v", q, n.Label, !in[n], in[n])
			}
			return true
		})
	}
}

func TestSelectsRejectsEvalErrors(t *testing.T) {
	doc := mustDoc(t, `<a><b/></a>`)
	b := doc.Root().ChildElements()[0]
	for _, p := range []*Path{
		MustParse("b"),
		{Absolute: true},
		{Absolute: true, Steps: []*Step{{Axis: Self, Test: Wildcard}}},
	} {
		if Selects(p, b) || Selects(p, doc.Root()) {
			t.Errorf("Selects(%#v) selected a node", p)
		}
		if _, err := Matches(p, doc, b); err == nil {
			t.Errorf("Matches(%#v) accepted a path Eval rejects", p)
		}
	}
	// A node outside the document matches nothing.
	detached := xmltree.NewDocument("b").Root()
	if ok, err := Matches(MustParse("//b"), doc, detached); err != nil || ok {
		t.Fatalf("Matches on a foreign node = %v, %v", ok, err)
	}
}

// TestQuickDescendantSubsumesChild: [[p with child axis]] ⊆ [[p with the
// same step made descendant]] — a structural soundness property of the
// evaluator.
func TestQuickDescendantSubsumesChild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		// Pick a random step and loosen it to descendant (a self step stays:
		// its descendant form drops the context node itself).
		loose := p.Clone()
		if s := loose.Steps[r.Intn(len(loose.Steps))]; s.Axis == Child {
			s.Axis = Descendant
		}
		resP, err1 := Eval(p, doc)
		resL, err2 := Eval(loose, doc)
		if err1 != nil || err2 != nil {
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range resL {
			in[n] = true
		}
		for _, n := range resP {
			if !in[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDropPredicateGrowsResult: removing a qualifier can only grow the
// result set.
func TestQuickDropPredicateGrowsResult(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		resP, err := Eval(p, doc)
		if err != nil {
			return false
		}
		resS, err := Eval(p.StripPredicates(), doc)
		if err != nil {
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range resS {
			in[n] = true
		}
		for _, n := range resP {
			if !in[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWildcardSubsumesLabel: replacing a node test with * can only grow
// the result set.
func TestQuickWildcardSubsumesLabel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		p := randomPath(r)
		w := p.Clone()
		w.Steps[r.Intn(len(w.Steps))].Test = Wildcard
		resP, err1 := Eval(p, doc)
		resW, err2 := Eval(w, doc)
		if err1 != nil || err2 != nil {
			return false
		}
		in := map[*xmltree.Node]bool{}
		for _, n := range resW {
			in[n] = true
		}
		for _, n := range resP {
			if !in[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
