package pattern

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func contains(t *testing.T, p, q string) bool {
	t.Helper()
	return Contains(xpath.MustParse(p), xpath.MustParse(q))
}

// TestContainsPaperExamples covers every containment relation the paper's
// running example relies on (Section 5.1, Table 3, Section 5.3).
func TestContainsPaperExamples(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		// R4 ⊑ R2: eliminated by the optimizer.
		{"//patient[treatment]/name", "//patient/name", true},
		{"//patient/name", "//patient[treatment]/name", false},
		// R7, R8 ⊑ R6.
		{`//regular[med = "celecoxib"]`, "//regular", true},
		{"//regular[bill > 1000]", "//regular", true},
		{"//regular", `//regular[med = "celecoxib"]`, false},
		// R3 ⊑ R1 (kept by the optimizer: opposite effects).
		{"//patient[treatment]", "//patient", true},
		{"//patient", "//patient[treatment]", false},
		// R5 ⊑ R1.
		{"//patient[.//experimental]", "//patient", true},
		// Expansion-related linear paths.
		{"//patient/treatment", "//treatment", true},
		{"//treatment", "//patient/treatment", false},
		{"//patient/treatment/experimental", "//experimental", true},
	}
	for _, c := range cases {
		if got := contains(t, c.p, c.q); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestContainsStructural(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"/a/b", "/a/b", true},
		{"/a/b", "//b", true},
		{"//b", "/a/b", false},
		{"/a/b", "/a//b", true},
		{"/a//b", "/a/b", false},
		{"/a/b/c", "/a//c", true},
		{"/a/b/c", "//a//c", true},
		{"/a/b", "/a/*", true},
		{"/a/*", "/a/b", false},
		{"/a/b", "//*", true},
		{"/a[b][c]", "/a[b]", true},
		{"/a[b]", "/a[b][c]", false},
		{"/a[b and c]", "/a[c]", true},
		{"/a[b/c]", "/a[b]", true},
		{"/a[b]", "/a[b/c]", false},
		{"/a[.//b]", "/a", true},
		{"/a[b/c]", "/a[.//c]", true},
		{"/a[.//c]", "/a[b/c]", false},
		// Output node matters: same pattern shape, different selected node.
		{"/a/b", "/a", false},
		{"/a", "/a/b", false},
		// Wildcards in the middle.
		{"/a/b/c", "/a/*/c", true},
		{"/a/*/c", "/a//c", true},
		{"/a//c", "/a/*/c", false},
		// Descendant chains.
		{"//a//b//c", "//a//c", true},
		{"//a//c", "//a//b//c", false},
		// Self qualifier is vacuous.
		{"/a[.]", "/a", true},
		{"/a", "/a[.]", true},
	}
	for _, c := range cases {
		if got := contains(t, c.p, c.q); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestContainsValueConstraints(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{`/a[b = 5]`, `/a[b]`, true},
		{`/a[b]`, `/a[b = 5]`, false},
		{`/a[b = 5]`, `/a[b = 5]`, true},
		{`/a[b = 5]`, `/a[b = 6]`, false},
		{`/a[b = 5]`, `/a[b > 3]`, true},
		{`/a[b = 5]`, `/a[b > 5]`, false},
		{`/a[b = 5]`, `/a[b >= 5]`, true},
		{`/a[b = 5]`, `/a[b < 6]`, true},
		{`/a[b = 5]`, `/a[b != 6]`, true},
		{`/a[b > 1000]`, `/a[b > 500]`, true},
		{`/a[b > 500]`, `/a[b > 1000]`, false},
		{`/a[b > 1000]`, `/a[b >= 1000]`, true},
		{`/a[b >= 1000]`, `/a[b > 1000]`, false},
		{`/a[b >= 1000]`, `/a[b > 999]`, true},
		{`/a[b < 10]`, `/a[b < 20]`, true},
		{`/a[b < 20]`, `/a[b < 10]`, false},
		{`/a[b <= 10]`, `/a[b < 11]`, true},
		{`/a[b > 10]`, `/a[b != 5]`, true},
		{`/a[b < 10]`, `/a[b != 15]`, true},
		{`/a[b = "x"]`, `/a[b = "x"]`, true},
		{`/a[b = "x"]`, `/a[b = "y"]`, false},
		{`/a[b = "x"]`, `/a[b != "y"]`, true},
		{`/a[b != "x"]`, `/a[b != "x"]`, true},
		{`/a[b != "x"]`, `/a[b != "y"]`, false},
		// Mixed numeric/string constraints are conservatively independent.
		{`/a[b = 5]`, `/a[b = "5"]`, false},
		// The constraint still implies plain existence.
		{`/a[b = "x"]`, `/a[b]`, true},
	}
	for _, c := range cases {
		if got := contains(t, c.p, c.q); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	if !Equivalent(xpath.MustParse("/a/b"), xpath.MustParse("/a/b")) {
		t.Error("identical paths not equivalent")
	}
	if Equivalent(xpath.MustParse("/a/b"), xpath.MustParse("//b")) {
		t.Error("/a/b and //b wrongly equivalent")
	}
	if !Equivalent(xpath.MustParse("/a[b][c]"), xpath.MustParse("/a[c][b]")) {
		t.Error("qualifier order should not matter")
	}
	if !Equivalent(xpath.MustParse("/a[b and c]"), xpath.MustParse("/a[b][c]")) {
		t.Error("and vs stacked qualifiers should be equivalent")
	}
}

func TestContainsRejectsRelative(t *testing.T) {
	if Contains(xpath.MustParse("a"), xpath.MustParse("//a")) {
		t.Error("relative path accepted")
	}
}

func TestDisjointByLabel(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"//a", "//b", true},
		{"//a", "//a", false},
		{"//x/a", "//y/a", false}, // same final label: possibly overlapping
		{"//a", "//*", false},     // wildcard: unknown
		{"//a/b", "//c/d", true},
	}
	for _, c := range cases {
		if got := DisjointByLabel(xpath.MustParse(c.p), xpath.MustParse(c.q)); got != c.want {
			t.Errorf("DisjointByLabel(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// --- soundness property test ---

// randomTree draws a document over a, b and c whose elements carry, half
// of the time, a text value the drawn comparisons test.
func randomTree(r *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c"}
	d := xmltree.NewDocument(labels[r.Intn(len(labels))])
	nodes := []*xmltree.Node{d.Root()}
	n := r.Intn(25)
	for i := 0; i < n; i++ {
		p := nodes[r.Intn(len(nodes))]
		c := d.AddElement(p, labels[r.Intn(len(labels))])
		nodes = append(nodes, c)
	}
	for _, e := range nodes {
		if r.Intn(2) == 0 {
			d.AddText(e, randomValues[r.Intn(len(randomValues))])
		}
	}
	return d
}

// randomValues are the text values of random trees and the literals of
// random comparisons.
var randomValues = []string{"1", "5", "10", "x", "y"}

// randomAbsPath draws an absolute path of one to three child or descendant
// steps over a, b, c and the wildcard; a third of the steps carry a
// qualifier from randomPred.
func randomAbsPath(r *rand.Rand) *xpath.Path {
	p := &xpath.Path{Absolute: true}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		s := randomStep(r, []string{"a", "b", "c", "*"})
		if r.Intn(3) == 0 {
			s.Preds = []*xpath.Pred{randomPred(r, 2)}
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

func randomStep(r *rand.Rand, labels []string) *xpath.Step {
	axis := xpath.Child
	if r.Intn(2) == 0 {
		axis = xpath.Descendant
	}
	return &xpath.Step{Axis: axis, Test: labels[r.Intn(len(labels))]}
}

// randomPred draws a qualifier: half of the time an existence test, else a
// value comparison, an and or an or. Qualifier paths take child or
// descendant steps and, while depth lasts, qualifiers of their own.
func randomPred(r *rand.Rand, depth int) *xpath.Pred {
	switch k := r.Intn(6); {
	case k == 0 && depth > 0:
		return &xpath.Pred{Kind: xpath.Or, Left: randomPred(r, depth-1), Right: randomPred(r, depth-1)}
	case k == 1 && depth > 0:
		return &xpath.Pred{Kind: xpath.And, Left: randomPred(r, depth-1), Right: randomPred(r, depth-1)}
	case k == 2:
		return randomCmp(r, randomRelPath(r, depth, 0))
	default:
		return &xpath.Pred{Kind: xpath.Exists, Path: randomRelPath(r, depth, 1)}
	}
}

// randomRelPath draws a qualifier path of min to two steps (zero steps is
// the bare ".").
func randomRelPath(r *rand.Rand, depth, min int) *xpath.Path {
	p := &xpath.Path{}
	n := min + r.Intn(3-min)
	for i := 0; i < n; i++ {
		s := randomStep(r, []string{"a", "b", "c"})
		if depth > 0 && r.Intn(4) == 0 {
			s.Preds = []*xpath.Pred{randomPred(r, depth-1)}
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

// randomCmp compares path with a random literal: any operator against a
// number, = or != against a string (the only string comparisons the
// containment test reasons about).
func randomCmp(r *rand.Rand, path *xpath.Path) *xpath.Pred {
	v := randomValues[r.Intn(len(randomValues))]
	if num, err := strconv.ParseFloat(v, 64); err == nil {
		op := []xpath.CmpOp{xpath.Eq, xpath.Ne, xpath.Lt, xpath.Le, xpath.Gt, xpath.Ge}[r.Intn(6)]
		return &xpath.Pred{Kind: xpath.Cmp, Path: path, Op: op, Value: xpath.Literal{IsNum: true, Num: num}}
	}
	op := []xpath.CmpOp{xpath.Eq, xpath.Ne}[r.Intn(2)]
	return &xpath.Pred{Kind: xpath.Cmp, Path: path, Op: op, Value: xpath.Literal{Str: v}}
}

// subsetOn reports whether, on doc, every node p selects is selected by q.
func subsetOn(p, q *xpath.Path, doc *xmltree.Document) (bool, error) {
	resP, err := xpath.Eval(p, doc)
	if err != nil {
		return false, err
	}
	resQ, err := xpath.Eval(q, doc)
	if err != nil {
		return false, err
	}
	in := map[*xmltree.Node]bool{}
	for _, n := range resQ {
		in[n] = true
	}
	for _, n := range resP {
		if !in[n] {
			return false, nil
		}
	}
	return true, nil
}

// TestQuickContainmentSound: Contains answers as the frozen reference
// does, and whenever it holds, every node matched by p on a random tree is
// matched by q.
func TestQuickContainmentSound(t *testing.T) {
	hits := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomAbsPath(r)
		q := randomAbsPath(r)
		got := Contains(p, q)
		if want := refContains(p, q); got != want {
			t.Logf("Contains(%s, %s) = %v, reference %v", p, q, got, want)
			return false
		}
		if !got {
			return true
		}
		hits++
		for i := 0; i < 5; i++ {
			doc := randomTree(r)
			if ok, err := subsetOn(p, q, doc); err != nil || !ok {
				t.Logf("violation: p=%s q=%s doc=%s (%v)", p, q, doc.String(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if hits < 20 {
		t.Fatalf("containment held only %d times; property under-exercised", hits)
	}
}

// TestQuickSelfContainment: every path is contained in itself (reflexivity of
// the homomorphism test — identity embedding).
func TestQuickSelfContainment(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomAbsPath(r)
		return Contains(p, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickContainmentTransitive: p ⊑ q and q ⊑ r imply p ⊑ r on the
// homomorphism test (homomorphisms compose).
func TestQuickContainmentTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomAbsPath(r)
		q := randomAbsPath(r)
		s := randomAbsPath(r)
		if Contains(p, q) && Contains(q, s) {
			return Contains(p, s)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestContainsOrPaths exercises the DNF branch of Contains directly.
func TestContainsOrPaths(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"//a[b or c]", "//a", true},
		{"//a[b]", "//a[b or c]", true},
		{"//a[x]", "//a[b or c]", false},
		{"//a[b or c]", "//a[c or b]", true}, // commutativity
		{"//a[(b or c) and d]", "//a[d]", true},
		{"//a[b[x or y]]", "//a[b]", true},
		{"//a[b[x or y]]", "//a[b[y] or b[x]]", true},
	}
	for _, c := range cases {
		if got := Contains(xpath.MustParse(c.p), xpath.MustParse(c.q)); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// TestContainsOrOverflowConservative: a blown-up DNF answers false rather
// than guessing.
func TestContainsOrOverflowConservative(t *testing.T) {
	p := xpath.MustParse("/a")
	for i := 0; i < 10; i++ {
		q := xpath.MustParse("/x[b or c]").Steps[0].Preds[0]
		p.Steps[0].Preds = append(p.Steps[0].Preds, q)
	}
	if Contains(p, xpath.MustParse("/a")) {
		t.Fatal("overflowed DNF should answer false conservatively")
	}
}
