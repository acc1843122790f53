package xpath

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"xmlac/internal/hospital"
	"xmlac/internal/xmltree"
)

// mutateTree applies one random update to doc: an insert of a foreign
// template or of one of doc's own subtrees, a delete, an id change, or a
// clone, which replaces the document the caller keeps testing.
func mutateTree(r *rand.Rand, doc *xmltree.Document) *xmltree.Document {
	els := doc.Elements()
	switch r.Intn(5) {
	case 0:
		_, _ = doc.InsertSubtree(els[r.Intn(len(els))], randomTree(r).Root())
	case 1:
		// Fails, leaving doc as it was, when the parent lies below the
		// template.
		_, _ = doc.InsertSubtree(els[r.Intn(len(els))], els[r.Intn(len(els))])
	case 2:
		if len(els) > 1 {
			_ = doc.DeleteSubtree(els[1+r.Intn(len(els)-1)])
		}
	case 3:
		// Any id, so ids stop following document order; one in use fails.
		var nodes []*xmltree.Node
		doc.Walk(func(n *xmltree.Node) bool { nodes = append(nodes, n); return true })
		_ = doc.SetNodeID(nodes[r.Intn(len(nodes))], 1+r.Int63n(int64(2*len(nodes)+2)))
	case 4:
		return doc.Clone()
	}
	return doc
}

// labelListsFresh checks every label list of doc against a fresh walk's
// elements of that label, sorted by ID.
func labelListsFresh(doc *xmltree.Document) bool {
	want := map[string][]*xmltree.Node{}
	els := doc.Elements()
	for _, n := range els {
		want[n.Label] = append(want[n.Label], n)
	}
	for label, list := range want {
		slices.SortFunc(list, func(a, b *xmltree.Node) int { return cmp.Compare(a.ID, b.ID) })
		if !slices.Equal(doc.ByLabel(label), list) || !slices.Equal(doc.ElementsByLabel(label), list) {
			return false
		}
	}
	return doc.ElementCount() == len(els)
}

// TestQuickIndexedEvalMatchesReference: under random sequences of
// inserts, deletes, id changes and clones, every label list equals a fresh
// walk's, and Eval returns the reference's nodes in the reference's order.
func TestQuickIndexedEvalMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r)
		for step := 0; step < 6; step++ {
			if !labelListsFresh(doc) {
				t.Logf("seed %d, step %d: a label list differs from a fresh walk", seed, step)
				return false
			}
			for i := 0; i < 4; i++ {
				p := randomPath(r)
				got, err := Eval(p, doc)
				want, refErr := refEval(p, doc)
				if (err == nil) != (refErr == nil) || !slices.Equal(got, want) {
					t.Logf("seed %d, step %d: %s on %s: Eval = %v (%v), reference = %v (%v)",
						seed, step, p, doc, xmltree.SortedIDs(got), err, xmltree.SortedIDs(want), refErr)
					return false
				}
			}
			doc = mutateTree(r, doc)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalDecidesSharedQualifiersOnce: the candidates of /a[.//z]//b share
// their ancestor a, whose qualifier Eval decides once, not once per b.
func TestEvalDecidesSharedQualifiersOnce(t *testing.T) {
	doc := mustDoc(t, "<a>"+strings.Repeat("<c><b/><b/></c>", 1500)+"<z/></a>")
	var st EvalStats
	res, err := EvalWithStats(MustParse("/a[.//z]//b"), doc, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3000 || st.decided != 1 {
		t.Fatalf("matched %d of 3000 b with %d qualifier decisions, want 1", len(res), st.decided)
	}
}

// TestEvalDeepChainQualifiers: qualifier paths with one, two and three //
// steps, the last evaluated set-wise, agree with the reference on a
// 200-deep chain.
func TestEvalDeepChainQualifiers(t *testing.T) {
	doc := mustDoc(t, strings.Repeat("<a>", 200)+"<b>1</b>"+strings.Repeat("</a>", 200))
	for _, q := range []string{"//a[.//b]", "//a[.//a//b]", "//a[.//a//a//b]", "//a[.//a//a//b = 1]", "//a[a//a//a/b]/a"} {
		p := MustParse(q)
		got, err := Eval(p, doc)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refEval(p, doc)
		if !slices.Equal(got, want) {
			t.Errorf("%s: Eval matched %d, reference %d", q, len(got), len(want))
		}
	}
}

// TestEvalVisitedCountsIndexCandidates: Visited counts the candidates the
// label index hands out and the nodes forward steps test, not every
// element the query could have walked.
func TestEvalVisitedCountsIndexCandidates(t *testing.T) {
	doc := hospital.Document()
	for _, c := range []struct {
		q             string
		match, visits int
	}{
		{"//patient", 3, 3},
		{"//patient/*", 8, 3 + 8}, // the patients, then their children
		{"//*", 21, 21},           // no named step: every element
	} {
		var st EvalStats
		res, err := EvalWithStats(MustParse(c.q), doc, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != c.match || st.Visited != c.visits {
			t.Errorf("%s: matched %d, visited %d; want %d, %d", c.q, len(res), st.Visited, c.match, c.visits)
		}
	}
}
