package xpath_test

import (
	"slices"
	"testing"

	"xmlac/internal/bench"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// TestBenchmarkQueriesMatchReference runs the 55 benchmark queries on an
// XMark document before and after a bidder insert and a bidder delete:
// every result equals the reference's, node for node and in order.
func TestBenchmarkQueriesMatchReference(t *testing.T) {
	doc := xmark.Generate(xmark.Options{Factor: 0.01, Seed: 1})
	check := func(state string) {
		t.Helper()
		for _, q := range bench.Queries() {
			got, err := xpath.Eval(q, doc)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := xpath.RefEval(q, doc)
			if len(want) == 0 {
				t.Errorf("%s: %s matches nothing", state, q)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s: Eval matched %d, reference %d", state, q, len(got), len(want))
			}
		}
	}
	check("generated")

	auctions := doc.ByLabel("open_auction")
	bidder := xmltree.NewSubtree("bidder")
	for _, f := range []struct{ label, text string }{{"date", "01/01/2001"}, {"time", "00:00:00"}, {"personref", ""}, {"increase", "12.00"}} {
		c := xmltree.AddTemplateChild(bidder, f.label)
		if f.text != "" {
			xmltree.AddTemplateText(c, f.text)
		}
	}
	if _, err := doc.InsertSubtree(auctions[0], bidder); err != nil {
		t.Fatal(err)
	}
	check("after the insert")

	if err := doc.DeleteSubtree(doc.ByLabel("bidder")[0]); err != nil {
		t.Fatal(err)
	}
	check("after the delete")
}
