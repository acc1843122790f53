package pattern

import (
	"testing"

	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// fuzzInputCap bounds each fuzzed input, paths and document alike.
const fuzzInputCap = 4 << 10

// FuzzContains: on any two paths that parse, Contains never panics and
// answers as the frozen reference does, and it is sound on any document
// that parses: when Contains(p, q) holds, every node p selects there q
// selects too. The seed corpus in testdata/fuzz/FuzzContains pairs every
// two Table 1 rules, each c3 rule with its XMark expansions and each
// write path of the repository benchmark's bidder insert and delete with
// the c3 expansions it shares an output label with, each with the Figure 2
// document.
func FuzzContains(f *testing.F) {
	f.Fuzz(func(t *testing.T, ptext, qtext, text string) {
		if len(ptext) > fuzzInputCap || len(qtext) > fuzzInputCap || len(text) > fuzzInputCap {
			return
		}
		p, err := xpath.Parse(ptext)
		if err != nil {
			return
		}
		q, err := xpath.Parse(qtext)
		if err != nil {
			return
		}
		got := Contains(p, q)
		if want := refContains(p, q); got != want {
			t.Fatalf("Contains(%s, %s) = %v, reference %v", p, q, got, want)
		}
		if !got {
			return
		}
		doc, err := xmltree.ParseString(text)
		if err != nil {
			return
		}
		if ok, err := subsetOn(p, q, doc); err != nil || !ok {
			t.Fatalf("Contains(%s, %s) holds, but not on %s (%v)", p, q, doc.String(), err)
		}
	})
}
