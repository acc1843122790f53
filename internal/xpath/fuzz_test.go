package xpath

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xmlac/internal/xmltree"
)

// mutate flips, inserts or deletes bytes of a seed string.
func mutate(r *rand.Rand, s string) string {
	b := []byte(s)
	n := 1 + r.Intn(4)
	for i := 0; i < n && len(b) > 0; i++ {
		switch r.Intn(3) {
		case 0:
			b[r.Intn(len(b))] = byte(r.Intn(128))
		case 1:
			pos := r.Intn(len(b) + 1)
			b = append(b[:pos], append([]byte{byte(r.Intn(128))}, b[pos:]...)...)
		case 2:
			pos := r.Intn(len(b))
			b = append(b[:pos], b[pos+1:]...)
		}
	}
	return string(b)
}

var fuzzSeeds = []string{
	"//patient[treatment]/name",
	`//regular[med = "celecoxib"]`,
	"//a[b > 1000 and .//c]",
	"/a/*/b[c[d = 'x']]",
	"  ",
	"////",
	"[[[]]]",
}

// TestQuickParseNeverPanics: Parse returns a value or an error on arbitrary
// input — it must never panic. Successful parses must survive a
// print-reparse round trip.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in string
		if r.Intn(3) == 0 {
			raw := make([]byte, r.Intn(40))
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			in = string(raw)
		} else {
			in = mutate(r, fuzzSeeds[r.Intn(len(fuzzSeeds))])
		}
		p, err := Parse(in)
		if err != nil {
			return true
		}
		// A successful parse must round trip.
		p2, err := Parse(p.String())
		return err == nil && p2.String() == p.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// fuzzInputCap bounds each fuzzed input, query and document alike.
const fuzzInputCap = 4 << 10

// FuzzEval: neither the XPath nor the XML parser panics on arbitrary
// input; a query that parses round-trips through String, and on a document
// that parses, Eval returns the reference's nodes in the reference's
// order. The seed corpus in testdata/fuzz/FuzzEval pairs fuzzSeeds, the
// 55 benchmark queries and the Table 1 rules with the hospital document
// those rules protect.
func FuzzEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, query, text string) {
		if len(query) > fuzzInputCap || len(text) > fuzzInputCap {
			return
		}
		p, err := Parse(query)
		doc, docErr := xmltree.ParseString(text)
		if err != nil {
			return
		}
		if p2, err := Parse(p.String()); err != nil || p2.String() != p.String() {
			t.Fatalf("%q prints as %q, which does not reparse to itself (%v)", query, p.String(), err)
		}
		if docErr != nil {
			return
		}
		got, err := Eval(p, doc)
		want, refErr := refEval(p, doc)
		if (err == nil) != (refErr == nil) || !slices.Equal(got, want) {
			t.Fatalf("%s: Eval = %v (%v), reference = %v (%v)", p, xmltree.SortedIDs(got), err, xmltree.SortedIDs(want), refErr)
		}
	})
}
