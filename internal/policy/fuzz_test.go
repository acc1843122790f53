package policy

import "testing"

// fuzzInputCap bounds each fuzzed policy text.
const fuzzInputCap = 4 << 10

// FuzzParse: Parse never panics on arbitrary input, and a policy that
// parses prints, through String, a text that parses back to the same
// String. The seed corpus in testdata/fuzz/FuzzParse holds the Table 1
// and Table 3 policies and the five coverage policies.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > fuzzInputCap {
			return
		}
		p, err := Parse(text)
		if err != nil {
			return
		}
		if p2, err := Parse(p.String()); err != nil || p2.String() != p.String() {
			t.Fatalf("%q prints as %q, which does not reparse to itself (%v)", text, p.String(), err)
		}
	})
}
