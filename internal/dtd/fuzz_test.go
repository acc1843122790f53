package dtd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mutateDTD(r *rand.Rand, s string) string {
	b := []byte(s)
	n := 1 + r.Intn(5)
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

// TestQuickDTDParseNeverPanics: arbitrary input never panics the DTD
// parser; successful parses must survive a print-reparse round trip.
func TestQuickDTDParseNeverPanics(t *testing.T) {
	seeds := []string{
		hospitalDTD,
		`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>`,
		`<!ELEMENT a ((b | c)*, d?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d ANY>`,
		`<!ELEMENT a (#PCDATA)> <!ATTLIST a x (p|q) "p">`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in string
		if r.Intn(3) == 0 {
			raw := make([]byte, r.Intn(80))
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			in = string(raw)
		} else {
			in = mutateDTD(r, seeds[r.Intn(len(seeds))])
		}
		s, err := Parse(in)
		if err != nil {
			return true
		}
		s2, err := Parse(s.String())
		return err == nil && s2.String() == s.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// fuzzInputCap bounds each fuzzed schema text.
const fuzzInputCap = 4 << 10

// FuzzParse: Parse never panics on arbitrary input, and a schema that
// parses prints, through String, a text that parses back to the same
// String. The seed corpus in testdata/fuzz/FuzzParse holds the hospital
// and XMark DTDs and the texts TestQuickDTDParseNeverPanics mutates.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > fuzzInputCap {
			return
		}
		s, err := Parse(text)
		if err != nil {
			return
		}
		if s2, err := Parse(s.String()); err != nil || s2.String() != s.String() {
			t.Fatalf("%q prints as %q, which does not reparse to itself (%v)", text, s.String(), err)
		}
	})
}
