package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mutateXML(r *rand.Rand, s string) string {
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

// TestQuickXMLParseNeverPanics: the fast scanner never panics on arbitrary
// bytes, and anything it accepts serializes and reparses to the same tree.
func TestQuickXMLParseNeverPanics(t *testing.T) {
	seeds := []string{
		`<a k="v"><b>x &amp; y</b><c/><!-- c --><![CDATA[z]]></a>`,
		`<?xml version="1.0"?><!DOCTYPE a [ <!ELEMENT a ANY> ]><a sign="+">t</a>`,
		`<a><b><c><d/></c></b></a>`,
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
			in = mutateXML(r, seeds[r.Intn(len(seeds))])
		}
		doc, err := ParseString(in)
		if err != nil {
			return true
		}
		re, err := ParseString(doc.String())
		return err == nil && re.String() == doc.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// xmlFuzzInputCap bounds FuzzParse's inputs: longer documents only slow
// the fuzzer down.
const xmlFuzzInputCap = 64 << 10

// FuzzParse: ParseString never panics; a document it accepts serializes,
// through String, to a text that parses back to the same String; and where
// the reference decoder ParseStd accepts the input too and the input is one
// on which the scanner promises the decoder's tree (see stdComparable),
// both build the same tree. The seed corpus (testdata/fuzz/FuzzParse)
// holds the quick test's three seeds, the hospital document, the
// benchmark's lot and bidder fragments, a serialized XMark f = 0.0001
// document and the inputs the fuzzer has found.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > xmlFuzzInputCap {
			return
		}
		doc, err := ParseString(text)
		if err != nil {
			return
		}
		out := doc.String()
		if re, err := ParseString(out); err != nil || re.String() != out {
			t.Fatalf("%q serializes as %q, which does not reparse to itself (%v)", text, out, err)
		}
		if !stdComparable(text, doc.Root()) {
			return
		}
		if std, err := ParseStd(strings.NewReader(text)); err == nil && !equalTrees(doc.Root(), std.Root()) {
			t.Fatalf("parsers disagree on %q:\nfast: %s\nstd:  %s", text, out, std)
		}
	})
}

// stdComparable reports whether text is made of elements, attributes and
// character data only (no comment, CDATA section, DOCTYPE or processing
// instruction), holds no carriage return, and parsed to a tree without a
// prefixed name: the documents on which scanner.go promises ParseStd's
// tree. Elsewhere the two parsers split text runs, line endings, comments
// and names differently by design.
func stdComparable(text string, root *Node) bool {
	if strings.Contains(text, "<!") || strings.Contains(text, "<?") || strings.ContainsRune(text, '\r') {
		return false
	}
	return !hasPrefixedName(root)
}

func hasPrefixedName(n *Node) bool {
	if strings.Contains(n.Label, ":") {
		return true
	}
	for k := range n.Attrs {
		if strings.Contains(k, ":") {
			return true
		}
	}
	for _, c := range n.children {
		if hasPrefixedName(c) {
			return true
		}
	}
	return false
}
