package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFastParserEntities(t *testing.T) {
	doc, err := ParseString(`<a k="x &amp; y">1 &lt; 2 &gt; 0 &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().TextContent(); got != `1 < 2 > 0 "q" 'a' AB` {
		t.Fatalf("text = %q", got)
	}
	if got := doc.Root().Attrs["k"]; got != "x & y" {
		t.Fatalf("attr = %q", got)
	}
}

func TestFastParserCDATA(t *testing.T) {
	doc, err := ParseString(`<a><![CDATA[x < y & "z"]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().TextContent(); got != `x < y & "z"` {
		t.Fatalf("text = %q", got)
	}
}

func TestFastParserCommentsPIDoctype(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>
<!-- hello -->
<a>v<!-- inner --><?pi data?></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().TextContent(); got != "v" {
		t.Fatalf("text = %q", got)
	}
}

// TestFastParserCommentOpener: a comment's closing "-->" is searched for
// after its "<!--", so "<!-->" opens a comment without closing it.
func TestFastParserCommentOpener(t *testing.T) {
	doc, err := ParseString(`<a><!-->--></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.String(); got != `<a/>` {
		t.Fatalf("parsed as %s", got)
	}
	for _, c := range []string{`<a><!--></a>`, `<a><?></a>`} {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

// TestFastParserPrefixedNames: a prefixed name is one name, as the XPath
// lexer, the DTD parser and the relational mapping read it. p:l stays
// p:l, attributes that share a local part all load, xmlns:p is an
// ordinary attribute, x:sign is not the access annotation, and the
// document serializes with its prefixes.
func TestFastParserPrefixedNames(t *testing.T) {
	src := `<r xmlns:p="urn:p"><p:l a:id="1" b:id="2" href="h" xlink:href="x">t</p:l><l x:sign="+"/><q:l/></r>`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if got := root.Attrs["xmlns:p"]; got != "urn:p" {
		t.Errorf("xmlns:p = %q", got)
	}
	var labels []string
	for _, c := range root.Children() {
		labels = append(labels, c.Label)
	}
	if strings.Join(labels, " ") != "p:l l q:l" {
		t.Fatalf("children = %v", labels)
	}
	pl, l := root.Children()[0], root.Children()[1]
	want := map[string]string{"a:id": "1", "b:id": "2", "href": "h", "xlink:href": "x"}
	if len(pl.Attrs) != len(want) {
		t.Errorf("p:l attributes = %v", pl.Attrs)
	}
	for k, v := range want {
		if pl.Attrs[k] != v {
			t.Errorf("p:l @%s = %q, want %q (all: %v)", k, pl.Attrs[k], v, pl.Attrs)
		}
	}
	if l.Sign != SignNone || l.Attrs["x:sign"] != "+" {
		t.Errorf("l: sign %v, attributes %v", l.Sign, l.Attrs)
	}
	if got := doc.String(); got != src { // src lists attributes sorted, as String does
		t.Errorf("serialized as %s", got)
	}
}

// TestFastParserCommentsWithoutCopying: the end of each comment, CDATA
// section and processing instruction is found without copying the rest
// of the input, so the parse's allocations do not grow with their number
// (a copy per construct made parsing quadratic in the input).
func TestFastParserCommentsWithoutCopying(t *testing.T) {
	doc := func(n int) []byte {
		var b strings.Builder
		b.WriteString("<a>")
		for i := 0; i < n; i++ {
			b.WriteString("<!-- c --><?p d?><![CDATA[]]>")
		}
		b.WriteString("</a>")
		return []byte(b.String())
	}
	allocs := func(src []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := parseFast(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(doc(10)), allocs(doc(5000))
	if large > small+16 {
		t.Fatalf("parsing 5,000 comments, PIs and CDATA sections made %.0f allocations against %.0f for 10", large, small)
	}
}

func TestFastParserErrors(t *testing.T) {
	cases := []string{
		``,
		`<a`,
		`<a>`,
		`</a>`,
		`<a></b>`,
		`<a/><b/>`,
		`<a x=1/>`,
		`<a x="1/>`,
		`<a x="1" x="2"/>`,
		`<a>&bogus;</a>`,
		`<a>&amp</a>`,
		`<a>&#zz;</a>`,
		`<a><![CDATA[x]]</a>`,
		`<!-- unterminated`,
		`text outside<a/>`,
		`<a sign="?"/>`,
		`<a><b/></a>trailing`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestFastParserSingleQuotedAttrs(t *testing.T) {
	doc, err := ParseString(`<a k='v"w'/>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Attrs["k"] != `v"w` {
		t.Fatalf("attr = %q", doc.Root().Attrs["k"])
	}
}

// equalTrees compares two documents structurally (labels, values, signs,
// attrs), ignoring node ids.
func equalTrees(a, b *Node) bool {
	if a.Kind != b.Kind || a.Label != b.Label || a.Value != b.Value || a.Sign != b.Sign {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for k, v := range a.Attrs {
		if b.Attrs[k] != v {
			return false
		}
	}
	if len(a.children) != len(b.children) {
		return false
	}
	for i := range a.children {
		if !equalTrees(a.children[i], b.children[i]) {
			return false
		}
	}
	return true
}

// TestParsersAgreeOnFixtures: the fast scanner and the stdlib decoder build
// identical trees.
func TestParsersAgreeOnFixtures(t *testing.T) {
	fixtures := []string{
		`<a/>`,
		`<a><b>x</b><c k="v"/></a>`,
		`<a sign="+"><b sign="-">t</b></a>`,
		`<a>x &amp; y</a>`,
		`<a k="1" l="2">m<b/>n</a>`,
		"<a>\n  <b>x</b>\n</a>",
	}
	for _, f := range fixtures {
		fast, err1 := ParseString(f)
		std, err2 := ParseStd(strings.NewReader(f))
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: fast=%v std=%v", f, err1, err2)
		}
		if !equalTrees(fast.Root(), std.Root()) {
			t.Fatalf("parsers disagree on %q:\nfast: %s\nstd:  %s", f, fast, std)
		}
	}
}

// TestQuickParsersAgree: on serialized random documents both parsers agree.
func TestQuickParsersAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		out := d.String()
		fast, err1 := ParseString(out)
		std, err2 := ParseStd(strings.NewReader(out))
		if err1 != nil || err2 != nil {
			t.Logf("%q: fast=%v std=%v", out, err1, err2)
			return false
		}
		return equalTrees(fast.Root(), std.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseFast(b *testing.B) {
	s := benchDoc()
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseStd(b *testing.B) {
	s := benchDoc()
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStd(strings.NewReader(s)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDoc() string {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 2000; i++ {
		sb.WriteString(`<item id="x"><name>hello world foo bar</name><value>12345</value></item>`)
	}
	sb.WriteString("</root>")
	return sb.String()
}
