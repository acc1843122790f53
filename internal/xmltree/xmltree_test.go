package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDocumentRootID(t *testing.T) {
	d := NewDocument("site")
	if d.Root().ID != 1 {
		t.Fatalf("root id = %d, want 1", d.Root().ID)
	}
	if d.Root().Label != "site" {
		t.Fatalf("root label = %q", d.Root().Label)
	}
	if d.Size() != 1 {
		t.Fatalf("size = %d, want 1", d.Size())
	}
}

func TestAddElementAssignsDocumentOrderIDs(t *testing.T) {
	d := NewDocument("a")
	b := d.AddElement(d.Root(), "b")
	c := d.AddElement(d.Root(), "c")
	e := d.AddElement(b, "e")
	if b.ID != 2 || c.ID != 3 || e.ID != 4 {
		t.Fatalf("ids = %d,%d,%d want 2,3,4", b.ID, c.ID, e.ID)
	}
	if d.NodeByID(4) != e {
		t.Fatalf("NodeByID(4) mismatch")
	}
}

func TestParseSimple(t *testing.T) {
	doc, err := ParseString(`<a><b>hello</b><c x="1"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root.Label != "a" {
		t.Fatalf("root = %q", root.Label)
	}
	kids := root.ChildElements()
	if len(kids) != 2 {
		t.Fatalf("children = %d, want 2", len(kids))
	}
	if kids[0].Label != "b" || kids[1].Label != "c" {
		t.Fatalf("child labels %q %q", kids[0].Label, kids[1].Label)
	}
	if got := kids[0].TextContent(); got != "hello" {
		t.Fatalf("text content = %q", got)
	}
	if kids[1].Attrs["x"] != "1" {
		t.Fatalf("attr x = %q", kids[1].Attrs["x"])
	}
}

func TestParseSignAttribute(t *testing.T) {
	doc, err := ParseString(`<a sign="+"><b sign="-"/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Sign != SignPlus {
		t.Fatalf("root sign = %v", doc.Root().Sign)
	}
	kids := doc.Root().ChildElements()
	if kids[0].Sign != SignMinus || kids[1].Sign != SignNone {
		t.Fatalf("child signs = %v %v", kids[0].Sign, kids[1].Sign)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a sign="?"/>`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestParseDropsInsignificantWhitespace(t *testing.T) {
	doc, err := ParseString("<a>\n  <b>x</b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	// Only a, b, and the text node "x" should exist.
	if doc.Size() != 3 {
		t.Fatalf("size = %d, want 3", doc.Size())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	in := `<a><b k="v">hi</b><c/><d>1</d></a>`
	doc, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	out := doc.String()
	if out != in {
		t.Fatalf("round trip: got %q want %q", out, in)
	}
}

func TestSerializeSigns(t *testing.T) {
	doc, err := ParseString(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.Root().Sign = SignMinus
	doc.Root().ChildElements()[0].Sign = SignPlus
	got := doc.StringAnnotated()
	if !strings.Contains(got, `<a sign="-">`) || !strings.Contains(got, `<b sign="+"/>`) {
		t.Fatalf("annotated output missing signs:\n%s", got)
	}
	// Compact form must omit signs.
	if strings.Contains(doc.String(), "sign") {
		t.Fatalf("compact form leaked signs: %s", doc.String())
	}
}

func TestEscaping(t *testing.T) {
	d := NewDocument("a")
	d.AddText(d.Root(), `x < y & "z"`)
	b := d.AddElement(d.Root(), "b")
	if err := d.SetAttr(b, "k", `a"b<c`); err != nil {
		t.Fatal(err)
	}
	out := d.String()
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if got := re.Root().Children()[0].Value; got != `x < y & "z"` {
		t.Fatalf("text = %q", got)
	}
	if got := re.Root().ChildElements()[0].Attrs["k"]; got != `a"b<c` {
		t.Fatalf("attr = %q", got)
	}
}

func TestDeleteSubtree(t *testing.T) {
	doc, err := ParseString(`<a><b><c/></b><d/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Root().ChildElements()[0]
	cID := b.ChildElements()[0].ID
	if err := doc.DeleteSubtree(b); err != nil {
		t.Fatal(err)
	}
	if doc.NodeByID(b.ID) != nil || doc.NodeByID(cID) != nil {
		t.Fatalf("deleted nodes still indexed")
	}
	if got := doc.String(); got != `<a><d/></a>` {
		t.Fatalf("after delete: %s", got)
	}
	// Deleting again must fail.
	if err := doc.DeleteSubtree(b); err == nil {
		t.Fatalf("double delete succeeded")
	}
}

func TestDeleteRootRejected(t *testing.T) {
	doc := NewDocument("a")
	if err := doc.DeleteSubtree(doc.Root()); err == nil {
		t.Fatal("expected error deleting root")
	}
}

func TestInsertSubtree(t *testing.T) {
	doc := NewDocument("a")
	tmpl := NewSubtree("t")
	m := AddTemplateChild(tmpl, "m")
	AddTemplateText(m, "v")
	n, err := doc.InsertSubtree(doc.Root(), tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if n.Parent() != doc.Root() {
		t.Fatalf("inserted parent wrong")
	}
	if doc.String() != `<a><t><m>v</m></t></a>` {
		t.Fatalf("after insert: %s", doc.String())
	}
	// Fresh ids assigned.
	if n.ID == 0 || n.ChildElements()[0].ID == 0 {
		t.Fatalf("inserted nodes missing ids")
	}
	if !doc.Contains(n) {
		t.Fatalf("inserted node not indexed")
	}
}

// TestInsertSubtreeUnderItselfRejected: a parent at or below the template
// is refused before any node is created; a template from elsewhere in the
// same document still copies.
func TestInsertSubtreeUnderItselfRejected(t *testing.T) {
	doc, err := ParseString(`<a><b><c/></b><d/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Root().ChildElements()[0]
	c, d := b.ChildElements()[0], doc.Root().ChildElements()[1]
	for _, c := range []struct{ parent, tmpl *Node }{{b, doc.Root()}, {c, b}, {b, b}} {
		if _, err := doc.InsertSubtree(c.parent, c.tmpl); err == nil {
			t.Fatalf("grafting %s under %s succeeded", c.tmpl.Label, c.parent.Label)
		}
	}
	if doc.String() != `<a><b><c/></b><d/></a>` || doc.Size() != 4 || len(doc.ByLabel("b")) != 1 {
		t.Fatalf("a refused insert changed the document: %s", doc)
	}
	if _, err := doc.InsertSubtree(d, b); err != nil {
		t.Fatal(err)
	}
	if doc.String() != `<a><b><c/></b><d><b><c/></b></d></a>` || len(doc.ByLabel("c")) != 2 {
		t.Fatalf("after copying b under d: %s", doc)
	}
}

func TestInsertUnderTextRejected(t *testing.T) {
	doc := NewDocument("a")
	txt := doc.AddText(doc.Root(), "v")
	if _, err := doc.InsertSubtree(txt, NewSubtree("x")); err == nil {
		t.Fatal("expected error inserting under text node")
	}
}

func TestCloneIndependence(t *testing.T) {
	doc, err := ParseString(`<a><b>x</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.Root().Sign = SignPlus
	cp := doc.Clone()
	if cp.String() != doc.String() {
		t.Fatalf("clone differs")
	}
	if cp.Root().Sign != SignPlus {
		t.Fatalf("clone lost sign")
	}
	// Mutating the clone must not affect the original.
	cp.AddElement(cp.Root(), "new")
	if strings.Contains(doc.String(), "new") {
		t.Fatalf("clone mutation leaked into original")
	}
	// Node ids preserved.
	if cp.Root().ID != doc.Root().ID {
		t.Fatalf("clone changed ids")
	}
}

func TestClearSignsAndCounts(t *testing.T) {
	doc, _ := ParseString(`<a><b/><c/><d/></a>`)
	els := doc.Elements()
	els[1].Sign = SignPlus
	els[2].Sign = SignMinus
	p, m, n := doc.SignCounts()
	if p != 1 || m != 1 || n != 2 {
		t.Fatalf("counts = %d,%d,%d", p, m, n)
	}
	doc.ClearSigns()
	p, m, n = doc.SignCounts()
	if p != 0 || m != 0 || n != 4 {
		t.Fatalf("after clear: %d,%d,%d", p, m, n)
	}
}

func TestTextContentAggregates(t *testing.T) {
	doc, _ := ParseString(`<a><b>x</b><c><d>y</d></c></a>`)
	if got := doc.Root().TextContent(); got != "xy" {
		t.Fatalf("TextContent = %q", got)
	}
}

func TestNodePathAndDepth(t *testing.T) {
	doc, _ := ParseString(`<a><b><c/></b></a>`)
	c := doc.Root().ChildElements()[0].ChildElements()[0]
	if c.Path() != "/a/b/c" {
		t.Fatalf("path = %q", c.Path())
	}
	if c.Depth() != 2 {
		t.Fatalf("depth = %d", c.Depth())
	}
}

func TestElementsByLabel(t *testing.T) {
	doc, _ := ParseString(`<a><b/><c><b/></c></a>`)
	bs := doc.ElementsByLabel("b")
	if len(bs) != 2 || bs[0].ID >= bs[1].ID {
		t.Fatalf("found %v, want two b elements in ID order", SortedIDs(bs))
	}
	// The result is a copy: changing it leaves the label index alone.
	bs[0] = doc.Root()
	if doc.ByLabel("b")[0].Label != "b" {
		t.Fatal("ElementsByLabel returned the document's own label list")
	}
	if doc.ElementCount() != 4 || len(doc.ElementsByLabel("z")) != 0 {
		t.Fatalf("ElementCount = %d, want 4", doc.ElementCount())
	}
}

func TestSetAttrReservedSign(t *testing.T) {
	doc := NewDocument("a")
	if err := doc.SetAttr(doc.Root(), SignAttr, "+"); err == nil {
		t.Fatal("expected reserved-attribute error")
	}
}

func TestParseSignValues(t *testing.T) {
	for in, want := range map[string]Sign{"+": SignPlus, "-": SignMinus, "": SignNone} {
		got, err := ParseSign(in)
		if err != nil || got != want {
			t.Errorf("ParseSign(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSign("x"); err == nil {
		t.Error("ParseSign(x) should fail")
	}
}

// randomDoc builds a random tree with the given rng; used by the round-trip
// property test.
func randomDoc(r *rand.Rand) *Document {
	labels := []string{"a", "b", "c", "d", "e"}
	d := NewDocument(labels[r.Intn(len(labels))])
	nodes := []*Node{d.Root()}
	n := 1 + r.Intn(40)
	for i := 0; i < n; i++ {
		p := nodes[r.Intn(len(nodes))]
		if r.Intn(5) == 0 {
			d.AddText(p, "v"+labels[r.Intn(len(labels))])
			continue
		}
		c := d.AddElement(p, labels[r.Intn(len(labels))])
		nodes = append(nodes, c)
	}
	return d
}

func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		out := d.String()
		re, err := ParseString(out)
		if err != nil {
			t.Logf("reparse error: %v for %q", err, out)
			return false
		}
		return re.String() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeleteShrinksSize(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		els := d.Elements()
		if len(els) < 2 {
			return true
		}
		victim := els[1+r.Intn(len(els)-1)]
		before := d.Size()
		sub := 0
		victim.walk(func(*Node) bool { sub++; return true })
		if err := d.DeleteSubtree(victim); err != nil {
			return false
		}
		return d.Size() == before-sub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// idIndexMatchesWalk checks the id index against a walk of the tree: every
// node is found under its id and no other node is counted.
func idIndexMatchesWalk(d *Document) bool {
	n := 0
	ok := true
	d.Walk(func(m *Node) bool {
		n++
		ok = ok && d.NodeByID(m.ID) == m && d.Contains(m)
		return true
	})
	return ok && d.Size() == n
}

// TestFarNodeIDStaysOutOfSlice: an id set far past the id slice's end is
// found, moved, cloned and deleted like any other, without growing the
// slice to it.
func TestFarNodeIDStaysOutOfSlice(t *testing.T) {
	d := NewDocument("a")
	b := d.AddElement(d.Root(), "b")
	d.AddText(b, "x")
	slots := len(d.byID)
	const far = int64(1) << 40
	if err := d.SetNodeID(b, far); err != nil {
		t.Fatal(err)
	}
	if len(d.byID) != slots {
		t.Fatalf("id slice grew from %d to %d slots", slots, len(d.byID))
	}
	if d.NodeByID(far) != b || d.NodeByID(2) != nil || !idIndexMatchesWalk(d) {
		t.Fatalf("far id not indexed: NodeByID(far)=%v NodeByID(2)=%v size=%d", d.NodeByID(far), d.NodeByID(2), d.Size())
	}
	// Ids allocated after a far id continue past it.
	c := d.AddElement(d.Root(), "c")
	if c.ID != far+1 || d.NodeByID(far+1) != c {
		t.Fatalf("next id = %d, want %d", c.ID, far+1)
	}
	// A far id moves back into the slice.
	if err := d.SetNodeID(c, 2); err != nil {
		t.Fatal(err)
	}
	if d.NodeByID(far+1) != nil || d.NodeByID(2) != c || !idIndexMatchesWalk(d) {
		t.Fatalf("id 2 not indexed after a move from %d", far+1)
	}
	if err := d.SetNodeID(b, 2); err == nil {
		t.Fatal("SetNodeID to an id in use succeeded")
	}
	cp := d.Clone()
	if cp.NodeByID(far).Label != "b" || !idIndexMatchesWalk(cp) {
		t.Fatal("clone lost the far id")
	}
	if err := d.DeleteSubtree(b); err != nil {
		t.Fatal(err)
	}
	if d.NodeByID(far) != nil || !idIndexMatchesWalk(d) || d.Size() != 2 {
		t.Fatalf("after deleting the far-id subtree: size %d", d.Size())
	}
	if !idIndexMatchesWalk(cp) || cp.Size() != 4 {
		t.Fatal("deleting from the original changed the clone")
	}
}

// TestQuickIDIndexMatchesWalk: under random id changes (near and far),
// deletes, inserts and clones, and on a reparse, the id index finds every
// node of the tree and counts nothing else.
func TestQuickIDIndexMatchesWalk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		for step := 0; step < 8; step++ {
			var nodes []*Node
			d.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
			switch r.Intn(4) {
			case 0:
				id := 1 + r.Int63n(int64(2*len(nodes)+2))
				if r.Intn(2) == 0 {
					id += 1 << 30
				}
				_ = d.SetNodeID(nodes[r.Intn(len(nodes))], id)
			case 1:
				if len(nodes) > 1 {
					_ = d.DeleteSubtree(nodes[1+r.Intn(len(nodes)-1)])
				}
			case 2:
				if p := nodes[r.Intn(len(nodes))]; p.Kind == Element {
					_, _ = d.InsertSubtree(p, randomDoc(r).Root())
				}
			case 3:
				d = d.Clone()
			}
			if !idIndexMatchesWalk(d) {
				return false
			}
		}
		re, err := ParseString(d.String())
		return err == nil && idIndexMatchesWalk(re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
