// Package xmltree implements the XML document model used throughout the
// reproduction: rooted, unordered, node-labeled trees T = (V, E, R, λ) as
// defined in Section 2.1 of the paper. Labels are drawn from a set of element
// names Σ and a data domain D; element nodes carry labels from Σ and text
// nodes carry values from D.
//
// The package provides parsing from and serialization to standard XML text,
// stable node identifiers ("universal identifiers" in the paper's
// terminology, also used as primary keys by the shredder), subtree updates
// (insert and delete), and accessibility annotations stored as a `sign`
// attribute — the representation the paper uses for the native XML store.
package xmltree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind discriminates element nodes (labels in Σ) from text nodes (values in
// the data domain D).
type Kind uint8

const (
	// Element is an XML element node; its Label is an element name.
	Element Kind = iota
	// Text is a character-data node; its Value is the datum.
	Text
)

// Sign is an accessibility annotation attached to a node. The paper writes
// these as "+" (accessible) and "−" (inaccessible); a node may also carry no
// annotation at all (SignNone), which the enforcement layer interprets
// according to the policy's default semantics.
type Sign uint8

const (
	// SignNone means the node carries no annotation.
	SignNone Sign = iota
	// SignPlus marks a node accessible.
	SignPlus
	// SignMinus marks a node inaccessible.
	SignMinus
)

// String renders the sign the way the paper prints it.
func (s Sign) String() string {
	switch s {
	case SignPlus:
		return "+"
	case SignMinus:
		return "-"
	default:
		return ""
	}
}

// ParseSign converts the textual form of a sign annotation back to a Sign.
func ParseSign(s string) (Sign, error) {
	switch s {
	case "+":
		return SignPlus, nil
	case "-", "−": // accept the typographic minus the paper prints
		return SignMinus, nil
	case "":
		return SignNone, nil
	default:
		return SignNone, fmt.Errorf("xmltree: invalid sign %q", s)
	}
}

// Node is a single node of an XML tree. Element nodes have a Label and may
// have children and attributes; text nodes have a Value and no children.
type Node struct {
	// ID is the node's universal identifier: unique within the owning
	// Document, assigned in document order at build time. The shredder uses
	// it as the relational primary key, so the relational and native
	// representations of the same document share node identities.
	ID int64
	// Kind says whether this is an element or a text node.
	Kind Kind
	// Label is the element name (empty for text nodes).
	Label string
	// Value is the character data (empty for element nodes).
	Value string
	// Sign is the node's accessibility annotation, if any.
	Sign Sign
	// Attrs holds XML attributes other than the reserved sign attribute.
	Attrs map[string]string

	parent   *Node
	children []*Node
}

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children. The returned slice is owned by the
// node; callers must not mutate it.
func (n *Node) Children() []*Node { return n.children }

// IsElement reports whether the node is an element node.
func (n *Node) IsElement() bool { return n.Kind == Element }

// IsText reports whether the node is a text node.
func (n *Node) IsText() bool { return n.Kind == Text }

// TextContent returns the concatenation of all text-node values in the
// subtree rooted at n, in document order. For a text node it is the value
// itself. This implements the notion of the "value" of an element used by
// XPath value comparisons such as med = "celecoxib".
func (n *Node) TextContent() string {
	if n.Kind == Text {
		return n.Value
	}
	if len(n.children) == 1 && n.children[0].Kind == Text {
		return n.children[0].Value
	}
	var b strings.Builder
	n.walk(func(m *Node) bool {
		if m.Kind == Text {
			b.WriteString(m.Value)
		}
		return true
	})
	return b.String()
}

// ChildElements returns the element children of n.
func (n *Node) ChildElements() []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		if c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits n and its descendants in document order; the visitor returns
// false to prune the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) { n.walk(visit) }

// walk visits n and its descendants in document order; the visitor returns
// false to prune the subtree below the visited node.
func (n *Node) walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.children {
		c.walk(visit)
	}
}

// Depth returns the number of edges from the root to n.
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Path returns a human-readable absolute location of the node, e.g.
// /site/people/person, useful in error messages and debug output.
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	var labels []string
	for m := n; m != nil; m = m.parent {
		switch m.Kind {
		case Element:
			labels = append(labels, m.Label)
		case Text:
			labels = append(labels, "text()")
		}
	}
	var b strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(labels[i])
	}
	return b.String()
}

// Document is an XML tree together with the bookkeeping the access-control
// system needs: an id→node index, a per-label element index and the
// universal-identifier counter used when new nodes are inserted.
//
// The label index is the per-tag node sequence of the paper's native store:
// byLabel[l] holds every element labeled l, once, in ascending ID order.
// Every update below keeps it current, so it is never rebuilt; readers that
// share a document with a writer need the same exclusion the tree does.
type Document struct {
	root    *Node
	byID    map[int64]*Node
	byLabel map[string][]*Node
	nextID  int64
}

// NewDocument creates a document with a fresh root element of the given
// label. The root receives id 1, matching the paper's Table 4 where the
// topmost shredded tuple has id 1.
func NewDocument(rootLabel string) *Document { return newDocument(rootLabel, 0) }

// newDocument is NewDocument with the id index sized for about sizeHint
// nodes, so a parse does not rehash it as the tree grows.
func newDocument(rootLabel string, sizeHint int) *Document {
	d := &Document{byID: make(map[int64]*Node, sizeHint), byLabel: make(map[string][]*Node), nextID: 1}
	d.root = &Node{ID: d.allocID(), Kind: Element, Label: rootLabel}
	d.register(d.root)
	return d
}

// register enters a node with a fresh id into both indexes. Fresh ids are
// above every id in use (allocID and SetNodeID keep nextID past them), so
// appending keeps each label list in ID order.
func (d *Document) register(n *Node) {
	d.byID[n.ID] = n
	if n.Kind == Element {
		d.byLabel[n.Label] = append(d.byLabel[n.Label], n)
	}
}

// searchID finds id in list, a label list in ascending ID order: the index
// where it is or would be inserted, and whether it is there.
func searchID(list []*Node, id int64) (int, bool) {
	return slices.BinarySearchFunc(list, id, func(m *Node, id int64) int { return cmp.Compare(m.ID, id) })
}

// removeAt removes the elements at the given positions from list, closing
// the gaps in one pass, so a delete moves each touched list's elements
// once rather than once per removed element. It moves whichever end of
// the list is shorter: the survivors before the first gap shift toward
// the tail, or those after the last gap toward the head.
func removeAt(list []*Node, pos []int) []*Node {
	slices.Sort(pos)
	if pos[0] < len(list)-1-pos[len(pos)-1] {
		w := pos[len(pos)-1] + 1
		for k := len(pos) - 1; k >= 0; k-- {
			start := 0
			if k > 0 {
				start = pos[k-1] + 1
			}
			w -= copy(list[w-(pos[k]-start):w], list[start:pos[k]])
		}
		clear(list[:w])
		return list[w:]
	}
	w := pos[0]
	for k, i := range pos {
		end := len(list)
		if k+1 < len(pos) {
			end = pos[k+1]
		}
		w += copy(list[w:], list[i+1:end])
	}
	clear(list[w:])
	return list[:w]
}

func (d *Document) allocID() int64 {
	id := d.nextID
	d.nextID++
	return id
}

// Root returns the document's root element.
func (d *Document) Root() *Node { return d.root }

// NodeByID returns the node with the given universal identifier, or nil if
// no such node exists (e.g. it was deleted).
func (d *Document) NodeByID(id int64) *Node { return d.byID[id] }

// Size returns the number of nodes currently in the document (elements and
// text nodes).
func (d *Document) Size() int { return len(d.byID) }

// ElementCount returns the number of element nodes in the document.
func (d *Document) ElementCount() int {
	n := 0
	for _, list := range d.byLabel {
		n += len(list)
	}
	return n
}

// ByLabel returns the elements labeled label in ascending ID order. The
// slice is the document's own label index: callers must not modify it, and
// it is valid only until the document's next update. ElementsByLabel
// returns a copy.
func (d *Document) ByLabel(label string) []*Node { return d.byLabel[label] }

// AddElement creates a new element node labeled label as a child of parent
// and returns it. parent must belong to this document.
func (d *Document) AddElement(parent *Node, label string) *Node {
	n := &Node{ID: d.allocID(), Kind: Element, Label: label, parent: parent}
	parent.children = append(parent.children, n)
	d.register(n)
	return n
}

// AddText creates a new text node with the given value as a child of parent
// and returns it.
func (d *Document) AddText(parent *Node, value string) *Node {
	n := &Node{ID: d.allocID(), Kind: Text, Value: value, parent: parent}
	parent.children = append(parent.children, n)
	d.byID[n.ID] = n
	return n
}

// SetAttr sets an ordinary XML attribute on an element node. The reserved
// sign attribute must be manipulated through the Sign field instead.
func (d *Document) SetAttr(n *Node, key, value string) error {
	if key == SignAttr {
		return fmt.Errorf("xmltree: attribute %q is reserved for accessibility annotations", SignAttr)
	}
	if n.Kind != Element {
		return fmt.Errorf("xmltree: cannot set attribute on non-element node %d", n.ID)
	}
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[key] = value
	return nil
}

// Walk visits every node of the document in document order. The visitor
// returns false to prune the subtree below the visited node.
func (d *Document) Walk(visit func(*Node) bool) {
	if d.root != nil {
		d.root.walk(visit)
	}
}

// Elements returns all element nodes in document order.
func (d *Document) Elements() []*Node {
	var out []*Node
	d.Walk(func(n *Node) bool {
		if n.Kind == Element {
			out = append(out, n)
		}
		return true
	})
	return out
}

// ElementsByLabel returns a copy of the elements with the given label, in
// ascending ID order, the order xpath.Eval returns. That is document order
// until an insert puts new, higher ids before existing nodes or SetNodeID
// renumbers one.
func (d *Document) ElementsByLabel(label string) []*Node {
	return slices.Clone(d.byLabel[label])
}

// Contains reports whether n belongs to this document (i.e. is reachable
// from the root and registered in the id index).
func (d *Document) Contains(n *Node) bool {
	if n == nil {
		return false
	}
	return d.byID[n.ID] == n
}

// DeleteSubtree removes the subtree rooted at n from the document. Deleting
// the root is rejected: the model requires a rooted tree at all times. This
// is the update operation the paper's re-annotation experiments use (delete
// updates specified by an XPath expression).
func (d *Document) DeleteSubtree(n *Node) error {
	if n == d.root {
		return fmt.Errorf("xmltree: cannot delete the document root")
	}
	if !d.Contains(n) {
		return fmt.Errorf("xmltree: node %d is not part of this document", n.ID)
	}
	p := n.parent
	idx := -1
	for i, c := range p.children {
		if c == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("xmltree: node %d not found among its parent's children", n.ID)
	}
	p.children = append(p.children[:idx], p.children[idx+1:]...)
	n.parent = nil
	// Find each removed element in its label list by binary search on its
	// id, then close each list's gaps at once.
	gone := map[string][]int{}
	n.walk(func(m *Node) bool {
		delete(d.byID, m.ID)
		if m.Kind == Element {
			if i, found := searchID(d.byLabel[m.Label], m.ID); found {
				gone[m.Label] = append(gone[m.Label], i)
			}
		}
		return true
	})
	for label, pos := range gone {
		if list := removeAt(d.byLabel[label], pos); len(list) > 0 {
			d.byLabel[label] = list
		} else {
			delete(d.byLabel, label)
		}
	}
	return nil
}

// InsertSubtree grafts the tree described by tmpl (a detached template built
// with NewSubtree/AddTemplateChild, cloned from another document, or a
// subtree of this one) under parent, assigning fresh universal identifiers
// to every inserted node. It returns the inserted copy's root. A parent at
// or below tmpl is rejected: the copy would grow the subtree it reads. This
// is the insert update of the paper's future-work section, which the
// re-annotation machinery here supports.
func (d *Document) InsertSubtree(parent *Node, tmpl *Node) (*Node, error) {
	if !d.Contains(parent) {
		return nil, fmt.Errorf("xmltree: parent node is not part of this document")
	}
	if parent.Kind != Element {
		return nil, fmt.Errorf("xmltree: cannot insert under a text node")
	}
	for m := parent; m != nil; m = m.parent {
		if m == tmpl {
			return nil, fmt.Errorf("xmltree: cannot insert a subtree under itself (parent %d)", parent.ID)
		}
	}
	var clone func(src *Node, dst *Node) *Node
	clone = func(src *Node, dstParent *Node) *Node {
		n := &Node{
			ID:     d.allocID(),
			Kind:   src.Kind,
			Label:  src.Label,
			Value:  src.Value,
			Sign:   src.Sign,
			parent: dstParent,
		}
		if len(src.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(src.Attrs))
			for k, v := range src.Attrs {
				n.Attrs[k] = v
			}
		}
		d.register(n)
		if dstParent != nil {
			dstParent.children = append(dstParent.children, n)
		}
		for _, c := range src.children {
			clone(c, n)
		}
		return n
	}
	return clone(tmpl, parent), nil
}

// SetNodeID reassigns a node's universal identifier, keeping the id index
// consistent and bumping the allocation counter past the new id. It is used
// when reconstructing a document from an external representation (e.g. the
// relational store) that recorded the original identifiers.
func (d *Document) SetNodeID(n *Node, id int64) error {
	if !d.Contains(n) {
		return fmt.Errorf("xmltree: node is not part of this document")
	}
	if id <= 0 {
		return fmt.Errorf("xmltree: invalid node id %d", id)
	}
	if other, taken := d.byID[id]; taken && other != n {
		return fmt.Errorf("xmltree: node id %d is already in use", id)
	}
	delete(d.byID, n.ID)
	if n.Kind == Element {
		// Move n to its sorted place: out at the old id, in at the new one.
		list := d.byLabel[n.Label]
		if i, found := searchID(list, n.ID); found {
			list = slices.Delete(list, i, i+1)
		}
		i, _ := searchID(list, id)
		d.byLabel[n.Label] = slices.Insert(list, i, n)
	}
	n.ID = id
	d.byID[id] = n
	if id >= d.nextID {
		d.nextID = id + 1
	}
	return nil
}

// Clone produces a deep copy of the document, preserving node ids and signs.
// The copy is fully independent of the original.
func (d *Document) Clone() *Document {
	out := &Document{byID: make(map[int64]*Node, len(d.byID)), nextID: d.nextID}
	var clone func(src *Node, parent *Node) *Node
	clone = func(src *Node, parent *Node) *Node {
		n := &Node{
			ID:     src.ID,
			Kind:   src.Kind,
			Label:  src.Label,
			Value:  src.Value,
			Sign:   src.Sign,
			parent: parent,
		}
		if len(src.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(src.Attrs))
			for k, v := range src.Attrs {
				n.Attrs[k] = v
			}
		}
		out.byID[n.ID] = n
		if parent != nil {
			parent.children = append(parent.children, n)
		}
		for _, c := range src.children {
			clone(c, n)
		}
		return n
	}
	if d.root != nil {
		out.root = clone(d.root, nil)
	}
	out.byLabel = make(map[string][]*Node, len(d.byLabel))
	for label, list := range d.byLabel {
		cp := make([]*Node, len(list))
		for i, m := range list {
			cp[i] = out.byID[m.ID]
		}
		out.byLabel[label] = cp
	}
	return out
}

// ClearSigns removes every accessibility annotation from the document,
// returning it to the unannotated state (the paper's "delete all annotations
// and annotate from scratch" baseline starts here).
func (d *Document) ClearSigns() {
	d.Walk(func(n *Node) bool {
		n.Sign = SignNone
		return true
	})
}

// SignCounts returns how many element nodes carry each annotation; useful
// for the coverage measurements of the evaluation (the paper evaluated
// actual coverage percentages after each annotation).
func (d *Document) SignCounts() (plus, minus, none int) {
	d.Walk(func(n *Node) bool {
		if n.Kind != Element {
			return true
		}
		switch n.Sign {
		case SignPlus:
			plus++
		case SignMinus:
			minus++
		default:
			none++
		}
		return true
	})
	return plus, minus, none
}

// NewSubtree builds a detached template element (not belonging to any
// document, id 0) for use with InsertSubtree.
func NewSubtree(label string) *Node {
	return &Node{Kind: Element, Label: label}
}

// AddTemplateChild appends a detached child element to a template node and
// returns the child.
func AddTemplateChild(parent *Node, label string) *Node {
	n := &Node{Kind: Element, Label: label, parent: parent}
	parent.children = append(parent.children, n)
	return n
}

// AddTemplateText appends a detached text child to a template node and
// returns it.
func AddTemplateText(parent *Node, value string) *Node {
	n := &Node{Kind: Text, Value: value, parent: parent}
	parent.children = append(parent.children, n)
	return n
}

// SortedIDs returns the ids of the given nodes in ascending order; handy for
// deterministic test output.
func SortedIDs(nodes []*Node) []int64 {
	ids := make([]int64, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
