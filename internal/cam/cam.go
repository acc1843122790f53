// Package cam implements a compressed accessibility map in the spirit of
// Yu, Srivastava, Lakshmanan and Jagadish ("A compressed accessibility map
// for XML", TODS 2004) — reference [26] of the reproduced paper, which
// names it as the more sophisticated technique for *storing* annotations
// that its own materialized per-node signs deliberately avoid.
//
// The map exploits accessibility locality: real policies tend to grant or
// deny whole regions, so instead of one sign per node the map stores only
// the nodes where accessibility *changes* relative to the nearest marked
// ancestor, plus a default at the (virtual) root. Lookup walks to the
// nearest marked ancestor-or-self — O(depth) — and the map's size is
// proportional to the policy's "fragmentation", not the document's size.
//
// The package interoperates with the rest of the system: a map can be built
// from any accessible-id set (e.g. core.System.AccessibleIDs or the
// brute-force policy semantics) or harvested from a document's materialized
// signs, and can be materialized back onto a document. The ablation
// benchmarks compare its size and lookup cost against the paper's direct
// representation.
package cam

import (
	"fmt"

	"xmlac/internal/xmltree"
)

// Map is a compressed accessibility map for one document.
type Map struct {
	// def is the accessibility inherited at the document root.
	def bool
	// marks holds the nodes whose accessibility differs from what they
	// would inherit; the value is their (and their unmarked descendants')
	// accessibility.
	marks map[int64]bool
}

// Build constructs the minimal subtree-inheritance encoding of an
// accessible-node set: a node is marked iff its accessibility differs from
// its nearest marked proper ancestor (or from defaultAccessible at the
// root). Text nodes inherit their parent's accessibility and are never
// marked.
func Build(doc *xmltree.Document, accessible map[int64]bool, defaultAccessible bool) *Map {
	m := &Map{def: defaultAccessible, marks: map[int64]bool{}}
	var walk func(n *xmltree.Node, inherited bool)
	walk = func(n *xmltree.Node, inherited bool) {
		cur := inherited
		if n.IsElement() {
			acc := accessible[n.ID]
			if acc != inherited {
				m.marks[n.ID] = acc
			}
			cur = acc
		}
		for _, c := range n.Children() {
			walk(c, cur)
		}
	}
	walk(doc.Root(), defaultAccessible)
	return m
}

// FromSigns harvests a map from a document's materialized sign annotations,
// interpreting unannotated nodes per the given default — the bridge from
// the paper's representation to the compressed one.
func FromSigns(doc *xmltree.Document, defaultAccessible bool) *Map {
	accessible := map[int64]bool{}
	doc.Walk(func(n *xmltree.Node) bool {
		if !n.IsElement() {
			return true
		}
		switch n.Sign {
		case xmltree.SignPlus:
			accessible[n.ID] = true
		case xmltree.SignMinus:
			// explicit deny
		default:
			if defaultAccessible {
				accessible[n.ID] = true
			}
		}
		return true
	})
	return Build(doc, accessible, defaultAccessible)
}

// Accessible reports the node's accessibility: the value at the nearest
// marked ancestor-or-self, or the default when none is marked.
func (m *Map) Accessible(n *xmltree.Node) bool {
	for cur := n; cur != nil; cur = cur.Parent() {
		if v, ok := m.marks[cur.ID]; ok {
			return v
		}
	}
	return m.def
}

// Size returns the number of stored marks — the compression metric.
func (m *Map) Size() int { return len(m.marks) }

// Forget drops the marks of the given ids, the elements a delete removed,
// and reports how many it dropped. The other marks are kept, so the map
// stays minimal as long as no remaining node's accessibility changed: a
// node's mark depends only on its own and its parent's accessibility.
func (m *Map) Forget(ids []int64) int {
	dropped := 0
	for _, id := range ids {
		if _, ok := m.marks[id]; ok {
			delete(m.marks, id)
			dropped++
		}
	}
	return dropped
}

// Apply materializes the map back onto the document's sign annotations
// (every element gets an explicit sign), for verification and export.
func (m *Map) Apply(doc *xmltree.Document) {
	var walk func(n *xmltree.Node, inherited bool)
	walk = func(n *xmltree.Node, inherited bool) {
		cur := inherited
		if n.IsElement() {
			if v, ok := m.marks[n.ID]; ok {
				cur = v
			}
			if cur {
				n.Sign = xmltree.SignPlus
			} else {
				n.Sign = xmltree.SignMinus
			}
		}
		for _, c := range n.Children() {
			walk(c, cur)
		}
	}
	walk(doc.Root(), m.def)
}

// AccessibleIDs expands the map to the full accessible element-id set.
func (m *Map) AccessibleIDs(doc *xmltree.Document) map[int64]bool {
	out := map[int64]bool{}
	var walk func(n *xmltree.Node, inherited bool)
	walk = func(n *xmltree.Node, inherited bool) {
		cur := inherited
		if n.IsElement() {
			if v, ok := m.marks[n.ID]; ok {
				cur = v
			}
			if cur {
				out[n.ID] = true
			}
		}
		for _, c := range n.Children() {
			walk(c, cur)
		}
	}
	walk(doc.Root(), m.def)
	return out
}

// String summarizes the map.
func (m *Map) String() string {
	d := "-"
	if m.def {
		d = "+"
	}
	return fmt.Sprintf("cam{default %s, %d marks}", d, len(m.marks))
}
