package core

import (
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// writeRegion bounds what one write can change in the policy's decisions,
// so the System keeps them current by re-deciding only the write's
// region, once per write: the same membership patches the decision set
// and feeds the signs enforcer's sign write.
//
// The region is sound for XP(/,//,*,[]): qualifiers only look downward,
// so a write can change a qualifier's truth only at an ancestor-or-self
// of the node it changed below, and a qualifier is only evaluated at
// nodes passing its step's test. Membership in a rule's scope can
// therefore only change inside the subtree of the highest such ancestor —
// or, when there is none, only for the inserted nodes themselves.
type writeRegion struct {
	rw *xpath.Rewriter // the read policy's allow/deny paths and Table 2 algebra

	// predLabels are the node tests of the predicated steps of the rule
	// paths; predAny is set when such a step has a * test or is a self
	// step, i.e. matches every label.
	predLabels map[string]bool
	predAny    bool
}

func newWriteRegion(rw *xpath.Rewriter) *writeRegion {
	r := &writeRegion{rw: rw, predLabels: map[string]bool{}}
	for _, paths := range [][]*xpath.Path{rw.Allow, rw.Deny} {
		for _, p := range paths {
			for _, st := range p.Steps {
				switch {
				case len(st.Preds) == 0:
				case st.Axis == xpath.Self || st.Test == xpath.Wildcard:
					r.predAny = true
				default:
					r.predLabels[st.Test] = true
				}
			}
		}
	}
	return r
}

// writeDelta is what one applied write changed in the tree: the element
// ids it removed, the number of tree nodes (elements and text) it
// removed, the parents of the removed subtrees, and the roots of the
// inserted ones.
type writeDelta struct {
	deleted  map[string][]int64
	removed  int
	parents  []*xmltree.Node
	inserted []*xmltree.Node
}

// changed reports whether the write changed the tree at all.
func (d writeDelta) changed() bool { return len(d.parents) > 0 || len(d.inserted) > 0 }

// roots returns the roots of the subtrees in which the write d, already
// applied to doc, can have changed a decision; whole is set instead when
// one of them would be the whole document. The roots are pairwise
// disjoint: a root is the highest qualifying ancestor of its anchor, so it
// cannot lie below another.
func (r *writeRegion) roots(doc *xmltree.Document, d writeDelta) (roots []*xmltree.Node, whole bool) {
	seen := map[*xmltree.Node]bool{}
	add := func(anchor, fallback *xmltree.Node) bool {
		root := r.regionRoot(anchor)
		if root == doc.Root() {
			return false
		}
		if root == nil {
			root = fallback
		}
		if root != nil && !seen[root] {
			seen[root] = true
			roots = append(roots, root)
		}
		return true
	}
	for _, p := range d.parents {
		if !add(p, nil) {
			return nil, true
		}
	}
	for _, n := range d.inserted {
		if !add(n.Parent(), n) {
			return nil, true
		}
	}
	return roots, false
}

// regionRoot returns the highest ancestor-or-self of anchor whose label
// is the test of a predicated rule step, or nil when there is none.
func (r *writeRegion) regionRoot(anchor *xmltree.Node) *xmltree.Node {
	var root *xmltree.Node
	for m := anchor; m != nil; m = m.Parent() {
		if r.predAny || r.predLabels[m.Label] {
			root = m
		}
	}
	return root
}

// selectsAny reports whether n lies in the union of the given scopes.
func selectsAny(paths []*xpath.Path, n *xmltree.Node) bool {
	for _, p := range paths {
		if xpath.Selects(p, n) {
			return true
		}
	}
	return false
}

// decided is one element of a write's region with its re-decided scope
// membership.
type decided struct {
	id          int64
	allow, deny bool
}

// decide re-decides every element under roots against each rule with
// xpath.Selects.
func (r *writeRegion) decide(roots []*xmltree.Node) []decided {
	var out []decided
	for _, root := range roots {
		root.Walk(func(n *xmltree.Node) bool {
			if n.IsElement() {
				out = append(out, decided{id: n.ID, allow: selectsAny(r.rw.Allow, n), deny: selectsAny(r.rw.Deny, n)})
			}
			return true
		})
	}
	return out
}
