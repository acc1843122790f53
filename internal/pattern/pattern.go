// Package pattern implements tree patterns for the paper's XPath fragment
// and the homomorphism-based containment test used by the optimizer
// (Section 5.1), the dependency-graph construction and the Trigger algorithm
// (Section 5.3). It corresponds to the external XPath-containment checker
// the paper's implementation shelled out to [13], following the classical
// construction of Miklau and Suciu [18].
//
// An XPath expression p compiles to a boolean tree pattern: nodes labeled
// with element names or the wildcard, edges labeled child or descendant, a
// distinguished root (the virtual document node) and a distinguished output
// node. p ⊑ q holds whenever there is a homomorphism from q's pattern into
// p's pattern that maps root to root and output to output, preserves labels
// (a wildcard in q matches anything), maps child edges onto child edges, and
// descendant edges onto downward paths of length ≥ 1.
//
// The homomorphism test is sound for the whole fragment: if Contains(p, q)
// reports true then [[p]](T) ⊆ [[q]](T) on every tree T. It is complete on
// the wildcard-free and the predicate-free subfragments but — like every
// polynomial-time test, since containment for XP(/,//,*,[]) is
// coNP-complete — may answer false on some contained pairs that combine
// wildcards, descendants and qualifiers. The access-control algorithms only
// rely on soundness.
package pattern

import (
	"xmlac/internal/xpath"
)

// rootLabel is the reserved label of the virtual document node; it can never
// clash with an element name because element names cannot contain '#'.
const rootLabel = "#root"

// valueConstraint is a comparison attached to a pattern node: the node's
// string value must satisfy (op, lit).
type valueConstraint struct {
	op  xpath.CmpOp
	lit xpath.Literal
}

// pnode is a tree-pattern node.
type pnode struct {
	label string
	// descendant reports the label of the edge from the parent: false for a
	// child edge, true for a descendant edge. Unused on the root.
	descendant bool
	// children index the node's children in the tree's node slice.
	children []int32
	// cons are the value constraints that apply directly to this node.
	cons []valueConstraint
}

// tree is the boolean tree pattern of one or-free absolute path. nodes[0]
// is the root; out is the node the path selects.
type tree struct {
	nodes []pnode
	out   int32
}

// Pattern is an absolute path compiled into the tree patterns of its
// or-free disjuncts, so that one compilation serves any number of
// containment tests. A relative path, or one whose DNF would overflow,
// compiles to a pattern with no disjuncts, which Contains answers false
// for on either side.
type Pattern struct {
	trees []tree
}

// Compile builds the pattern of p. Disjunctive qualifiers (the Or
// extension) leave the tree-pattern formalism, so p is first rewritten to
// DNF and each disjunct compiled on its own.
func Compile(p *xpath.Path) *Pattern {
	if !p.Absolute {
		return &Pattern{}
	}
	ds, ok := p.DNF()
	if !ok {
		return &Pattern{} // DNF blow-up: stay conservative
	}
	c := &Pattern{trees: make([]tree, len(ds))}
	for i, d := range ds {
		c.trees[i] = compile(d)
	}
	return c
}

// compile builds the tree pattern of an or-free absolute path.
func compile(p *xpath.Path) tree {
	t := tree{nodes: []pnode{{label: rootLabel}}}
	cur := int32(0)
	for _, s := range p.Steps {
		cur = t.attachStep(cur, s)
	}
	t.out = cur
	return t
}

// attachStep adds step s as a child of node n, grafts its qualifiers onto
// the new node and returns that node's index.
func (t *tree) attachStep(n int32, s *xpath.Step) int32 {
	c := int32(len(t.nodes))
	t.nodes = append(t.nodes, pnode{label: s.Test, descendant: s.Axis == xpath.Descendant})
	t.nodes[n].children = append(t.nodes[n].children, c)
	for _, q := range s.Preds {
		t.attachPred(c, q)
	}
	return c
}

// attachPred grafts a qualifier onto pattern node n. Or qualifiers never
// reach here (Compile rewrites them away first); treating one as a
// conjunction would be unsound for the left side of a containment, so the
// case is deliberately absent.
func (t *tree) attachPred(n int32, q *xpath.Pred) {
	switch q.Kind {
	case xpath.And:
		t.attachPred(n, q.Left)
		t.attachPred(n, q.Right)
	case xpath.Exists:
		t.attachPath(n, q.Path, nil)
	case xpath.Cmp:
		t.attachPath(n, q.Path, &valueConstraint{op: q.Op, lit: q.Value})
	}
}

// attachPath grafts a relative qualifier path under n, putting the optional
// value constraint on the path's final node. A bare "." path (zero steps)
// attaches the constraint to n itself.
func (t *tree) attachPath(n int32, p *xpath.Path, con *valueConstraint) {
	cur := n
	for _, s := range p.Steps {
		cur = t.attachStep(cur, s)
	}
	if con != nil {
		t.nodes[cur].cons = append(t.nodes[cur].cons, *con)
	}
}

// Contains reports whether p ⊑ q, i.e. [[p]](T) ⊆ [[q]](T) for every tree T.
// Both paths must be absolute. The test is sound; see the package comment
// for the completeness boundary. A caller that tests one path against many
// compiles it once and uses Pattern.Contains.
func Contains(p, q *xpath.Path) bool {
	return Compile(p).Contains(Compile(q))
}

// Contains reports whether c ⊑ d: every disjunct of c is contained in some
// disjunct of d. (Sound: each disjunct of d is contained in d.)
func (c *Pattern) Contains(d *Pattern) bool {
	if len(c.trees) == 0 || len(d.trees) == 0 {
		return false
	}
	for i := range c.trees {
		found := false
		for j := range d.trees {
			if embeds(&d.trees[j], &c.trees[i]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Equivalent reports whether the two expressions are contained in each other
// (hence select the same node set on every tree, up to the soundness caveat).
func Equivalent(p, q *xpath.Path) bool {
	return Contains(p, q) && Contains(q, p)
}

// DisjointByLabel reports a *sound* syntactic disjointness: when both paths
// end in distinct concrete labels, every node selected by p has a different
// label from every node selected by q, so [[p]](T) ∩ [[q]](T) = ∅ on every
// tree. Returning false means "possibly overlapping".
func DisjointByLabel(p, q *xpath.Path) bool {
	lp, lq := p.LastLabel(), q.LastLabel()
	return lp != xpath.Wildcard && lq != xpath.Wildcard && lp != lq
}

// memoInline is the memo size, in entries, that embeds keeps on its stack;
// the patterns Trigger compares (a rule linearization against an update
// locator) fit in it.
const memoInline = 256

// embeds reports whether there is a homomorphism from q into p that maps
// root to root and output to output. Since output must map to output, a
// pair whose output labels disagree is refused before any search.
func embeds(q, p *tree) bool {
	if !labelOK(&q.nodes[q.out], &p.nodes[p.out]) {
		return false
	}
	n := len(q.nodes) * len(p.nodes)
	var buf [memoInline]int8
	memo := buf[:]
	if 2*n > len(buf) {
		memo = make([]int8, 2*n)
	}
	h := homChecker{q: q, p: p, np: len(p.nodes), embed: memo[:n], below: memo[n : 2*n]}
	return h.canEmbed(0, 0)
}

// homChecker memoizes the two dynamic-programming tables of the classical
// containment test, indexed by q node × p node: embed — the pattern subtree
// rooted at the q node embeds with h(q) = p — and below — the q node embeds
// at some node strictly below p.
type homChecker struct {
	q, p         *tree
	np           int
	embed, below []int8 // 0 unknown, 1 true, 2 false
}

func (h *homChecker) canEmbed(qi, pi int32) bool {
	key := int(qi)*h.np + int(pi)
	if v := h.embed[key]; v != 0 {
		return v == 1
	}
	// Optimistically mark false to terminate; patterns are trees (acyclic),
	// so no recursive self-dependency actually occurs.
	h.embed[key] = 2
	q, p := &h.q.nodes[qi], &h.p.nodes[pi]
	ok := (qi != h.q.out || pi == h.p.out) && labelOK(q, p) && consOK(q, p)
	if ok {
		for _, qc := range q.children {
			if h.q.nodes[qc].descendant {
				if !h.canEmbedBelow(qc, pi) {
					ok = false
					break
				}
			} else {
				found := false
				for _, pc := range p.children {
					if !h.p.nodes[pc].descendant && h.canEmbed(qc, pc) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
		}
	}
	if ok {
		h.embed[key] = 1
	}
	return ok
}

// canEmbedBelow reports whether q embeds at some pattern node reachable from
// p by one or more edges. Any edge of P guarantees at least one tree level,
// so walking one or more P edges witnesses "strictly below".
func (h *homChecker) canEmbedBelow(qi, pi int32) bool {
	key := int(qi)*h.np + int(pi)
	if v := h.below[key]; v != 0 {
		return v == 1
	}
	h.below[key] = 2
	for _, pc := range h.p.nodes[pi].children {
		if h.canEmbed(qi, pc) || h.canEmbedBelow(qi, pc) {
			h.below[key] = 1
			return true
		}
	}
	return false
}

// labelOK: the q node's test admits the p node's label. The reserved root
// label only matches itself; the wildcard does not match it, since it
// stands for the document, not an element.
func labelOK(q, p *pnode) bool {
	if q.label == rootLabel || p.label == rootLabel {
		return q.label == p.label
	}
	if q.label == xpath.Wildcard {
		return true
	}
	if p.label == xpath.Wildcard {
		// A concrete q label cannot be guaranteed by a wildcard p node.
		return false
	}
	return q.label == p.label
}

// consOK: every value constraint required by q is implied by some constraint
// p places on the node.
func consOK(q, p *pnode) bool {
	for _, qc := range q.cons {
		ok := false
		for _, pc := range p.cons {
			if implies(pc, qc) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// implies reports whether every value satisfying constraint a also satisfies
// constraint b. The check is conservative: implications are only derived
// between two numeric or two string constraints; anything uncertain returns
// false, preserving soundness of the containment test.
func implies(a, b valueConstraint) bool {
	if a.lit.IsNum != b.lit.IsNum {
		return false
	}
	if !a.lit.IsNum {
		// String constraints support only = and !=.
		switch {
		case a.op == xpath.Eq && b.op == xpath.Eq:
			return a.lit.Str == b.lit.Str
		case a.op == xpath.Eq && b.op == xpath.Ne:
			return a.lit.Str != b.lit.Str
		case a.op == xpath.Ne && b.op == xpath.Ne:
			return a.lit.Str == b.lit.Str
		default:
			return false
		}
	}
	va, vb := a.lit.Num, b.lit.Num
	switch a.op {
	case xpath.Eq:
		// x = va implies b(x) iff va itself satisfies b.
		return satisfiesNum(va, b.op, vb)
	case xpath.Ne:
		return b.op == xpath.Ne && va == vb
	case xpath.Gt: // x > va
		switch b.op {
		case xpath.Gt:
			return vb <= va
		case xpath.Ge:
			return vb <= va
		case xpath.Ne:
			return vb <= va
		}
	case xpath.Ge: // x >= va
		switch b.op {
		case xpath.Gt:
			return vb < va
		case xpath.Ge:
			return vb <= va
		case xpath.Ne:
			return vb < va
		}
	case xpath.Lt: // x < va
		switch b.op {
		case xpath.Lt:
			return vb >= va
		case xpath.Le:
			return vb >= va
		case xpath.Ne:
			return vb >= va
		}
	case xpath.Le: // x <= va
		switch b.op {
		case xpath.Lt:
			return vb > va
		case xpath.Le:
			return vb >= va
		case xpath.Ne:
			return vb > va
		}
	}
	return false
}

func satisfiesNum(x float64, op xpath.CmpOp, v float64) bool {
	switch op {
	case xpath.Eq:
		return x == v
	case xpath.Ne:
		return x != v
	case xpath.Lt:
		return x < v
	case xpath.Le:
		return x <= v
	case xpath.Gt:
		return x > v
	case xpath.Ge:
		return x >= v
	}
	return false
}
