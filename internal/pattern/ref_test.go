package pattern

import "xmlac/internal/xpath"

// This file freezes the per-call containment test as the reference the
// compiled Pattern.Contains is held to: each call compiles both paths into
// pointer-linked tree patterns with a synthetic output-marker child, and
// searches for a homomorphism with fresh map memos. It shares nothing with
// pattern.go but the value-constraint implication (implies).

// refOutputMarker is the reserved label of the synthetic child attached to
// each reference pattern's output node. Requiring the homomorphism to map
// marker to marker forces it to map output to output.
const refOutputMarker = "#output"

// refNode is a reference tree-pattern node.
type refNode struct {
	label      string
	descendant bool
	children   []*refNode
	cons       []valueConstraint
}

// refContains is the reference for Contains.
func refContains(p, q *xpath.Path) bool {
	if !p.Absolute || !q.Absolute {
		return false
	}
	if p.HasOr() || q.HasOr() {
		pd, ok1 := p.DNF()
		qd, ok2 := q.DNF()
		if !ok1 || !ok2 {
			return false
		}
		for _, pi := range pd {
			found := false
			for _, qi := range qd {
				if refContains(pi, qi) {
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
	h := &refHomChecker{embed: map[[2]*refNode]int8{}, below: map[[2]*refNode]int8{}}
	return h.canEmbed(refCompile(q), refCompile(p))
}

func refCompile(p *xpath.Path) *refNode {
	root := &refNode{label: rootLabel}
	cur := root
	for _, s := range p.Steps {
		n := &refNode{label: s.Test, descendant: s.Axis == xpath.Descendant}
		cur.children = append(cur.children, n)
		for _, q := range s.Preds {
			refAttachPred(n, q)
		}
		cur = n
	}
	cur.children = append(cur.children, &refNode{label: refOutputMarker})
	return root
}

func refAttachPred(n *refNode, q *xpath.Pred) {
	switch q.Kind {
	case xpath.And:
		refAttachPred(n, q.Left)
		refAttachPred(n, q.Right)
	case xpath.Exists:
		refAttachPath(n, q.Path, nil)
	case xpath.Cmp:
		refAttachPath(n, q.Path, &valueConstraint{op: q.Op, lit: q.Value})
	}
}

func refAttachPath(n *refNode, p *xpath.Path, con *valueConstraint) {
	cur := n
	for _, s := range p.Steps {
		c := &refNode{label: s.Test, descendant: s.Axis == xpath.Descendant}
		cur.children = append(cur.children, c)
		for _, q := range s.Preds {
			refAttachPred(c, q)
		}
		cur = c
	}
	if con != nil {
		cur.cons = append(cur.cons, *con)
	}
}

type refHomChecker struct {
	embed map[[2]*refNode]int8 // 0 unknown, 1 true, 2 false
	below map[[2]*refNode]int8
}

func (h *refHomChecker) canEmbed(q, p *refNode) bool {
	key := [2]*refNode{q, p}
	if v := h.embed[key]; v != 0 {
		return v == 1
	}
	h.embed[key] = 2
	ok := refLabelOK(q, p) && refConsOK(q, p)
	if ok {
		for _, qc := range q.children {
			if qc.descendant {
				if !h.canEmbedBelow(qc, p) {
					ok = false
					break
				}
			} else {
				found := false
				for _, pc := range p.children {
					if !pc.descendant && h.canEmbed(qc, pc) {
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

func (h *refHomChecker) canEmbedBelow(q, p *refNode) bool {
	key := [2]*refNode{q, p}
	if v := h.below[key]; v != 0 {
		return v == 1
	}
	h.below[key] = 2
	for _, pc := range p.children {
		if h.canEmbed(q, pc) || h.canEmbedBelow(q, pc) {
			h.below[key] = 1
			return true
		}
	}
	return false
}

func refLabelOK(q, p *refNode) bool {
	if q.label == rootLabel || q.label == refOutputMarker || p.label == rootLabel || p.label == refOutputMarker {
		return q.label == p.label
	}
	if q.label == xpath.Wildcard {
		return true
	}
	if p.label == xpath.Wildcard {
		return false
	}
	return q.label == p.label
}

func refConsOK(q, p *refNode) bool {
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
