package xpath

import (
	"sort"

	"xmlac/internal/xmltree"
)

// This file freezes the forward evaluator as the reference the indexed
// Eval is tested against: every step, qualifier paths included, is
// evaluated to a node set by walking the tree, and the result is sorted by
// ID. It shares nothing with eval.go but checkAbsolute and compareValue,
// so it runs neither the label index nor the first-witness qualifiers.

// refEval is the reference for Eval.
func refEval(p *Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	if err := checkAbsolute(p); err != nil {
		return nil, err
	}
	cur := map[*xmltree.Node]bool{}
	first := p.Steps[0]
	if first.Axis == Child {
		if refMatchTest(doc.Root(), first.Test) && refHoldPreds(doc.Root(), first.Preds) {
			cur[doc.Root()] = true
		}
	} else {
		refCollect(doc.Root(), first.Test, first.Preds, cur)
	}
	return refDocOrder(refSteps(p.Steps[1:], cur)), nil
}

// refEvalFrom is the reference for EvalFrom on a relative path.
func refEvalFrom(p *Path, ctx *xmltree.Node) []*xmltree.Node {
	if len(p.Steps) == 0 {
		return []*xmltree.Node{ctx}
	}
	return refDocOrder(refSteps(p.Steps, map[*xmltree.Node]bool{ctx: true}))
}

func refSteps(steps []*Step, cur map[*xmltree.Node]bool) map[*xmltree.Node]bool {
	for _, s := range steps {
		next := map[*xmltree.Node]bool{}
		for n := range cur {
			switch s.Axis {
			case Child:
				for _, c := range n.Children() {
					if refMatchTest(c, s.Test) && refHoldPreds(c, s.Preds) {
						next[c] = true
					}
				}
			case Descendant:
				for _, c := range n.Children() {
					refCollect(c, s.Test, s.Preds, next)
				}
			case Self:
				if refHoldPreds(n, s.Preds) {
					next[n] = true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

func refCollect(n *xmltree.Node, test string, preds []*Pred, out map[*xmltree.Node]bool) {
	if n.Kind != xmltree.Element {
		return
	}
	if refMatchTest(n, test) && refHoldPreds(n, preds) {
		out[n] = true
	}
	for _, c := range n.Children() {
		refCollect(c, test, preds, out)
	}
}

func refMatchTest(n *xmltree.Node, test string) bool {
	return n.Kind == xmltree.Element && (test == Wildcard || n.Label == test)
}

func refHoldPreds(n *xmltree.Node, preds []*Pred) bool {
	for _, q := range preds {
		if !refHoldPred(n, q) {
			return false
		}
	}
	return true
}

func refHoldPred(n *xmltree.Node, q *Pred) bool {
	switch q.Kind {
	case And:
		return refHoldPred(n, q.Left) && refHoldPred(n, q.Right)
	case Or:
		return refHoldPred(n, q.Left) || refHoldPred(n, q.Right)
	case Exists:
		return !q.Path.Absolute && len(refEvalFrom(q.Path, n)) > 0
	case Cmp:
		if q.Path.Absolute {
			return false
		}
		for _, m := range refEvalFrom(q.Path, n) {
			if compareValue(refText(m), q.Op, q.Value) {
				return true
			}
		}
	}
	return false
}

// refText is the concatenated text below n, in document order.
func refText(n *xmltree.Node) string {
	var b []byte
	n.Walk(func(m *xmltree.Node) bool {
		if m.Kind == xmltree.Text {
			b = append(b, m.Value...)
		}
		return true
	})
	return string(b)
}

func refDocOrder(set map[*xmltree.Node]bool) []*xmltree.Node {
	out := make([]*xmltree.Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
