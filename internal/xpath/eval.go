package xpath

import (
	"fmt"
	"sort"
	"strconv"

	"xmlac/internal/xmltree"
)

// Eval evaluates an absolute path on a document and returns [[p]](T): the
// matched element nodes, deduplicated, in document order. Following standard
// XPath semantics the evaluation context of an absolute path is the virtual
// document node above the root element, so //a matches the root element
// itself when it is labeled a.
func Eval(p *Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	return EvalWithStats(p, doc, nil)
}

// EvalStats counts the work one evaluation performed: Visited is how many
// candidate nodes were examined against a step's node test along the main
// path (qualifier sub-evaluations are not counted). A nil *EvalStats is
// accepted everywhere and counts nothing.
type EvalStats struct {
	Visited int
}

func (st *EvalStats) visit() {
	if st != nil {
		st.Visited++
	}
}

// EvalWithStats is Eval with an optional work counter.
func EvalWithStats(p *Path, doc *xmltree.Document, st *EvalStats) ([]*xmltree.Node, error) {
	if err := checkAbsolute(p); err != nil {
		return nil, err
	}
	cur := map[*xmltree.Node]bool{}
	first := p.Steps[0]
	// The virtual document node's only child is the root element; its
	// descendants are the root element and everything below it.
	if first.Axis == Child {
		st.visit()
		if matchTest(doc.Root(), first.Test) && holdPreds(doc.Root(), first.Preds) {
			cur[doc.Root()] = true
		}
	} else {
		collectSelfOrDescendants(doc.Root(), first.Test, first.Preds, cur, st)
	}
	out, err := evalSteps(p.Steps[1:], cur, st)
	if err != nil {
		return nil, err
	}
	return docOrder(out), nil
}

// EvalFrom evaluates a relative path from a context node, returning the
// matched nodes in document order. The bare "." path returns the context
// node itself.
func EvalFrom(p *Path, ctx *xmltree.Node) ([]*xmltree.Node, error) {
	if p.Absolute {
		return nil, fmt.Errorf("xpath: EvalFrom requires a relative path, got %q", p.String())
	}
	if len(p.Steps) == 0 {
		return []*xmltree.Node{ctx}, nil
	}
	cur := map[*xmltree.Node]bool{ctx: true}
	out, err := evalSteps(p.Steps, cur, nil)
	if err != nil {
		return nil, err
	}
	return docOrder(out), nil
}

// checkAbsolute rejects the paths Eval cannot evaluate: relative ones, the
// empty absolute path, and one whose first step is not a child or
// descendant step.
func checkAbsolute(p *Path) error {
	switch {
	case !p.Absolute:
		return fmt.Errorf("xpath: Eval requires an absolute path, got %q", p.String())
	case len(p.Steps) == 0:
		return fmt.Errorf("xpath: cannot evaluate the empty absolute path")
	case p.Steps[0].Axis == Self:
		return fmt.Errorf("xpath: unexpected axis in absolute path")
	}
	return nil
}

// Matches reports whether node n is in the result of evaluating absolute
// path p on doc: Selects, with Eval's validation of p and a check that n
// belongs to doc.
func Matches(p *Path, doc *xmltree.Document, n *xmltree.Node) (bool, error) {
	if err := checkAbsolute(p); err != nil {
		return false, err
	}
	return doc.Contains(n) && Selects(p, n), nil
}

// Selects reports whether n is in [[p]](T) for the tree T that n belongs
// to, n's topmost ancestor playing the root element. It is Eval run
// backwards: the last step is tested on n, and the earlier steps on n's
// ancestors, so it costs O(depth × steps) node tests plus the predicates
// of the ancestors that pass their step's test — not a full-document
// evaluation. A path Eval rejects selects nothing.
func Selects(p *Path, n *xmltree.Node) bool {
	if checkAbsolute(p) != nil || n == nil {
		return false
	}
	last := len(p.Steps) - 1
	if !stepTest(n, p.Steps[last]) {
		return false
	}
	// chain holds n's ancestors-or-self, n first and the root element at
	// top; index top+1 stands for the virtual document node above it.
	var chain []*xmltree.Node
	for m := n; m != nil; m = m.Parent() {
		chain = append(chain, m)
	}
	top := len(chain) - 1
	// sel[j] reports whether the steps taken so far select chain[j]; before
	// the first step only the document node is selected.
	sel := make([]bool, top+2)
	next := make([]bool, top+2)
	sel[top+1] = true
	for i, s := range p.Steps {
		above := false // some entry above j is selected
		for j := top; j >= 0; j-- {
			above = above || sel[j+1]
			var reach bool
			switch s.Axis {
			case Child:
				reach = sel[j+1]
			case Descendant:
				reach = above
			default:
				reach = sel[j]
			}
			// Only n itself matters to the last step.
			next[j] = reach && (i < last || j == 0) && stepTest(chain[j], s) && holdPreds(chain[j], s.Preds)
		}
		next[top+1] = false
		sel, next = next, sel
	}
	return sel[0]
}

// stepTest applies a step's node test; a self step keeps its context node
// whatever the label.
func stepTest(n *xmltree.Node, s *Step) bool {
	if s.Axis == Self {
		return n.Kind == xmltree.Element
	}
	return matchTest(n, s.Test)
}

func evalSteps(steps []*Step, cur map[*xmltree.Node]bool, st *EvalStats) (map[*xmltree.Node]bool, error) {
	for _, s := range steps {
		next := map[*xmltree.Node]bool{}
		for n := range cur {
			switch s.Axis {
			case Child:
				for _, c := range n.ChildElements() {
					st.visit()
					if matchTest(c, s.Test) && holdPreds(c, s.Preds) {
						next[c] = true
					}
				}
			case Descendant:
				for _, c := range n.ChildElements() {
					collectSelfOrDescendants(c, s.Test, s.Preds, next, st)
				}
			case Self:
				st.visit()
				if holdPreds(n, s.Preds) {
					next[n] = true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return cur, nil
}

// collectSelfOrDescendants adds n and every element descendant of n matching
// the test and predicates into out.
func collectSelfOrDescendants(n *xmltree.Node, test string, preds []*Pred, out map[*xmltree.Node]bool, st *EvalStats) {
	if n.Kind != xmltree.Element {
		return
	}
	st.visit()
	if matchTest(n, test) && holdPreds(n, preds) {
		out[n] = true
	}
	for _, c := range n.Children() {
		collectSelfOrDescendants(c, test, preds, out, st)
	}
}

func matchTest(n *xmltree.Node, test string) bool {
	if n.Kind != xmltree.Element {
		return false
	}
	return test == Wildcard || n.Label == test
}

func holdPreds(n *xmltree.Node, preds []*Pred) bool {
	for _, q := range preds {
		if !holdPred(n, q) {
			return false
		}
	}
	return true
}

func holdPred(n *xmltree.Node, q *Pred) bool {
	switch q.Kind {
	case And:
		return holdPred(n, q.Left) && holdPred(n, q.Right)
	case Or:
		return holdPred(n, q.Left) || holdPred(n, q.Right)
	case Exists:
		res, err := EvalFrom(q.Path, n)
		return err == nil && len(res) > 0
	case Cmp:
		res, err := EvalFrom(q.Path, n)
		if err != nil {
			return false
		}
		for _, m := range res {
			if compareValue(m.TextContent(), q.Op, q.Value) {
				return true
			}
		}
		return false
	}
	return false
}

// compareValue applies an XPath 1.0-style comparison between a node's string
// value and a literal. When the literal is numeric, the node value is parsed
// as a number (comparison is false if it does not parse). When the literal
// is a string, = and != compare strings; the relational operators coerce
// both sides to numbers, as XPath 1.0 does.
func compareValue(nodeVal string, op CmpOp, lit Literal) bool {
	if lit.IsNum {
		f, err := strconv.ParseFloat(nodeVal, 64)
		if err != nil {
			return false
		}
		return cmpFloat(f, op, lit.Num)
	}
	switch op {
	case Eq:
		return nodeVal == lit.Str
	case Ne:
		return nodeVal != lit.Str
	default:
		a, errA := strconv.ParseFloat(nodeVal, 64)
		b, errB := strconv.ParseFloat(lit.Str, 64)
		if errA != nil || errB != nil {
			return false
		}
		return cmpFloat(a, op, b)
	}
}

func cmpFloat(a float64, op CmpOp, b float64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

func docOrder(set map[*xmltree.Node]bool) []*xmltree.Node {
	out := make([]*xmltree.Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
