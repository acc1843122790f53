package xpath

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"xmlac/internal/xmltree"
)

// Eval evaluates an absolute path on a document and returns [[p]](T): the
// matched element nodes, deduplicated, in ascending ID order (document
// order until an insert puts higher ids ahead of existing nodes).
// Following standard XPath semantics the evaluation context of an absolute
// path is the virtual document node above the root element, so //a matches
// the root element itself when it is labeled a.
//
// A path with a named step is answered from the document's label index.
// The candidates of its last named step are the elements with that label,
// in ID order; the backward matcher keeps those the steps up to it select,
// so nothing needs deduplicating or sorting. The steps after it, wildcard
// and self steps only, run forward from the kept nodes. A path without a
// named step (//*, /*/*) runs forward from the root.
func Eval(p *Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	return EvalWithStats(p, doc, nil)
}

// EvalStats counts the work one evaluation performed: Visited is how many
// nodes it examined, that is the candidates the label index handed out
// plus the nodes a forward step tested against its node test. The
// ancestors the backward matcher inspects and qualifier sub-evaluations
// are not counted. A nil *EvalStats is accepted everywhere and counts
// nothing.
type EvalStats struct {
	Visited int

	// decided counts the qualifier decisions the backward matcher made,
	// remembered ones excluded.
	decided int
}

func (st *EvalStats) visit(n int) {
	if st != nil {
		st.Visited += n
	}
}

// EvalWithStats is Eval with an optional work counter.
func EvalWithStats(p *Path, doc *xmltree.Document, st *EvalStats) ([]*xmltree.Node, error) {
	if err := checkAbsolute(p); err != nil {
		return nil, err
	}
	k := lastNamed(p)
	if k < 0 {
		return forward(p, doc, st), nil
	}
	cands := doc.ByLabel(p.Steps[k].Test)
	st.visit(len(cands))
	r := &evalRun{st: st}
	kept := make([]*xmltree.Node, 0)
	for _, c := range cands {
		if selects(p.Steps[:k+1], c, r) {
			kept = append(kept, c)
		}
	}
	return evalSteps(p.Steps[k+1:], kept, st), nil
}

// lastNamed returns the index of p's last step whose test names a label,
// or -1 when every step is a wildcard or self step.
func lastNamed(p *Path) int {
	for k := len(p.Steps) - 1; k >= 0; k-- {
		if s := p.Steps[k]; s.Axis != Self && s.Test != Wildcard {
			return k
		}
	}
	return -1
}

// forward evaluates p step by step from the virtual document node.
func forward(p *Path, doc *xmltree.Document, st *EvalStats) []*xmltree.Node {
	first, root := p.Steps[0], doc.Root()
	cur := []*xmltree.Node{}
	// The virtual document node's only child is the root element; its
	// descendants are the root element and everything below it.
	if first.Axis == Child {
		st.visit(1)
		if matchTest(root, first.Test) && holdPreds(root, first.Preds) {
			cur = append(cur, root)
		}
	} else {
		cur = collectSelfOrDescendants(root, first, cur, nil, st)
	}
	return evalSteps(p.Steps[1:], cur, st)
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
	return evalSteps(p.Steps, []*xmltree.Node{ctx}, nil), nil
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

// selectsDepth is the ancestor-chain depth Selects keeps on the stack.
const selectsDepth = 32

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
	return selects(p.Steps, n, nil)
}

// evalRun is the state one Eval call shares across its candidates: the
// work counter and the qualifier decisions made on their ancestors.
type evalRun struct {
	st   *EvalStats
	memo map[stepNode]bool
}

type stepNode struct {
	s *Step
	n *xmltree.Node
}

// holds decides step s's qualifiers on n. With a run, a decision for a
// step before the last is made once and remembered, since candidates share
// ancestors; the last step's are decided on the candidate itself, which
// the run meets once anyway.
func (r *evalRun) holds(s *Step, n *xmltree.Node, last bool) bool {
	if len(s.Preds) == 0 {
		return true
	}
	if r == nil {
		return holdPreds(n, s.Preds)
	}
	key := stepNode{s, n}
	if v, ok := r.memo[key]; ok {
		return v
	}
	if r.st != nil {
		r.st.decided++
	}
	v := holdPreds(n, s.Preds)
	if !last {
		if r.memo == nil {
			r.memo = map[stepNode]bool{}
		}
		r.memo[key] = v
	}
	return v
}

// selects is Selects on the steps of an absolute path Eval accepts; r,
// when not nil, remembers qualifier decisions across calls.
func selects(steps []*Step, n *xmltree.Node, r *evalRun) bool {
	last := len(steps) - 1
	if !stepTest(n, steps[last]) {
		return false
	}
	// chain holds n's ancestors-or-self, n first and the root element at
	// top; index top+1 stands for the virtual document node above it.
	// Selects runs once per node and rule when a write's region is
	// re-decided, so documents up to selectsDepth deep allocate nothing.
	var chainBuf [selectsDepth]*xmltree.Node
	chain := chainBuf[:0]
	for m := n; m != nil; m = m.Parent() {
		chain = append(chain, m)
	}
	top := len(chain) - 1
	// sel[j] reports whether the steps taken so far select chain[j]; before
	// the first step only the document node is selected.
	var selBuf, nextBuf [selectsDepth + 1]bool
	sel, next := selBuf[:], nextBuf[:]
	if top+2 > len(sel) {
		sel, next = make([]bool, top+2), make([]bool, top+2)
	}
	sel, next = sel[:top+2], next[:top+2]
	sel[top+1] = true
	for i, s := range steps {
		above := false // some entry above j is selected
		alive := false // some entry is selected after this step
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
			next[j] = reach && (i < last || j == 0) && stepTest(chain[j], s) && r.holds(s, chain[j], i == last)
			alive = alive || next[j]
		}
		if !alive {
			return false
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

// evalSteps runs steps forward from the context nodes cur, which hold no
// node twice, and returns the nodes reached in ID order.
func evalSteps(steps []*Step, cur []*xmltree.Node, st *EvalStats) []*xmltree.Node {
	for _, s := range steps {
		if len(cur) == 0 {
			break
		}
		next := []*xmltree.Node{}
		// Only a descendant step from nested context nodes reaches a node
		// twice.
		var seen map[*xmltree.Node]bool
		if s.Axis == Descendant && len(cur) > 1 {
			seen = map[*xmltree.Node]bool{}
		}
		for _, n := range cur {
			switch s.Axis {
			case Child:
				for _, c := range n.Children() {
					if c.Kind != xmltree.Element {
						continue
					}
					st.visit(1)
					if matchTest(c, s.Test) && holdPreds(c, s.Preds) {
						next = append(next, c)
					}
				}
			case Descendant:
				for _, c := range n.Children() {
					next = collectSelfOrDescendants(c, s, next, seen, st)
				}
			case Self:
				st.visit(1)
				if holdPreds(n, s.Preds) {
					next = append(next, n)
				}
			}
		}
		cur = next
	}
	if !slices.IsSortedFunc(cur, byID) {
		slices.SortFunc(cur, byID)
	}
	return cur
}

func byID(a, b *xmltree.Node) int { return cmp.Compare(a.ID, b.ID) }

// collectSelfOrDescendants appends to out n and every element below it
// that passes step s's test and qualifiers, skipping those in seen when
// seen is not nil.
func collectSelfOrDescendants(n *xmltree.Node, s *Step, out []*xmltree.Node, seen map[*xmltree.Node]bool, st *EvalStats) []*xmltree.Node {
	if n.Kind != xmltree.Element {
		return out
	}
	st.visit(1)
	if !seen[n] && matchTest(n, s.Test) && holdPreds(n, s.Preds) {
		if seen != nil {
			seen[n] = true
		}
		out = append(out, n)
	}
	for _, c := range n.Children() {
		out = collectSelfOrDescendants(c, s, out, seen, st)
	}
	return out
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

// holdPred decides qualifier q at n without building node sets: an
// existence test stops at the first node its path reaches, a comparison at
// the first reached node whose value compares true. A path with three or
// more // steps is evaluated to a node set instead, because a depth-first
// search would revisit the nodes below nested // steps once per context.
func holdPred(n *xmltree.Node, q *Pred) bool {
	switch q.Kind {
	case And:
		return holdPred(n, q.Left) && holdPred(n, q.Right)
	case Or:
		return holdPred(n, q.Left) || holdPred(n, q.Right)
	case Exists, Cmp:
		if q.Path.Absolute {
			return false
		}
		if descendantSteps(q.Path) < 3 {
			return reaches(q.Path.Steps, n, q)
		}
		res, _ := EvalFrom(q.Path, n)
		for _, m := range res {
			if q.witness(m) {
				return true
			}
		}
	}
	return false
}

// witness reports whether a node q's path reached satisfies q: any node
// for an existence test, one whose value compares true for a comparison.
func (q *Pred) witness(m *xmltree.Node) bool {
	return q.Kind == Exists || compareValue(m.TextContent(), q.Op, q.Value)
}

func descendantSteps(p *Path) int {
	n := 0
	for _, s := range p.Steps {
		if s.Axis == Descendant {
			n++
		}
	}
	return n
}

// reaches reports whether the relative steps lead from n to a witness of
// q, searching depth first and stopping at the first one.
func reaches(steps []*Step, n *xmltree.Node, q *Pred) bool {
	if len(steps) == 0 {
		return q.witness(n)
	}
	s, rest := steps[0], steps[1:]
	switch s.Axis {
	case Child:
		for _, c := range n.Children() {
			if matchTest(c, s.Test) && holdPreds(c, s.Preds) && reaches(rest, c, q) {
				return true
			}
		}
	case Descendant:
		for _, c := range n.Children() {
			if reachesBelow(c, s, rest, q) {
				return true
			}
		}
	case Self:
		return holdPreds(n, s.Preds) && reaches(rest, n, q)
	}
	return false
}

// reachesBelow is reaches for the descendant step s, tried on n and every
// element below it.
func reachesBelow(n *xmltree.Node, s *Step, rest []*Step, q *Pred) bool {
	if n.Kind != xmltree.Element {
		return false
	}
	if matchTest(n, s.Test) && holdPreds(n, s.Preds) && reaches(rest, n, q) {
		return true
	}
	for _, c := range n.Children() {
		if reachesBelow(c, s, rest, q) {
			return true
		}
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
