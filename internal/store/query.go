package store

import (
	"context"
	"maps"
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// The node-set algebra of the annotation queries (Figure 5): an XPath leaf
// or a union/except over two subexpressions. The policy layer builds the
// expressions; every engine evaluates them with evalSet.

// SetOp combines node sets.
type SetOp uint8

// Set operators of the annotation-query algebra.
const (
	// OpUnion is the union operator.
	OpUnion SetOp = iota
	// OpExcept is the except operator.
	OpExcept
)

// String names the operator in the paper's query syntax.
func (o SetOp) String() string {
	if o == OpExcept {
		return "except"
	}
	return "union"
}

// SetExpr is a node-set expression: an XPath leaf or a set operation over
// two subexpressions.
type SetExpr struct {
	Path        *xpath.Path
	Op          SetOp
	Left, Right *SetExpr
}

// String renders the expression in the paper's query syntax, e.g.
// ((//a union //b) except //c).
func (e *SetExpr) String() string {
	if e.Path != nil {
		return e.Path.String()
	}
	return "(" + e.Left.String() + " " + e.Op.String() + " " + e.Right.String() + ")"
}

// PathLeaf wraps an XPath expression as a set expression.
func PathLeaf(p *xpath.Path) *SetExpr { return &SetExpr{Path: p} }

// Combine folds expressions with one operator; nil when the list is empty.
func Combine(op SetOp, exprs ...*SetExpr) *SetExpr {
	var acc *SetExpr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if acc == nil {
			acc = e
			continue
		}
		acc = &SetExpr{Op: op, Left: acc, Right: e}
	}
	return acc
}

// evalSet evaluates a node-set expression to the ids it selects, the same
// way on every engine: each path leaf runs through leaf on pl (a nil pool
// runs them in the caller, one after another), then union and except fold
// over the leaves' id sets. Leaves are numbered left to right, so an
// expression that repeats a leaf evaluates it once per occurrence, and
// the fold may consume every set in place. A nil expression yields an
// empty set.
func evalSet(e *SetExpr, pl *pool.Pool, leaf func(*xpath.Path) (map[int64]bool, error)) (map[int64]bool, error) {
	if e == nil {
		return map[int64]bool{}, nil
	}
	var paths []*xpath.Path
	var collect func(*SetExpr)
	collect = func(e *SetExpr) {
		if e.Path != nil {
			paths = append(paths, e.Path)
			return
		}
		collect(e.Left)
		collect(e.Right)
	}
	collect(e)
	sets := make([]map[int64]bool, len(paths))
	if err := pl.ForEach(len(paths), func(i int) (err error) {
		sets[i], err = leaf(paths[i])
		return err
	}); err != nil {
		return nil, err
	}
	next := 0
	var fold func(*SetExpr) map[int64]bool
	fold = func(e *SetExpr) map[int64]bool {
		if e.Path != nil {
			next++
			return sets[next-1]
		}
		l, r := fold(e.Left), fold(e.Right)
		if e.Op == OpUnion {
			maps.Copy(l, r)
			return l
		}
		for id := range r {
			delete(l, id)
		}
		return l
	}
	return fold(e), nil
}

// AnnotationQuery is the output of algorithm Annotation-Queries
// (Figure 5): the node-set expression designating the nodes whose sign
// must be flipped away from the policy default, together with that sign.
// The policy layer compiles one from the Table 2 semantics; annotate
// executes it identically on every engine.
type AnnotationQuery struct {
	// Expr selects the nodes to update; nil when the rule sets make the
	// update set trivially empty.
	Expr *SetExpr
	// Sign is the annotation to write on the selected nodes (the
	// opposite of the policy default).
	Sign xmltree.Sign
	// Default is the policy's default sign, for the remaining nodes.
	Default xmltree.Sign
}

// signStore is the engine half of full annotation: the three operations
// annotate runs in order.
type signStore interface {
	// resetSigns returns every sign to the policy default def and reports
	// how many elements it reset.
	resetSigns(def xmltree.Sign) (int, error)
	// leafIDs evaluates one rule path to the ids it selects.
	leafIDs(p *xpath.Path) (map[int64]bool, error)
	// writeSigns sets sign on every node of ids and reports how many it
	// wrote.
	writeSigns(ids map[int64]bool, sign xmltree.Sign) (int, error)
}

// annotate performs full annotation (Figures 5 and 6) on any engine:
// reset every sign to the default, compute the update set with evalSet
// over the engine's leaves, and write q.Sign on its members. Each stage is
// a Phases entry and, with a span in ctx, a child span of it.
func annotate(ctx context.Context, s signStore, pl *pool.Pool, q AnnotationQuery) (AnnotateStats, error) {
	parent := obs.FromContext(ctx)
	var stats AnnotateStats
	if err := stage(parent, &stats.Phases, "reset-signs", func() (err error) {
		stats.Reset, err = s.resetSigns(q.Default)
		return err
	}); err != nil {
		return stats, err
	}
	var ids map[int64]bool
	if err := stage(parent, &stats.Phases, "compute-update-set", func() (err error) {
		ids, err = evalSet(q.Expr, pl, s.leafIDs)
		return err
	}); err != nil {
		return stats, err
	}
	err := stage(parent, &stats.Phases, "apply-updates", func() (err error) {
		stats.Updated, err = s.writeSigns(ids, q.Sign)
		return err
	})
	return stats, err
}

// AnnotateStats reports what an annotation run did.
type AnnotateStats struct {
	// Updated is the number of nodes whose sign was set away from default.
	Updated int
	// Reset is the number of nodes whose sign was (re)set to the default
	// (full annotation resets everything; re-annotation only the
	// affected region).
	Reset int
	// Duration is the wall-clock time of the run (filled by the caller).
	Duration time.Duration
	// Phases is the per-stage time breakdown, recorded whether or not a
	// tracer is attached.
	Phases obs.Phases
}

// stage runs one named pipeline stage: a span under parent when tracing,
// and a Phases entry on the stats either way.
func stage(parent *obs.Span, phases *obs.Phases, name string, f func() error) error {
	start := time.Now()
	sp := obs.Start(parent, name)
	err := f()
	sp.Finish()
	phases.Add(name, time.Since(start))
	return err
}
