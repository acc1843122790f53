package store

import (
	"context"
	"fmt"
	"io"
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func init() {
	Register("native", openNative, "xquery")
}

// nativeEngine materializes signs directly on the XML tree — the paper's
// MonetDB/XQuery configuration: annotation flips the sign of each node
// in the update set, requests walk the annotated tree, and a node without
// an explicit sign falls back to the policy default.
type nativeEngine struct {
	doc *xmltree.Document // set by Load
	def xmltree.Sign      // policy default sign
	pl  *pool.Pool        // nil runs leaf evaluations in the caller

	// The store_* series with engine="native"; nil when detached.
	queries, scanned, matched, signs *obs.Counter
}

// Compile-time interface compliance, checked by go vet and the CI gate.
var _ Engine = (*nativeEngine)(nil)

func openNative(o Options) (Engine, error) {
	e := &nativeEngine{def: o.Default, pl: o.Pool}
	if o.Metrics != nil {
		e.SetMetrics(o.Metrics)
	}
	return e, nil
}

func (e *nativeEngine) Name() string     { return "native" }
func (e *nativeEngine) Relational() bool { return false }

// Load installs the document; the engine takes ownership of the tree and
// keeps the signs already on it.
func (e *nativeEngine) Load(doc *xmltree.Document) error {
	if doc == nil {
		return fmt.Errorf("store: nil document")
	}
	e.doc = doc
	return nil
}

// Annotate performs full annotation on the tree (see annotate). Mirroring
// the paper's native-store choice, only the nodes on the non-default side
// carry explicit signs afterwards.
func (e *nativeEngine) Annotate(ctx context.Context, q AnnotationQuery) (AnnotateStats, error) {
	return annotate(ctx, e, e.pl, q)
}

// resetSigns drops every annotation: unannotated nodes take the policy
// default. It reports the elements reset, as the relational engines
// report their tuples.
func (e *nativeEngine) resetSigns(xmltree.Sign) (int, error) {
	if e.doc == nil {
		return 0, fmt.Errorf("store: no document loaded in the native engine")
	}
	n := e.doc.ElementCount()
	e.doc.ClearSigns()
	e.signs.Add(int64(n))
	return n, nil
}

// leafIDs evaluates one rule path on the tree.
func (e *nativeEngine) leafIDs(p *xpath.Path) (map[int64]bool, error) {
	nodes, err := e.eval(p)
	if err != nil {
		return nil, err
	}
	ids := make(map[int64]bool, len(nodes))
	for _, n := range nodes {
		ids[n.ID] = true
	}
	return ids, nil
}

// writeSigns annotates every node of ids with sign.
func (e *nativeEngine) writeSigns(ids map[int64]bool, sign xmltree.Sign) (int, error) {
	for id := range ids {
		e.doc.NodeByID(id).Sign = sign
	}
	e.signs.Add(int64(len(ids)))
	return len(ids), nil
}

// eval runs one tree evaluation and counts it, once, in the store_*
// series: one query, the nodes the evaluator visited and those it
// matched.
func (e *nativeEngine) eval(p *xpath.Path) ([]*xmltree.Node, error) {
	var st xpath.EvalStats
	nodes, err := xpath.EvalWithStats(p, e.doc, &st)
	if err != nil {
		return nil, err
	}
	e.queries.Inc()
	e.scanned.Add(int64(st.Visited))
	e.matched.Add(int64(len(nodes)))
	return nodes, nil
}

// EvalScope evaluates a node-set expression on the tree and returns the
// matched ids.
func (e *nativeEngine) EvalScope(x *SetExpr) (map[int64]bool, error) {
	return evalSet(x, e.pl, e.leafIDs)
}

// ApplySignsWithin rewrites signs inside the affected set only: update
// members get the sign, the rest revert to no annotation (the policy
// default decides unannotated nodes in this store).
func (e *nativeEngine) ApplySignsWithin(affected, update map[int64]bool, sign, def xmltree.Sign) (updated, reset int, err error) {
	for id := range affected {
		n := e.doc.NodeByID(id)
		if n == nil {
			continue
		}
		if update[id] {
			n.Sign = sign
			updated++
		} else {
			n.Sign = xmltree.SignNone // back to the default
			reset++
		}
	}
	e.signs.Add(int64(updated + reset))
	return updated, reset, nil
}

// accessible decides a node's accessibility: explicit sign wins, absence
// means the policy default.
func (e *nativeEngine) accessible(n *xmltree.Node) bool {
	switch n.Sign {
	case xmltree.SignPlus:
		return true
	case xmltree.SignMinus:
		return false
	default:
		return e.def == xmltree.SignPlus
	}
}

// Request evaluates a query against the annotated tree and checks the
// matches' signs; the policy default decides unannotated nodes.
func (e *nativeEngine) Request(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	res, err := e.RawQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	sp := obs.Start(obs.FromContext(ctx), "check-access")
	defer sp.Finish()
	return CheckMatches(sp, res, func(_ int64, n *xmltree.Node) bool { return e.accessible(n) })
}

// RawQuery evaluates a query over the tree with no access checking —
// the rewriting enforcer's matched-set probe (store.RawQuerier).
func (e *nativeEngine) RawQuery(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	sp := obs.Start(obs.FromContext(ctx), "eval-query")
	nodes, err := e.eval(q)
	sp.SetAttr("matched", len(nodes)).Finish()
	if err != nil {
		return nil, err
	}
	return &RequestResult{Nodes: nodes, Checked: len(nodes)}, nil
}

// AccessibleIDs lists the accessible element ids of the annotated tree.
func (e *nativeEngine) AccessibleIDs() (map[int64]bool, error) {
	out := map[int64]bool{}
	e.doc.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && e.accessible(n) {
			out[n.ID] = true
		}
		return true
	})
	return out, nil
}

// DeleteRows is a no-op: deleted subtrees leave the tree (and with it
// this store) when the caller removes them.
func (e *nativeEngine) DeleteRows(byLabel map[string][]int64) (int, error) { return 0, nil }

// InsertSubtree is a no-op: inserted nodes are already on the tree.
func (e *nativeEngine) InsertSubtree(root *xmltree.Node) error { return nil }

// Explain: the native store has no SQL planner to interrogate.
func (e *nativeEngine) Explain(q *xpath.Path) (string, error) {
	return "", fmt.Errorf("store: the native engine has no query planner")
}

// The native engine's updates are tree mutations applied by the caller;
// its transaction scope is an accepted no-op.
func (e *nativeEngine) Begin() error        { return nil }
func (e *nativeEngine) Commit() error       { return nil }
func (e *nativeEngine) Rollback() error     { return nil }
func (e *nativeEngine) InTransaction() bool { return false }

// SetMetrics attaches the registry's store_* series with the
// engine="native" label; nil detaches.
func (e *nativeEngine) SetMetrics(r *obs.Registry) {
	if r == nil {
		e.queries, e.scanned, e.matched, e.signs = nil, nil, nil, nil
		return
	}
	e.queries = r.Counter(`store_queries_total{engine="native"}`)
	e.scanned = r.Counter(`store_rows_scanned_total{engine="native"}`)
	e.matched = r.Counter(`store_rows_matched_total{engine="native"}`)
	e.signs = r.Counter(`store_signs_written_total{engine="native"}`)
}

// SetSlowQueryLog is a no-op: the native store has no statement executor.
func (e *nativeEngine) SetSlowQueryLog(w io.Writer, threshold time.Duration) {}
