package store

import (
	"context"
	"fmt"
	"io"
	"time"

	"xmlac/internal/nativedb"
	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func init() {
	Register("native", openNative, "xquery")
}

// nativeEngine materializes signs directly on the XML tree inside a
// nativedb.Store — the paper's MonetDB/XQuery configuration: annotation
// runs as a mini-XQuery update, requests walk the annotated tree, and a
// node without an explicit sign falls back to the policy default.
type nativeEngine struct {
	st      *nativedb.Store
	docName string
	doc     *xmltree.Document // set by Load
	def     xmltree.Sign      // policy default sign
	pl      *pool.Pool        // nil selects the sequential reference path
}

// Compile-time interface compliance, checked by go vet and the CI gate.
var _ Engine = (*nativeEngine)(nil)

func openNative(o Options) (Engine, error) {
	e := &nativeEngine{st: nativedb.OpenStore(), docName: o.DocName, def: o.Default, pl: o.Pool}
	if o.Metrics != nil {
		e.SetMetrics(o.Metrics)
	}
	return e, nil
}

func (e *nativeEngine) Name() string     { return "native" }
func (e *nativeEngine) Relational() bool { return false }

// Load registers the document in the native store; signs already on the
// tree are kept (the store serializes them as the sign attribute).
func (e *nativeEngine) Load(doc *xmltree.Document) error {
	if err := e.st.Load(e.docName, doc); err != nil {
		return err
	}
	e.doc = doc
	return nil
}

// runner adapts the pool to the native store's Runner shape; a nil pool
// selects the sequential reference path.
func (e *nativeEngine) runner() nativedb.Runner {
	if e.pl == nil {
		return nil
	}
	return e.pl.ForEach
}

// Annotate performs full annotation in the native store: clear all
// annotations (back to the materialized default), then run the
// annotation query. Mirroring the paper's native-store choice, only the
// nodes on the non-default side carry explicit signs afterwards.
func (e *nativeEngine) Annotate(ctx context.Context, q AnnotationQuery) (AnnotateStats, error) {
	parent := obs.FromContext(ctx)
	doc := e.st.Doc(e.docName)
	if doc == nil {
		return AnnotateStats{}, fmt.Errorf("core: no document %q in native store", e.docName)
	}
	stats := AnnotateStats{Reset: doc.Size()}
	_ = stage(parent, &stats.Phases, "clear-signs", func() error {
		doc.ClearSigns()
		return nil
	})
	var text string
	_ = stage(parent, &stats.Phases, "build-annotation-query", func() error {
		text = q.XQueryText(e.docName)
		return nil
	})
	if q.Expr == nil {
		return stats, nil
	}
	err := stage(parent, &stats.Phases, "apply-updates", func() error {
		// The per-rule grant/deny paths of the annotation query are
		// independent read-only XPath evaluations; the pool fans them out
		// (see nativedb.EvalSetWith) before the sequential set-operator fold.
		res, err := e.st.ExecWith(text, e.runner())
		if err != nil {
			return err
		}
		stats.Updated = res.Count
		return nil
	})
	return stats, err
}

// EvalScope evaluates a node-set expression on the tree and returns the
// matched ids.
func (e *nativeEngine) EvalScope(x *SetExpr) (map[int64]bool, error) {
	ids := map[int64]bool{}
	if x == nil {
		return ids, nil
	}
	nodes, err := nativedb.EvalSet(x, e.doc)
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		ids[n.ID] = true
	}
	return ids, nil
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
			nativedb.Annotate(n, sign)
			updated++
		} else {
			nativedb.Annotate(n, xmltree.SignNone) // back to the default
			reset++
		}
	}
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
	nodes, err := xpath.Eval(q, e.doc)
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

// SetMetrics attaches the registry to the underlying store (feeding the
// store_* series).
func (e *nativeEngine) SetMetrics(r *obs.Registry) { e.st.SetMetrics(r) }

// SetSlowQueryLog is a no-op: the native store has no statement executor.
func (e *nativeEngine) SetSlowQueryLog(w io.Writer, threshold time.Duration) {}
