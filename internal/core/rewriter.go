package core

import (
	"context"
	"sync"
	"sync/atomic"

	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// rewriteEnforcer enforces by query rewriting: the user query is
// evaluated raw (the engine's RawQuery — no sign consultation) and each
// match is decided by the Table 2 membership algebra over the policy's
// allow and deny scope unions. Signs are never written and writes never
// re-annotate. The scope sets are evaluated through the engine's
// EvalScope by Annotate or, failing that, by the first read, then kept
// current across inserts and deletes by patching the write's region (see
// Maintain); only a write the patch cannot bound leaves them stale, and
// the next read rebuilds them.
type rewriteEnforcer struct {
	s  *System
	rw *xpath.Rewriter

	// cur is the published scope sets; readers load it without locking.
	// mu single-flights rebuilds.
	cur atomic.Pointer[scopeSets]
	mu  sync.Mutex

	rebuilds *obs.Counter // nil when metrics are off
}

// scopeSets is one generation of the allow/deny scope sets and the System
// version it reflects.
type scopeSets struct {
	built       uint64
	allow, deny map[int64]bool
}

func newRewriteEnforcer(s *System) *rewriteEnforcer {
	e := &rewriteEnforcer{s: s, rw: s.region.rw}
	if s.cfg.Metrics != nil {
		e.rebuilds = s.cfg.Metrics.Counter("core_rewrite_scope_rebuilds_total")
	}
	return e
}

// NewRewriter compiles a read policy for rewriting enforcement.
func NewRewriter(p *policy.Policy) *xpath.Rewriter {
	rw := &xpath.Rewriter{
		DefaultAllow:  p.Default == policy.Allow,
		ConflictAllow: p.Conflict == policy.Allow,
	}
	for _, r := range p.Allows() {
		rw.Allow = append(rw.Allow, r.Resource)
	}
	for _, r := range p.Denies() {
		rw.Deny = append(rw.Deny, r.Resource)
	}
	return rw
}

func (e *rewriteEnforcer) Mode() EnforceMode { return EnforceRewrite }

// scopeUnion folds rule resources into one engine set expression.
func scopeUnion(paths []*xpath.Path) *store.SetExpr {
	leaves := make([]*store.SetExpr, len(paths))
	for i, p := range paths {
		leaves[i] = store.PathLeaf(p)
	}
	return store.Combine(store.OpUnion, leaves...)
}

// scopes returns the allow/deny scope sets for the current store version,
// re-evaluating them through the engine when stale. Callers hold at least
// s.mu.RLock (version and store are stable). A hit is one atomic load;
// concurrent readers that find the sets stale serialize on e.mu, and all
// but the first rebuilder then see a hit.
func (e *rewriteEnforcer) scopes() (allow, deny map[int64]bool, hit bool, err error) {
	if c := e.cur.Load(); c != nil && c.built == e.s.version {
		return c.allow, c.deny, true, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.cur.Load(); c != nil && c.built == e.s.version {
		return c.allow, c.deny, true, nil
	}
	e.rebuilds.Inc()
	allow, err = e.s.engine.EvalScope(scopeUnion(e.rw.Allow))
	if err != nil {
		return nil, nil, false, err
	}
	deny, err = e.s.engine.EvalScope(scopeUnion(e.rw.Deny))
	if err != nil {
		return nil, nil, false, err
	}
	e.cur.Store(&scopeSets{built: e.s.version, allow: allow, deny: deny})
	return allow, deny, false, nil
}

// Annotate rebuilds the scope sets for the current version; no signs are
// written.
func (e *rewriteEnforcer) Annotate(context.Context) (AnnotateStats, error) {
	_, _, _, err := e.scopes()
	return AnnotateStats{}, err
}

// Maintain patches scope sets that were current just before the write's
// version bump up to the new version, instead of leaving them for the
// next read to rebuild. Deleted ids leave both sets, and every element of
// the write's region (see writeRegion) is re-decided against each rule
// with xpath.Selects. When that region is the whole document the sets are
// left stale.
func (e *rewriteEnforcer) Maintain(_ *obs.Span, _ *UpdateReport, d writeDelta, _ func() []*xpath.Path) error {
	c := e.cur.Load()
	if c == nil || c.built+1 != e.s.version {
		return nil
	}
	roots, whole := e.s.region.roots(e.s.doc, d)
	if whole {
		return nil
	}
	for _, ids := range d.deleted {
		for _, id := range ids {
			delete(c.allow, id)
			delete(c.deny, id)
		}
	}
	for _, r := range roots {
		r.Walk(func(n *xmltree.Node) bool {
			if n.IsElement() {
				setMember(c.allow, n, e.rw.Allow)
				setMember(c.deny, n, e.rw.Deny)
			}
			return true
		})
	}
	e.cur.Store(&scopeSets{built: e.s.version, allow: c.allow, deny: c.deny})
	return nil
}

// setMember records whether n lies in the union of the given scopes.
func setMember(set map[int64]bool, n *xmltree.Node, paths []*xpath.Path) {
	if selectsAny(paths, n) {
		set[n.ID] = true
	} else {
		delete(set, n.ID)
	}
}

// Request evaluates q raw and applies the all-or-nothing check against
// the membership algebra. Result shapes and denial texts mirror the
// materialized paths exactly: Nodes in evaluation order with a labeled
// first-denial on the tree store, deduplicated ascending IDs with an
// id-only denial on the relational ones.
func (e *rewriteEnforcer) Request(ctx context.Context, q *xpath.Path, parent *obs.Span) (*RequestResult, bool, error) {
	allow, deny, hit, err := e.scopes()
	if err != nil {
		return nil, hit, err
	}
	res, err := e.s.engine.RawQuery(obs.ContextWithSpan(ctx, parent), q)
	if err != nil {
		return nil, hit, err
	}
	sp := obs.Start(parent, "check-access")
	defer sp.Finish()
	sp.SetAttr("mode", "rewrite")
	if !e.s.engine.Relational() {
		for _, n := range res.Nodes {
			if !e.rw.Accessible(allow[n.ID], deny[n.ID]) {
				sp.SetAttr("outcome", "denied")
				return nil, hit, &DeniedError{ID: n.ID, Label: n.Label}
			}
		}
		sp.SetAttr("outcome", "granted")
		return res, hit, nil
	}
	for _, id := range res.IDs {
		if !e.rw.Accessible(allow[id], deny[id]) {
			sp.SetAttr("outcome", "denied")
			return nil, hit, &DeniedError{ID: id}
		}
	}
	sp.SetAttr("outcome", "granted")
	return res, hit, nil
}

// AccessibleIDs derives the accessible element set from the scope sets —
// the rewriting counterpart of reading materialized signs back.
func (e *rewriteEnforcer) AccessibleIDs() (map[int64]bool, error) {
	allow, deny, _, err := e.scopes()
	if err != nil {
		return nil, err
	}
	out := map[int64]bool{}
	for _, n := range e.s.Document().Elements() {
		if e.rw.Accessible(allow[n.ID], deny[n.ID]) {
			out[n.ID] = true
		}
	}
	return out, nil
}
