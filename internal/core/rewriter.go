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
// match is decided against the enforcer's decision set by the Table 2
// membership algebra over the policy's allow and deny scope unions. Signs
// are never written and writes never re-annotate.
//
// The decision set is the one copy of the read policy's decisions the
// enforcer keeps in memory beside the store: for every element, whether
// it lies in the union of the allow scopes and in the union of the deny
// scopes, stamped with the System version it reflects, and published
// through an atomic pointer so readers load it without locking. Annotate
// and reads evaluate it through the engine's EvalScope, single-flighted
// on mu. Writes never do: each write patches a set that was current
// before it over the write's region (see writeRegion), and a write whose
// region is the whole document leaves the set stale for the next read to
// rebuild.
type rewriteEnforcer struct {
	s        *System
	cur      atomic.Pointer[decisionSet]
	mu       sync.Mutex
	rebuilds *obs.Counter // core_rewrite_scope_rebuilds_total; nil without metrics
}

// decisionSet is one generation of the set.
type decisionSet struct {
	built       uint64 // the System version the set reflects
	allow, deny map[int64]bool
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

// Annotate has no signs to write; it builds the decision set.
func (e *rewriteEnforcer) Annotate(context.Context) (AnnotateStats, error) {
	_, _, err := e.decisionSet()
	return AnnotateStats{}, err
}

// Maintain patches the decision set over the write's re-decided region
// when the set was current before the write; a set that was already
// stale, or a write whose region is the whole document, leaves the
// rebuild to the next read.
func (e *rewriteEnforcer) Maintain(root *obs.Span, rep *UpdateReport, d writeDelta, _ func() []*xpath.Path) error {
	set := e.cur.Load()
	if set == nil || set.built+1 != e.s.version {
		return nil
	}
	region, whole := e.s.decideRegion(root, rep, d)
	if whole {
		return nil
	}
	for _, ids := range d.deleted {
		for _, id := range ids {
			delete(set.allow, id)
			delete(set.deny, id)
		}
	}
	for _, r := range region {
		setMember(set.allow, r.id, r.allow)
		setMember(set.deny, r.id, r.deny)
	}
	e.cur.Store(&decisionSet{built: e.s.version, allow: set.allow, deny: set.deny})
	return nil
}

func setMember(set map[int64]bool, id int64, in bool) {
	if in {
		set[id] = true
	} else {
		delete(set, id)
	}
}

// Request evaluates q raw on the engine and checks every match against
// the decision set; hit reports that the set was already current.
func (e *rewriteEnforcer) Request(ctx context.Context, q *xpath.Path, parent *obs.Span) (*RequestResult, bool, error) {
	set, hit, err := e.decisionSet()
	if err != nil {
		return nil, hit, err
	}
	res, err := e.s.engine.RawQuery(obs.ContextWithSpan(ctx, parent), q)
	if err != nil {
		return nil, hit, err
	}
	sp := obs.Start(parent, "check-access").SetAttr("mode", "rewrite")
	defer sp.Finish()
	rw := e.s.region.rw
	res, err = store.CheckMatches(sp, res, func(id int64, _ *xmltree.Node) bool {
		return rw.Accessible(set.allow[id], set.deny[id])
	})
	return res, hit, err
}

// AccessibleIDs derives the accessible element set from the decision
// set — the rewriting counterpart of reading materialized signs back.
func (e *rewriteEnforcer) AccessibleIDs() (map[int64]bool, error) {
	set, _, err := e.decisionSet()
	if err != nil {
		return nil, err
	}
	rw := e.s.region.rw
	out := map[int64]bool{}
	for _, n := range e.s.doc.Elements() {
		if rw.Accessible(set.allow[n.ID], set.deny[n.ID]) {
			out[n.ID] = true
		}
	}
	return out, nil
}

// decisionSet returns the set for the current version, evaluating it
// through the engine when stale; hit reports that it was already current.
// Callers hold at least the System's read lock, so the version and the
// store are stable. A hit is one atomic load; concurrent readers that
// find the set stale serialize on mu, and all but the first then see a
// hit.
func (e *rewriteEnforcer) decisionSet() (set *decisionSet, hit bool, err error) {
	version := e.s.version
	if c := e.cur.Load(); c != nil && c.built == version {
		return c, true, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.cur.Load(); c != nil && c.built == version {
		return c, true, nil
	}
	e.rebuilds.Inc()
	rw := e.s.region.rw
	allow, err := e.s.engine.EvalScope(scopeUnion(rw.Allow))
	if err != nil {
		return nil, false, err
	}
	deny, err := e.s.engine.EvalScope(scopeUnion(rw.Deny))
	if err != nil {
		return nil, false, err
	}
	set = &decisionSet{built: version, allow: allow, deny: deny}
	e.cur.Store(set)
	return set, false, nil
}

// scopeUnion folds rule resources into one engine set expression.
func scopeUnion(paths []*xpath.Path) *store.SetExpr {
	leaves := make([]*store.SetExpr, len(paths))
	for i, p := range paths {
		leaves[i] = store.PathLeaf(p)
	}
	return store.Combine(store.OpUnion, leaves...)
}
