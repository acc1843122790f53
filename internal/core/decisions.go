package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"xmlac/internal/obs"
	"xmlac/internal/store"
	"xmlac/internal/xpath"
)

// The decision set is the one copy of the read policy's decisions a
// System keeps in memory beside its store: for every element, whether it
// lies in the union of the allow scopes and in the union of the deny
// scopes, stamped with the System version it reflects. The Table 2
// membership algebra (xpath.Rewriter.Accessible) turns the two bits into
// the element's accessibility. Rewriting enforcement answers every
// request from it, and so does signs enforcement with Config.QueryCache,
// instead of probing the signs in the store.
//
// Annotate and reads evaluate the set through the engine's EvalScope.
// Writes never do: each write patches a set that was current before it
// over the write's region (see writeRegion and System.maintain), and a
// write whose region is the whole document leaves the set stale for the
// next read to rebuild.

// decisionSet is one generation of the set.
type decisionSet struct {
	built       uint64 // the System version the set reflects
	allow, deny map[int64]bool
}

// decisions publishes the current decisionSet: readers load it without
// locking, and mu single-flights rebuilds.
type decisions struct {
	cur      atomic.Pointer[decisionSet]
	mu       sync.Mutex
	rebuilds *obs.Counter // core_rewrite_scope_rebuilds_total; nil without metrics
}

// scopeUnion folds rule resources into one engine set expression.
func scopeUnion(paths []*xpath.Path) *store.SetExpr {
	leaves := make([]*store.SetExpr, len(paths))
	for i, p := range paths {
		leaves[i] = store.PathLeaf(p)
	}
	return store.Combine(store.OpUnion, leaves...)
}

// decisionSet returns the set for the current version, evaluating it
// through the engine when stale; hit reports that it was already current.
// Callers hold at least s.mu.RLock, so the version and the store are
// stable. A hit is one atomic load; concurrent readers that find the set
// stale serialize on the mutex, and all but the first then see a hit.
func (s *System) decisionSet() (set *decisionSet, hit bool, err error) {
	if c := s.dec.cur.Load(); c != nil && c.built == s.version {
		return c, true, nil
	}
	s.dec.mu.Lock()
	defer s.dec.mu.Unlock()
	if c := s.dec.cur.Load(); c != nil && c.built == s.version {
		return c, true, nil
	}
	s.dec.rebuilds.Inc()
	allow, err := s.engine.EvalScope(scopeUnion(s.region.rw.Allow))
	if err != nil {
		return nil, false, err
	}
	deny, err := s.engine.EvalScope(scopeUnion(s.region.rw.Deny))
	if err != nil {
		return nil, false, err
	}
	set = &decisionSet{built: s.version, allow: allow, deny: deny}
	s.dec.cur.Store(set)
	return set, false, nil
}

// currentBeforeWrite returns the set when it reflects the version just
// before the write whose bump has just happened, and nil otherwise.
func (s *System) currentBeforeWrite() *decisionSet {
	if c := s.dec.cur.Load(); c != nil && c.built+1 == s.version {
		return c
	}
	return nil
}

// patchDecisions brings set, current before the write d, up to the
// write's version: d's deleted ids leave both scopes, and every element of
// the write's region takes its re-decided membership. Callers hold s.mu
// exclusively, so no reader sees the maps change.
func (s *System) patchDecisions(set *decisionSet, d writeDelta, region []decided) {
	for _, ids := range d.deleted {
		for _, id := range ids {
			delete(set.allow, id)
			delete(set.deny, id)
		}
	}
	for _, e := range region {
		setMember(set.allow, e.id, e.allow)
		setMember(set.deny, e.id, e.deny)
	}
	s.dec.cur.Store(&decisionSet{built: s.version, allow: set.allow, deny: set.deny})
}

func setMember(set map[int64]bool, id int64, in bool) {
	if in {
		set[id] = true
	} else {
		delete(set, id)
	}
}

// servesFromSet reports whether requests are decided against the
// decision set rather than the store's signs.
func (s *System) servesFromSet() bool {
	return s.enf.Mode() == EnforceRewrite || s.cfg.QueryCache
}

// requestDecided answers q all-or-nothing from the decision set: raw
// evaluates q with no access check, in its engine family's result shape,
// and every match is decided against the set in the result's order —
// Nodes in evaluation order with a labeled first denial for the tree
// store, ascending IDs with an id-only denial for the relational ones.
// mode labels the check-access span; hit reports a current set.
func (s *System) requestDecided(parent *obs.Span, mode string, raw func() (*RequestResult, error)) (*RequestResult, bool, error) {
	set, hit, err := s.decisionSet()
	if err != nil {
		return nil, hit, err
	}
	res, err := raw()
	if err != nil {
		return nil, hit, err
	}
	sp := obs.Start(parent, "check-access")
	defer sp.Finish()
	sp.SetAttr("mode", mode)
	rw := s.region.rw
	for _, n := range res.Nodes {
		if !rw.Accessible(set.allow[n.ID], set.deny[n.ID]) {
			sp.SetAttr("outcome", "denied")
			return nil, hit, &DeniedError{ID: n.ID, Label: n.Label}
		}
	}
	for _, id := range res.IDs {
		if !rw.Accessible(set.allow[id], set.deny[id]) {
			sp.SetAttr("outcome", "denied")
			return nil, hit, &DeniedError{ID: id}
		}
	}
	sp.SetAttr("outcome", "granted")
	return res, hit, nil
}

// treeQuery evaluates q on the tree with no access check, in the result
// shape of the engine's family: the tree store's Nodes, or the relational
// stores' deduplicated ascending IDs.
func (s *System) treeQuery(q *xpath.Path, parent *obs.Span) (*RequestResult, error) {
	sp := obs.Start(parent, "eval-query")
	nodes, err := xpath.Eval(q, s.doc)
	sp.SetAttr("matched", len(nodes)).Finish()
	if err != nil {
		return nil, err
	}
	if !s.engine.Relational() {
		return &RequestResult{Nodes: nodes, Checked: len(nodes)}, nil
	}
	ids := make([]int64, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return &RequestResult{IDs: ids, Checked: len(ids)}, nil
}

// decidedAccessibleIDs lists the accessible elements by the decision set.
func (s *System) decidedAccessibleIDs() (map[int64]bool, error) {
	set, _, err := s.decisionSet()
	if err != nil {
		return nil, err
	}
	rw := s.region.rw
	out := map[int64]bool{}
	for _, n := range s.doc.Elements() {
		if rw.Accessible(set.allow[n.ID], set.deny[n.ID]) {
			out[n.ID] = true
		}
	}
	return out, nil
}
