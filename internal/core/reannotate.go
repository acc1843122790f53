package core

import (
	"errors"
	"fmt"
	"time"

	"xmlac/internal/audit"
	"xmlac/internal/obs"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Re-annotation (Section 5.3) runs in two phases around the document
// update, because the affected region must be observed both before the
// update (nodes that may *lose* their non-default sign) and after it
// (nodes that may *gain* one):
//
//  1. Prepare: run Trigger on the update expression, build the triggered
//     sub-policy, and record the pre-update scope of the triggered rules.
//  2. Apply the update (outside this package's control).
//  3. Complete: record the post-update scope, form the affected set N as
//     the union of both scopes (restricted to surviving nodes), evaluate
//     the sub-policy's annotation query, and rewrite signs only within N.
//
// Both phases speak only the store.Engine seam (EvalScope and
// ApplySignsWithin), so one Reannotation type serves every backend.
// The paper's full-annotation baseline instead clears everything and runs
// the whole policy; Figure 12 compares the two.

// DeleteAndReannotate applies a delete update (an XPath expression locating
// the subtrees to remove) and re-annotates only the affected region, per
// Section 5.3. This is the optimized path Figure 12 benchmarks as
// "reannot". The round trip lands in the audit trail as a "reannotate"
// event attributed to the triggered rules.
func (s *System) DeleteAndReannotate(u *xpath.Path) (*UpdateReport, error) {
	start := time.Now()
	rep, err := s.deleteAndReannotate(u)
	s.auditUpdate(u.String(), rep, time.Since(start), err)
	return rep, err
}

// DeleteAndFullAnnotate is the baseline Figure 12 compares against: apply
// the delete, then annotate the whole document from scratch ("fannot").
// Audited like DeleteAndReannotate (the inner full annotation emits its
// own "annotate" event).
func (s *System) DeleteAndFullAnnotate(u *xpath.Path) (*UpdateReport, error) {
	start := time.Now()
	rep, err := s.deleteAndFullAnnotate(u)
	s.auditUpdate(u.String(), rep, time.Since(start), err)
	return rep, err
}

// InsertAndReannotate grafts a subtree under every node matched by
// parentPath and re-annotates the affected region. The update expression
// used for triggering is parentPath/<child label>, locating the inserted
// nodes — the insert counterpart the paper lists as future work, supported
// here by the same Trigger machinery. Audited as a "reannotate" event.
func (s *System) InsertAndReannotate(parentPath *xpath.Path, tmpl *xmltree.Node) (*UpdateReport, error) {
	start := time.Now()
	rep, err := s.insertAndReannotate(parentPath, tmpl)
	s.auditUpdate(parentPath.String(), rep, time.Since(start), err)
	return rep, err
}

// auditUpdate records one update + re-annotation round trip, attributed
// to the rules the Trigger algorithm selected. Write-access denials keep
// their own "write-check" event; here they classify the round trip.
func (s *System) auditUpdate(query string, rep *UpdateReport, d time.Duration, err error) {
	if s.aud == nil {
		return
	}
	e := audit.Event{Kind: "reannotate", Query: query, Duration: d}
	if rep != nil {
		e.Trace = rep.TraceID
	}
	switch {
	case err == nil:
		e.Outcome = audit.OutcomeOK
		e.Updated, e.Reset = rep.Stats.Updated, rep.Stats.Reset
		e.Matched = rep.DeletedNodes
		e.Rules = rep.Triggered
	case errors.Is(err, ErrUpdateDenied):
		e.Outcome = audit.OutcomeDeny
		e.Err = err.Error()
	default:
		e.Outcome = audit.OutcomeError
		e.Err = err.Error()
	}
	s.auditRecord(e)
}

// Reannotation is a prepared re-annotation: one type for every backend,
// built on the engine's EvalScope/ApplySignsWithin primitives.
type Reannotation struct {
	reann *Reannotator
	// Triggered indexes the rules the Trigger algorithm selected.
	Triggered []int
	query     AnnotationQuery
	scopeExpr *store.SetExpr
	preIDs    map[int64]bool
	phases    obs.Phases // prepare-stage breakdown, folded into Complete's stats
}

// PrepareReannotation runs phase 1 against an engine: Trigger selection,
// the triggered sub-policy's annotation query, and the pre-update scope.
// Call it before applying the update.
func PrepareReannotation(eng store.Engine, r *Reannotator, us ...*xpath.Path) (*Reannotation, error) {
	return prepareReannotation(eng, r, nil, us...)
}

func prepareReannotation(eng store.Engine, r *Reannotator, parent *obs.Span, us ...*xpath.Path) (*Reannotation, error) {
	prep := &Reannotation{reann: r, preIDs: map[int64]bool{}}
	_ = stage(parent, &prep.phases, "trigger-selection", func() error {
		prep.Triggered = r.TriggerAll(us)
		sub := r.TriggeredPolicy(prep.Triggered)
		var scopeLeaves []*store.SetExpr
		for _, rule := range sub.Rules {
			scopeLeaves = append(scopeLeaves, store.PathLeaf(rule.Resource))
		}
		prep.query = BuildAnnotationQuery(sub)
		prep.scopeExpr = store.Combine(store.OpUnion, scopeLeaves...)
		return nil
	})
	if err := stage(parent, &prep.phases, "scope-pre", func() error {
		ids, err := eng.EvalScope(prep.scopeExpr)
		if err != nil {
			return err
		}
		prep.preIDs = ids
		return nil
	}); err != nil {
		return nil, err
	}
	return prep, nil
}

// Complete runs phase 3 on the updated store: it recomputes the scope,
// forms the affected set (pre-update scope restricted to surviving
// nodes, unioned with the post-update scope), evaluates the sub-policy's
// annotation query, and rewrites signs only within the affected set.
func (p *Reannotation) Complete(doc *xmltree.Document, eng store.Engine) (AnnotateStats, error) {
	return p.complete(doc, eng, nil)
}

func (p *Reannotation) complete(doc *xmltree.Document, eng store.Engine, parent *obs.Span) (AnnotateStats, error) {
	stats := AnnotateStats{Phases: p.phases}
	if len(p.Triggered) == 0 {
		return stats, nil
	}
	affected := make(map[int64]bool, len(p.preIDs))
	if err := stage(parent, &stats.Phases, "scope-post", func() error {
		// The tree mirrors every backend's surviving nodes, so it filters
		// the pre-update scope down to the nodes the update left alive.
		for id := range p.preIDs {
			if doc.NodeByID(id) != nil {
				affected[id] = true
			}
		}
		post, err := eng.EvalScope(p.scopeExpr)
		if err != nil {
			return err
		}
		for id := range post {
			affected[id] = true
		}
		return nil
	}); err != nil {
		return stats, err
	}
	updateSet := map[int64]bool{}
	if err := stage(parent, &stats.Phases, "compute-update-set", func() error {
		var err error
		updateSet, err = eng.EvalScope(p.query.Expr)
		return err
	}); err != nil {
		return stats, err
	}
	err := stage(parent, &stats.Phases, "apply-signs", func() error {
		updated, reset, err := eng.ApplySignsWithin(affected, updateSet, p.query.Sign, p.query.Default)
		stats.Updated += updated
		stats.Reset += reset
		return err
	})
	return stats, err
}

// ApplyDeleteTree applies a delete update to the document: every node
// matched by u is removed with its subtree. It returns the deleted
// *element* ids grouped by element label (the relational engines need
// them grouped by table) and the total number of deleted nodes including
// text nodes.
func ApplyDeleteTree(doc *xmltree.Document, u *xpath.Path) (map[string][]int64, int, error) {
	d, total, err := deleteTree(doc, u)
	return d.deleted, total, err
}

// deleteTree is ApplyDeleteTree reporting the change as a writeDelta,
// whose parents are those of the removed subtree roots.
func deleteTree(doc *xmltree.Document, u *xpath.Path) (writeDelta, int, error) {
	matches, err := xpath.Eval(u, doc)
	if err != nil {
		return writeDelta{}, 0, err
	}
	d := writeDelta{deleted: map[string][]int64{}}
	total := 0
	for _, n := range matches {
		if !doc.Contains(n) {
			continue // already removed inside an earlier match's subtree
		}
		if n == doc.Root() {
			return writeDelta{}, 0, fmt.Errorf("core: update %q would delete the document root", u)
		}
		// Record the subtree's element ids before removal.
		var stack []*xmltree.Node
		stack = append(stack, n)
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if m.IsElement() {
				d.deleted[m.Label] = append(d.deleted[m.Label], m.ID)
			}
			total++
			stack = append(stack, m.Children()...)
		}
		d.parents = append(d.parents, n.Parent())
		if err := doc.DeleteSubtree(n); err != nil {
			return writeDelta{}, 0, err
		}
	}
	return d, total, nil
}
