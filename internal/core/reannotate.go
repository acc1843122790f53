package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xmlac/internal/audit"
	"xmlac/internal/obs"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Re-annotation (Section 5.3) runs after the document update. Trigger
// (Figure 8) still names the rules the update may affect, for the report
// and the audit trail, but it no longer decides which signs are
// rewritten: the write's region does (see writeRegion). Every element of
// the region is re-decided against the whole read policy on the tree, and
// only the region's signs go to the engine (ApplySignsWithin), so one
// path serves every backend and no rule scope is evaluated over the
// document. This deviates from the paper, whose re-annotation runs the
// triggered sub-policy's annotation query over the triggered rules'
// scopes; deciding the region against every rule also covers the rule
// interactions the Trigger dependency graph misses. A write whose region
// is the whole document is annotated in full. The paper's
// full-annotation baseline clears everything and runs the whole policy;
// Figure 12 compares the two.

// DeleteAndReannotate applies a delete update (an XPath expression locating
// the subtrees to remove) and re-annotates only the affected region, per
// Section 5.3. This is the optimized path Figure 12 benchmarks as
// "reannot". The round trip lands in the audit trail as a "reannotate"
// event attributed to the triggered rules.
func (s *System) DeleteAndReannotate(u *xpath.Path) (*UpdateReport, error) {
	return s.update(s.deleteOp("delete-reannotate", u, false))
}

// DeleteAndFullAnnotate is the baseline Figure 12 compares against: apply
// the delete, then annotate the whole document from scratch ("fannot").
// Audited like DeleteAndReannotate (the inner full annotation emits its
// own "annotate" event).
func (s *System) DeleteAndFullAnnotate(u *xpath.Path) (*UpdateReport, error) {
	return s.update(s.deleteOp("delete-fannot", u, true))
}

// InsertAndReannotate grafts a subtree under every node matched by
// parentPath and re-annotates the affected region. The update expression
// used for triggering is parentPath/<child label>, locating the inserted
// nodes — the insert counterpart the paper lists as future work, supported
// here by the same Trigger machinery. Audited as a "reannotate" event.
func (s *System) InsertAndReannotate(parentPath *xpath.Path, tmpl *xmltree.Node) (*UpdateReport, error) {
	return s.update(writeOp{
		span: "insert-reannotate", attr: "parent", target: parentPath, applySpan: "apply-insert",
		apply: func(parents []*xmltree.Node) (writeDelta, error) {
			var d writeDelta
			if tmpl == nil || !tmpl.IsElement() {
				return d, fmt.Errorf("core: insert template must be an element")
			}
			for _, p := range parents {
				n, err := s.doc.InsertSubtree(p, tmpl)
				if err != nil {
					return d, err
				}
				d.inserted = append(d.inserted, n)
				if err := s.engine.InsertSubtree(n); err != nil {
					return d, err
				}
			}
			return d, nil
		},
		locators: func() []*xpath.Path { return insertLocators(parentPath, tmpl) },
	})
}

// deleteOp describes a delete of the subtrees u matches; full selects the
// full-annotation baseline.
func (s *System) deleteOp(span string, u *xpath.Path, full bool) writeOp {
	return writeOp{
		span: span, attr: "update", target: u, applySpan: "apply-delete", full: full,
		apply: func(matches []*xmltree.Node) (writeDelta, error) {
			d, err := deleteNodes(s.doc, u, matches)
			if err != nil {
				return d, err
			}
			_, err = s.engine.DeleteRows(d.deleted)
			return d, err
		},
		locators: func() []*xpath.Path { return []*xpath.Path{u} },
	}
}

// writeOp is one update as the write skeleton runs it.
type writeOp struct {
	span, attr string      // root span name and the attribute carrying target
	target     *xpath.Path // locates the nodes whose write access is checked
	// apply changes the tree and the engine at the checked targets, as
	// the span named applySpan. On failure the delta holds what was
	// changed before it.
	applySpan string
	apply     func(targets []*xmltree.Node) (writeDelta, error)
	// locators yields the update expressions Trigger names rules for.
	locators func() []*xpath.Path
	// full annotates the whole document after the write instead of having
	// the enforcer maintain its state over the write's region.
	full bool
}

// update runs one write through the skeleton every write shares: under the
// exclusive lock it resolves the targets and checks write access, applies
// the change inside one engine transaction, bumps the version, has the
// enforcer bring its state up to date, and commits. A write that is
// denied, or fails before it changes the tree, leaves the version — and
// with it the decision set — alone. The round trip is audited.
func (s *System) update(op writeOp) (*UpdateReport, error) {
	start := time.Now()
	rep, err := s.runUpdate(op)
	s.auditUpdate(op.target.String(), rep, time.Since(start), err)
	return rep, err
}

// runUpdate is update without the audit wrapper.
func (s *System) runUpdate(op writeOp) (*UpdateReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	targets, err := xpath.Eval(op.target, s.doc)
	if err != nil {
		return nil, err
	}
	if err := s.checkWriteAccess(op.target.String(), targets); err != nil {
		return nil, err
	}
	rep := &UpdateReport{}
	root := s.tracer.Start(op.span).SetAttr(op.attr, op.target.String()).SetAttr("enforce", s.enf.Mode().String())
	defer root.Finish()
	rep.TraceID = root.TraceID().String()

	// The tuple changes and the sign maintenance form one atomic unit: a
	// failure mid-way must not leave the store half-updated. The native
	// engine's transaction scope is an accepted no-op (the tree update is
	// the commit).
	if err := s.engine.Begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	sp := obs.Start(root, op.applySpan)
	d, err := op.apply(targets)
	sp.Finish()
	if err == nil || d.changed() {
		s.version++ // the accessible set may have changed
	}
	if err != nil {
		return nil, s.abortEngine(err)
	}
	rep.DeletedNodes = d.removed
	rep.UpdateTime = time.Since(start)

	if op.full {
		// The full annotation runs as a child of this round trip's root,
		// so the baseline renders as one tree too.
		rep.Stats, err = s.annotateLocked(obs.ContextWithSpan(context.Background(), root), false)
		rep.ReannotateTime = rep.Stats.Duration
	} else {
		err = s.maintain(root, rep, d, op.locators)
	}
	if err != nil {
		return nil, s.abortEngine(err)
	}
	if err := s.engine.Commit(); err != nil {
		return nil, err
	}
	rep.finishPhases()
	return rep, nil
}

// abortEngine rolls the engine back after a mid-update failure; the error
// is returned enriched if the rollback itself fails.
func (s *System) abortEngine(err error) error {
	if !s.engine.InTransaction() {
		return err
	}
	if rbErr := s.engine.Rollback(); rbErr != nil {
		return fmt.Errorf("%w (relational rollback also failed: %v)", err, rbErr)
	}
	return err
}

// insertLocators builds one update expression per element of the inserted
// subtree: parentPath followed by the template-internal label chain. Every
// inserted node may change rule scopes (inserted descendants need their own
// annotations, unlike deleted ones, which simply vanish), so each locator
// participates in triggering.
func insertLocators(parentPath *xpath.Path, tmpl *xmltree.Node) []*xpath.Path {
	var out []*xpath.Path
	var walk func(n *xmltree.Node, chain []string)
	walk = func(n *xmltree.Node, chain []string) {
		if !n.IsElement() {
			return
		}
		chain = append(chain, n.Label)
		u := parentPath.Clone()
		for _, l := range chain {
			u.Steps = append(u.Steps, &xpath.Step{Axis: xpath.Child, Test: l})
		}
		out = append(out, u)
		for _, c := range n.Children() {
			walk(c, chain)
		}
	}
	walk(tmpl, nil)
	return out
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

// trigger records, as the trigger-selection phase, the names of the rules
// the Trigger algorithm selects for the update expressions. Callers hold
// s.mu exclusively.
func (s *System) trigger(root *obs.Span, rep *UpdateReport, us ...*xpath.Path) {
	_ = stage(root, &rep.Stats.Phases, "trigger-selection", func() error {
		rep.Triggered = s.reann.RuleNames(s.reann.TriggerAll(us))
		return nil
	})
}

// maintain brings the System's decisions up to date after the write d,
// which the tree and the engine already hold: the write's region is
// computed and re-decided once, and the same membership patches the
// decision set, when it was current before the write, and feeds the
// enforcer, which rewrites the region's signs under signs enforcement. A
// region that is the whole document is not walked: the decision set is
// left stale and the signs are annotated in full. Callers hold s.mu
// exclusively, inside the engine transaction of the write.
func (s *System) maintain(root *obs.Span, rep *UpdateReport, d writeDelta, locators func() []*xpath.Path) error {
	set := s.currentBeforeWrite()
	var region []decided
	var whole bool
	if set != nil || s.enf.Mode() == EnforceSigns {
		start := time.Now()
		var roots []*xmltree.Node
		_ = stage(root, &rep.Stats.Phases, "write-region", func() error {
			roots, whole = s.region.roots(s.doc, d)
			return nil
		})
		if !whole {
			_ = stage(root, &rep.Stats.Phases, "decide-region", func() error {
				region = s.region.decide(roots)
				return nil
			})
			if set != nil {
				s.patchDecisions(set, d, region)
			}
		}
		rep.ReannotateTime = time.Since(start)
	}
	return s.enf.Maintain(root, rep, region, whole, locators)
}

// writeRegionSigns rewrites the signs of a write's re-decided region, the
// way full annotation writes them: the elements whose decision differs
// from the policy default carry the opposite sign, every other element of
// the region the default. A whole-document region is annotated in full
// instead. Callers hold s.mu exclusively, inside the engine transaction
// of the write.
func (s *System) writeRegionSigns(root *obs.Span, region []decided, whole bool, stats *AnnotateStats) error {
	if whole {
		full, err := s.annotateLocked(obs.ContextWithSpan(context.Background(), root), false)
		stats.Updated, stats.Reset = full.Updated, full.Reset
		stats.Phases = append(stats.Phases, full.Phases...)
		return err
	}
	rw := s.region.rw
	def, sign := xmltree.SignMinus, xmltree.SignPlus
	if rw.DefaultAllow {
		def, sign = sign, def
	}
	return stage(root, &stats.Phases, "apply-signs", func() error {
		affected, flipped := make(map[int64]bool, len(region)), map[int64]bool{}
		for _, e := range region {
			affected[e.id] = true
			if rw.Accessible(e.allow, e.deny) != rw.DefaultAllow {
				flipped[e.id] = true
			}
		}
		var err error
		stats.Updated, stats.Reset, err = s.engine.ApplySignsWithin(affected, flipped, sign, def)
		return err
	})
}

// ApplyDeleteTree applies a delete update to the document: every node
// matched by u is removed with its subtree. It returns the deleted
// *element* ids grouped by element label (the relational engines need
// them grouped by table) and the total number of deleted nodes including
// text nodes.
func ApplyDeleteTree(doc *xmltree.Document, u *xpath.Path) (map[string][]int64, int, error) {
	matches, err := xpath.Eval(u, doc)
	if err != nil {
		return nil, 0, err
	}
	d, err := deleteNodes(doc, u, matches)
	return d.deleted, d.removed, err
}

// deleteNodes removes the matches of the update u with their subtrees and
// reports the change as a writeDelta, whose parents are those of the
// removed subtree roots. An update matching the document root is refused
// before anything is removed.
func deleteNodes(doc *xmltree.Document, u *xpath.Path, matches []*xmltree.Node) (writeDelta, error) {
	for _, n := range matches {
		if n == doc.Root() {
			return writeDelta{}, fmt.Errorf("core: update %q would delete the document root", u)
		}
	}
	d := writeDelta{deleted: map[string][]int64{}}
	for _, n := range matches {
		if !doc.Contains(n) {
			continue // already removed inside an earlier match's subtree
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
			d.removed++
			stack = append(stack, m.Children()...)
		}
		p := n.Parent()
		if err := doc.DeleteSubtree(n); err != nil {
			return d, err
		}
		d.parents = append(d.parents, p)
	}
	return d, nil
}
