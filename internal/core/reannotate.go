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

// trigger records, as the trigger-selection phase, the names of the rules
// the Trigger algorithm selects for the update expressions. Callers hold
// s.mu exclusively under signs enforcement.
func (s *System) trigger(root *obs.Span, rep *UpdateReport, us ...*xpath.Path) {
	_ = stage(root, &rep.Stats.Phases, "trigger-selection", func() error {
		rep.Triggered = s.reann.RuleNames(s.reann.TriggerAll(us))
		return nil
	})
}

// reannotateRegion brings the signs up to date after the write d, which
// the tree and the engine already hold: every element of the write's
// region is re-decided against the whole read policy, and the engine
// rewrites the signs of the region's elements only. A write whose region
// is the whole document is annotated in full instead. Callers hold s.mu
// exclusively, inside the engine transaction of the write.
func (s *System) reannotateRegion(root *obs.Span, d writeDelta, stats *AnnotateStats) error {
	var roots []*xmltree.Node
	var whole bool
	_ = stage(root, &stats.Phases, "write-region", func() error {
		roots, whole = s.region.roots(s.doc, d)
		return nil
	})
	if whole {
		full, err := s.annotateLocked(obs.ContextWithSpan(context.Background(), root))
		stats.Updated, stats.Reset = full.Updated, full.Reset
		stats.Phases = append(stats.Phases, full.Phases...)
		return err
	}
	// Signs are written the way full annotation writes them: the nodes
	// whose decision differs from the policy default carry the opposite
	// sign, every other element of the region the default.
	defAllow := s.region.rw.DefaultAllow
	def, sign := xmltree.SignMinus, xmltree.SignPlus
	if defAllow {
		def, sign = sign, def
	}
	affected, flipped := map[int64]bool{}, map[int64]bool{}
	_ = stage(root, &stats.Phases, "decide-region", func() error {
		for _, r := range roots {
			r.Walk(func(n *xmltree.Node) bool {
				if n.IsElement() {
					affected[n.ID] = true
					if s.region.accessible(n) != defAllow {
						flipped[n.ID] = true
					}
				}
				return true
			})
		}
		return nil
	})
	return stage(root, &stats.Phases, "apply-signs", func() error {
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
