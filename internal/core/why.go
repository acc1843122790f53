package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Rule attribution answers the question the materialized signs erase:
// *which* rule made a node accessible or not. The annotation queries of
// Figure 5 fold the per-rule node sets into one UNION/EXCEPT update set,
// so once the signs are written the provenance is gone. This module
// re-derives it: every rule's scope is evaluated once per store version
// (the same version stamp that invalidates the query cache), recorded as
// a per-node list of matching rule indices, and decisions are explained
// by replaying the Table 2 conflict-resolution over that list. Because
// every backend materializes the same semantics (the golden equivalence
// tests pin this), one tree-side attribution map explains the signs of
// the native and both relational stores alike.

// RuleRef identifies one rule of the active (optimized) policy inside a
// WhyDecision. The default semantics is represented as Index -1, Name
// "default".
type RuleRef struct {
	// Index is the rule's position in System.Policy().Rules, or -1 for
	// the policy default.
	Index int `json:"index"`
	// Name is the rule's name (its position as "#i" when unnamed), or
	// "default".
	Name string `json:"name"`
	// Effect is the rule's sign.
	Effect policy.Effect `json:"-"`
}

// String renders "R3(-)" / "default(+)".
func (r RuleRef) String() string { return r.Name + "(" + r.Effect.String() + ")" }

// WhyDecision explains one node's accessibility under the active policy
// semantics: the deciding rule, the same-effect rules that also matched,
// and the opposite-effect rules the conflict resolution overrode.
type WhyDecision struct {
	// ID and Label identify the node.
	ID    int64  `json:"id"`
	Label string `json:"label"`
	// Accessible is the node's materialized accessibility.
	Accessible bool `json:"accessible"`
	// Deciding is the rule that determines the sign: the first matching
	// rule of the winning effect, or the policy default when no rule
	// matches.
	Deciding RuleRef `json:"deciding"`
	// Also are the further matching rules of the winning effect.
	Also []RuleRef `json:"also,omitempty"`
	// Losing are the matching rules of the opposite effect, overridden by
	// the conflict resolution (empty unless the node is in a genuine
	// conflict).
	Losing []RuleRef `json:"losing,omitempty"`
}

// String renders one line of the `xmlac why` output, e.g.
//
//	node 7 (name): + by R2(+) also R4(+) overriding R3(-)
func (d WhyDecision) String() string {
	var b strings.Builder
	sign := "-"
	if d.Accessible {
		sign = "+"
	}
	fmt.Fprintf(&b, "node %d (%s): %s by %s", d.ID, d.Label, sign, d.Deciding)
	if len(d.Also) > 0 {
		b.WriteString(" also " + joinRefs(d.Also))
	}
	if len(d.Losing) > 0 {
		b.WriteString(" overriding " + joinRefs(d.Losing))
	}
	return b.String()
}

// AttributingRules lists the decision's rule ids as the audit trail
// records them: the deciding rule first, then the losing rules it
// overrode. A default decision yields ["default"].
func (d WhyDecision) AttributingRules() []string {
	out := make([]string, 0, 1+len(d.Losing))
	out = append(out, d.Deciding.Name)
	for _, l := range d.Losing {
		out = append(out, l.Name)
	}
	return out
}

func joinRefs(refs []RuleRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// attribution caches, per store version, which rules match each node id.
// Built lazily under its own lock by callers holding at least the
// System's read lock (so the document and version are stable); all but
// the first concurrent builder see a hit.
type attribution struct {
	mu    sync.Mutex
	built uint64            // System version the map reflects
	byID  map[int64][]int32 // matching rule indices per node, policy order
}

// ruleLabel names a rule for metrics and WhyDecisions.
func ruleLabel(i int, r policy.Rule) string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("#%d", i)
}

// attributionLocked returns the match map for the current version,
// rebuilding it when stale. Each rebuild evaluates every rule of the
// optimized read policy once against the document tree, feeding the
// per-rule core_rule_matches_total counters and
// core_rule_annotation_seconds histograms.
func (s *System) attributionLocked() (map[int64][]int32, error) {
	a := &s.attr
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.built == s.version && a.byID != nil {
		return a.byID, nil
	}
	doc := s.Document()
	byID := make(map[int64][]int32)
	for i, r := range s.policy.Rules {
		start := time.Now()
		nodes, err := xpath.Eval(r.Resource, doc)
		if err != nil {
			return nil, fmt.Errorf("core: attribution of rule %s: %w", ruleLabel(i, r), err)
		}
		if reg := s.cfg.Metrics; reg != nil {
			label := ruleLabel(i, r)
			reg.Counter(fmt.Sprintf("core_rule_matches_total{rule=%q}", label)).Add(int64(len(nodes)))
			reg.Histogram(fmt.Sprintf("core_rule_annotation_seconds{rule=%q}", label)).ObserveDuration(time.Since(start))
		}
		for _, n := range nodes {
			byID[n.ID] = append(byID[n.ID], int32(i))
		}
	}
	a.byID, a.built = byID, s.version
	return byID, nil
}

// decide replays the Table 2 semantics for one node given the indices of
// its matching rules (ascending policy order): the conflict resolution
// picks the winning effect, the first winning rule decides, and the
// opposite-effect matches lose.
func decide(pol *policy.Policy, matched []int32) (deciding RuleRef, also, losing []RuleRef, accessible bool) {
	var allows, denies []RuleRef
	for _, i := range matched {
		r := pol.Rules[i]
		ref := RuleRef{Index: int(i), Name: ruleLabel(int(i), r), Effect: r.Effect}
		if r.Effect == policy.Allow {
			allows = append(allows, ref)
		} else {
			denies = append(denies, ref)
		}
	}
	switch {
	case len(allows) == 0 && len(denies) == 0:
		deciding = RuleRef{Index: -1, Name: "default", Effect: pol.Default}
	case len(denies) == 0:
		deciding, also = allows[0], allows[1:]
	case len(allows) == 0:
		deciding, also = denies[0], denies[1:]
	case pol.Conflict == policy.Allow:
		deciding, also, losing = allows[0], allows[1:], denies
	default:
		deciding, also, losing = denies[0], denies[1:], allows
	}
	return deciding, also, losing, deciding.Effect == policy.Allow
}

// Why explains every node matched by q: which rule decides its
// accessibility under the active (default, conflict-resolution)
// semantics, which same-effect rules also matched, and which
// opposite-effect rules lost the conflict. The explanation agrees with
// the materialized signs on every backend — TestWhyAgreesWithSigns pins
// this on all four Table 2 semantics.
func (s *System) Why(q *xpath.Path) ([]WhyDecision, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	byID, err := s.attributionLocked()
	if err != nil {
		return nil, err
	}
	nodes, err := xpath.Eval(q, s.Document())
	if err != nil {
		return nil, err
	}
	out := make([]WhyDecision, 0, len(nodes))
	seen := make(map[int64]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		out = append(out, s.decideNode(byID, n))
	}
	return out, nil
}

// WhyNode explains a single node by universal id (nil when the id is not
// in the document).
func (s *System) WhyNode(id int64) (*WhyDecision, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	byID, err := s.attributionLocked()
	if err != nil {
		return nil, err
	}
	n := s.Document().NodeByID(id)
	if n == nil {
		return nil, nil
	}
	d := s.decideNode(byID, n)
	return &d, nil
}

// whyDeniedLocked attributes a denied node id for the audit trail.
// Callers hold at least s.mu.RLock. Returns nil when the id is unknown
// (e.g. already deleted).
func (s *System) whyDeniedLocked(id int64) (*WhyDecision, error) {
	byID, err := s.attributionLocked()
	if err != nil {
		return nil, err
	}
	n := s.Document().NodeByID(id)
	if n == nil {
		return nil, nil
	}
	d := s.decideNode(byID, n)
	return &d, nil
}

func (s *System) decideNode(byID map[int64][]int32, n *xmltree.Node) WhyDecision {
	deciding, also, losing, accessible := decide(s.policy, byID[n.ID])
	return WhyDecision{ID: n.ID, Label: n.Label, Accessible: accessible, Deciding: deciding, Also: also, Losing: losing}
}

// decideOnFly attributes one node against an arbitrary policy by matching
// it against each rule directly (no cached map; xpath.Matches walks up
// from the node, O(depth) per rule) — the write-rule path, where no signs
// are materialized and denials are rare enough that per-node matching is
// cheaper than maintaining a second attribution map.
func decideOnFly(pol *policy.Policy, doc *xmltree.Document, n *xmltree.Node) (WhyDecision, error) {
	var matched []int32
	for i, r := range pol.Rules {
		ok, err := xpath.Matches(r.Resource, doc, n)
		if err != nil {
			return WhyDecision{}, err
		}
		if ok {
			matched = append(matched, int32(i))
		}
	}
	deciding, also, losing, accessible := decide(pol, matched)
	return WhyDecision{ID: n.ID, Label: n.Label, Accessible: accessible, Deciding: deciding, Also: also, Losing: losing}, nil
}

// SemanticsLabel renders the active (default semantics, conflict
// resolution) pair as the audit trail records it, e.g. "ds=-,cr=-".
func (s *System) SemanticsLabel() string {
	return semanticsLabel(s.policy)
}
