package core

import (
	"fmt"
	"strings"

	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Rule attribution answers the question the materialized signs erase:
// *which* rule made a node accessible or not. The annotation queries of
// Figure 5 fold the per-rule node sets into one UNION/EXCEPT update set,
// so once the signs are written the provenance is gone. This module
// re-derives it per node, keeping nothing between calls: the node is
// matched against every rule with xpath.Selects, which walks up from the
// node, and the Table 2 conflict resolution is replayed over the matching
// rules. Because every backend materializes the same semantics (the
// golden equivalence tests pin this), one tree-side decision explains the
// signs of the native and the relational stores alike.

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

// ruleLabel names a rule for WhyDecisions and coverage reports.
func ruleLabel(i int, r policy.Rule) string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("#%d", i)
}

// decideOnFly attributes one node against a policy: it matches the node
// against each rule directly (xpath.Selects, O(depth × steps) per rule)
// and replays the Table 2 semantics over the matching rules — the
// conflict resolution picks the winning effect, the first winning rule
// decides, and the opposite-effect matches lose. Read and write rules
// alike are decided this way.
func decideOnFly(pol *policy.Policy, n *xmltree.Node) WhyDecision {
	var allows, denies []RuleRef
	for i, r := range pol.Rules {
		if !xpath.Selects(r.Resource, n) {
			continue
		}
		ref := RuleRef{Index: i, Name: ruleLabel(i, r), Effect: r.Effect}
		if r.Effect == policy.Allow {
			allows = append(allows, ref)
		} else {
			denies = append(denies, ref)
		}
	}
	d := WhyDecision{ID: n.ID, Label: n.Label}
	switch {
	case len(allows) == 0 && len(denies) == 0:
		d.Deciding = RuleRef{Index: -1, Name: "default", Effect: pol.Default}
	case len(denies) == 0:
		d.Deciding, d.Also = allows[0], allows[1:]
	case len(allows) == 0:
		d.Deciding, d.Also = denies[0], denies[1:]
	case pol.Conflict == policy.Allow:
		d.Deciding, d.Also, d.Losing = allows[0], allows[1:], denies
	default:
		d.Deciding, d.Also, d.Losing = denies[0], denies[1:], allows
	}
	d.Accessible = d.Deciding.Effect == policy.Allow
	return d
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
		out = append(out, decideOnFly(s.policy, n))
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
	n := s.Document().NodeByID(id)
	if n == nil {
		return nil, nil
	}
	d := decideOnFly(s.policy, n)
	return &d, nil
}

// SemanticsLabel renders the active (default semantics, conflict
// resolution) pair as the audit trail records it, e.g. "ds=-,cr=-".
func (s *System) SemanticsLabel() string {
	return semanticsLabel(s.policy)
}
