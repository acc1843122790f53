// Package core implements the paper's access-control system (Section 4):
// the optimizer (redundancy elimination, Section 5.1), the annotator
// (annotation-query construction and the two-phase relational annotation
// algorithm, Section 5.2), the reannotator (dependency graph, rule
// expansion and the Trigger algorithm, Section 5.3), and the requester
// front end with its all-or-nothing query semantics. The System type wires
// these components over the native XML store and the relational store.
package core

import (
	"xmlac/internal/dtd"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// ContainFunc is a containment test p ⊑ q. The optimizer and the
// dependency graph are parameterized over it so the schema-aware variant
// (pattern.ContainsUnderSchema) can be swapped in; any ContainFunc must be
// sound (a true answer implies real containment on the documents in play).
type ContainFunc func(p, q *xpath.Path) bool

// SchemaContainFunc adapts the schema-aware containment test of the pattern
// package to a ContainFunc.
func SchemaContainFunc(schema *dtd.Schema) ContainFunc {
	return func(p, q *xpath.Path) bool {
		return pattern.ContainsUnderSchema(p, q, schema)
	}
}

// RemoveRedundant implements algorithm Redundancy-Elimination (Figure 4):
// within each same-effect rule set, a rule contained in another is dropped.
// Rules of opposite effect never eliminate each other (the paper's example:
// R3 ⊑ R1 survives because their effects differ). The containment test is
// the sound homomorphism check of the pattern package, so only provably
// redundant rules are removed.
//
// The returned policy preserves rule order; the second result lists the
// removed rules. When two rules are equivalent the later one is removed.
func RemoveRedundant(p *policy.Policy) (*policy.Policy, []policy.Rule) {
	return RemoveRedundantWith(p, pattern.Contains)
}

// RemoveRedundantWith is RemoveRedundant under a custom containment test —
// typically SchemaContainFunc, which eliminates rules that are only
// provably redundant on schema-valid documents (the schema-aware
// optimization the paper's conclusion proposes). The System does not use
// it: accepted writes can leave the document invalid, and there a rule
// dropped this way still decides nodes. The ablation experiment measures
// it.
func RemoveRedundantWith(p *policy.Policy, contains ContainFunc) (*policy.Policy, []policy.Rule) {
	removed := make([]bool, len(p.Rules))
	for i := range p.Rules {
		if removed[i] {
			continue
		}
		for j := range p.Rules {
			if i == j || removed[j] || removed[i] {
				continue
			}
			ri, rj := p.Rules[i], p.Rules[j]
			if ri.Effect != rj.Effect {
				continue
			}
			iInJ := contains(ri.Resource, rj.Resource)
			jInI := contains(rj.Resource, ri.Resource)
			switch {
			case iInJ && jInI:
				// Equivalent: drop the later one.
				if i < j {
					removed[j] = true
				} else {
					removed[i] = true
				}
			case iInJ:
				removed[i] = true
			case jInI:
				removed[j] = true
			}
		}
	}
	out := &policy.Policy{Default: p.Default, Conflict: p.Conflict}
	var gone []policy.Rule
	for i, r := range p.Rules {
		if removed[i] {
			gone = append(gone, r)
		} else {
			out.Rules = append(out.Rules, r)
		}
	}
	return out, gone
}
