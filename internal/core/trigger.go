package core

import (
	"fmt"

	"xmlac/internal/dtd"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// Reannotator holds the precomputed machinery of Section 5.3: the
// dependency graph of the policy and the schema-driven expansion of every
// rule, compiled into tree patterns, ready for the Trigger algorithm to
// name the rules an update may affect — for the update report and the
// audit trail only, as the write's region decides what is re-annotated.
// Building it is a one-time cost per (policy, schema); Trigger itself
// compiles the update expressions and runs O(n·h) containment tests, n the
// number of rules and h the schema height, as the paper reports.
type Reannotator struct {
	Policy *policy.Policy
	Graph  *DependencyGraph
	// Expansions[i] are the linearizations of rule i's resource.
	Expansions [][]*xpath.Path
	// patterns[i][k] is Expansions[i][k] compiled.
	patterns [][]*pattern.Pattern
}

// NewReannotator precomputes the dependency graph and the rule expansions,
// and compiles every expansion once.
func NewReannotator(p *policy.Policy, schema *dtd.Schema) (*Reannotator, error) {
	r := &Reannotator{
		Policy:     p,
		Graph:      BuildDependencyGraph(p),
		Expansions: make([][]*xpath.Path, len(p.Rules)),
		patterns:   make([][]*pattern.Pattern, len(p.Rules)),
	}
	for i, rule := range p.Rules {
		x, err := pattern.Expand(rule.Resource, schema)
		if err != nil {
			return nil, fmt.Errorf("core: expanding rule %s: %w", rule.Name, err)
		}
		r.Expansions[i] = x
		r.patterns[i] = make([]*pattern.Pattern, len(x))
		for k, e := range x {
			r.patterns[i][k] = pattern.Compile(e)
		}
	}
	return r, nil
}

// Trigger implements the algorithm of Figure 8: it returns the indices of
// the rules that must be considered for re-annotation after the update u
// (an XPath expression locating the inserted or deleted nodes). A rule
// triggers when some linearization x of its expansion satisfies
// x ⊑ u ∨ u ⊑ x ∨ x ≡ u; the dependency closure of every triggered rule is
// then added.
func (r *Reannotator) Trigger(u *xpath.Path) []int {
	return r.TriggerAll([]*xpath.Path{u})
}

// TriggerAll unions Trigger over several update expressions. Insert updates
// use it with one locator per node of the inserted subtree: unlike a
// delete, where removed descendants need no annotation, inserted
// descendants must be annotated, so every inserted label participates in
// triggering. Each expression is compiled once, and the dependency closure
// is taken once over the rules any of them triggers: a rule's Depends is
// the rest of its connected component in the symmetric neighbor graph, so
// the closure of a union is the union of the closures.
func (r *Reannotator) TriggerAll(us []*xpath.Path) []int {
	ups := make([]*pattern.Pattern, len(us))
	for k, u := range us {
		ups[k] = pattern.Compile(u)
	}
	selected := make([]bool, len(r.Policy.Rules))
	for i, xs := range r.patterns {
		if !triggers(xs, ups) {
			continue
		}
		selected[i] = true
		for _, dep := range r.Graph.Depends[i] {
			selected[dep] = true
		}
	}
	out := []int{}
	for i, ok := range selected {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// triggers reports whether some linearization x and some update u satisfy
// x ⊑ u or u ⊑ x (x ≡ u implies both).
func triggers(xs, us []*pattern.Pattern) bool {
	for _, x := range xs {
		for _, u := range us {
			if x.Contains(u) || u.Contains(x) {
				return true
			}
		}
	}
	return false
}

// RuleNames maps triggered indices to rule names for reporting.
func (r *Reannotator) RuleNames(triggered []int) []string {
	out := make([]string, len(triggered))
	for k, i := range triggered {
		name := r.Policy.Rules[i].Name
		if name == "" {
			name = fmt.Sprintf("#%d", i)
		}
		out[k] = name
	}
	return out
}
