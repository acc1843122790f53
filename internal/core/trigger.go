package core

import (
	"fmt"
	"sort"

	"xmlac/internal/dtd"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// Reannotator holds the precomputed machinery of Section 5.3: the
// dependency graph of the policy and the schema-driven expansion of every
// rule, ready for the Trigger algorithm to name the rules an update may
// affect — for the update report and the audit trail only, as the write's
// region decides what is re-annotated. Building it is a one-time cost per
// (policy, schema); Trigger itself runs in O(n·h) containment tests, n the
// number of rules and h the schema height, as the paper reports.
type Reannotator struct {
	Policy *policy.Policy
	Graph  *DependencyGraph
	// Expansions[i] are the linearizations of rule i's resource.
	Expansions [][]*xpath.Path
}

// NewReannotator precomputes the dependency graph and the rule expansions.
func NewReannotator(p *policy.Policy, schema *dtd.Schema) (*Reannotator, error) {
	r := &Reannotator{
		Policy:     p,
		Graph:      BuildDependencyGraph(p),
		Expansions: make([][]*xpath.Path, len(p.Rules)),
	}
	for i, rule := range p.Rules {
		x, err := pattern.Expand(rule.Resource, schema)
		if err != nil {
			return nil, fmt.Errorf("core: expanding rule %s: %w", rule.Name, err)
		}
		r.Expansions[i] = x
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
	triggered := map[int]bool{}
	for i := range r.Policy.Rules {
		for _, x := range r.Expansions[i] {
			if pattern.Contains(x, u) || pattern.Contains(u, x) {
				triggered[i] = true
				break
			}
		}
	}
	for i := range r.Policy.Rules {
		if triggered[i] {
			for _, dep := range r.Graph.Depends[i] {
				triggered[dep] = true
			}
		}
	}
	out := make([]int, 0, len(triggered))
	for i := range triggered {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TriggerAll unions Trigger over several update expressions. Insert updates
// use it with one locator per node of the inserted subtree: unlike a
// delete, where removed descendants need no annotation, inserted
// descendants must be annotated, so every inserted label participates in
// triggering.
func (r *Reannotator) TriggerAll(us []*xpath.Path) []int {
	set := map[int]bool{}
	for _, u := range us {
		for _, i := range r.Trigger(u) {
			set[i] = true
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
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
