package core

import (
	"sort"

	"xmlac/internal/pattern"
	"xmlac/internal/policy"
)

// DependencyGraph captures the interdependencies between access-control
// rules (Section 5.3, Figure 7): two rules are neighbors when they have
// *opposite* effects and a containment relation between their resources
// (r ⊑ n, n ⊑ r, or r ≡ n) — the practical witness that they can share
// scope nodes, so re-annotating one requires considering the other. Each
// rule's Depends set is the transitive closure over neighbor edges, as
// computed by the DFS of algorithm Depend-Resolve, giving constant-time
// access to all rules that should be considered when a rule is triggered.
type DependencyGraph struct {
	// Rules are the policy rules in order; indices below refer into it.
	Rules []policy.Rule
	// Neighbors[i] lists the direct neighbors of rule i.
	Neighbors [][]int
	// Depends[i] is the transitive closure of Neighbors from rule i
	// (excluding i itself unless reachable through a cycle of edges).
	Depends [][]int
}

// BuildDependencyGraph implements algorithms Depend and Depend-Resolve
// with the plain homomorphism containment test.
func BuildDependencyGraph(p *policy.Policy) *DependencyGraph {
	return BuildDependencyGraphWith(p, pattern.Contains)
}

// BuildDependencyGraphWith builds the dependency graph under a custom
// containment test. The schema-aware test discovers edges the plain test
// cannot (e.g. deny //treatment[experimental] vs allow //patient/treatment
// under the hospital DTD); the ablation experiment counts them.
func BuildDependencyGraphWith(p *policy.Policy, contains ContainFunc) *DependencyGraph {
	n := len(p.Rules)
	g := &DependencyGraph{
		Rules:     append([]policy.Rule(nil), p.Rules...),
		Neighbors: make([][]int, n),
		Depends:   make([][]int, n),
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ri, rj := p.Rules[i], p.Rules[j]
			if ri.Effect == rj.Effect {
				continue // only opposite-effect rules interact
			}
			if contains(ri.Resource, rj.Resource) || contains(rj.Resource, ri.Resource) {
				g.Neighbors[i] = append(g.Neighbors[i], j)
				g.Neighbors[j] = append(g.Neighbors[j], i)
			}
		}
	}
	// Depend-Resolve: DFS from each rule collecting every reachable rule.
	for i := 0; i < n; i++ {
		visited := make([]bool, n)
		visited[i] = true
		var dlist []int
		var resolve func(r int)
		resolve = func(r int) {
			for _, nb := range g.Neighbors[r] {
				if !visited[nb] {
					visited[nb] = true
					dlist = append(dlist, nb)
					resolve(nb)
				}
			}
		}
		resolve(i)
		sort.Ints(dlist)
		g.Depends[i] = dlist
	}
	return g
}
