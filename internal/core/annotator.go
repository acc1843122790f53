package core

import (
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
)

// The annotator compiles the policy into an annotation query (Figure 5)
// and hands it to the configured store engine. Which nodes flip away from
// the default is decided here, identically for every backend; every
// engine evaluates the query with the store's one node-set evaluator, and
// how the signs are written is the engine's business.

// AnnotationQuery is the output of algorithm Annotation-Queries
// (Figure 5); see store.AnnotationQuery.
type AnnotationQuery = store.AnnotationQuery

// AnnotateStats reports what an annotation run did; see
// store.AnnotateStats.
type AnnotateStats = store.AnnotateStats

// BuildAnnotationQuery implements Annotation-Queries for a policy (or for a
// sub-policy of triggered rules during re-annotation), per the Table 2
// semantics:
//
//	ds=− cr=− : update (grants EXCEPT denys) to '+'
//	ds=− cr=+ : update grants to '+'
//	ds=+ cr=− : update denys to '−'
//	ds=+ cr=+ : update (denys EXCEPT grants) to '−'
//
// Everything outside the update set keeps the default sign, which the paper
// materializes at load time ("initialized to the default semantics of the
// policy") and the native store leaves unannotated.
func BuildAnnotationQuery(p *policy.Policy) AnnotationQuery {
	var grantPaths, denyPaths []*store.SetExpr
	for _, r := range p.Rules {
		leaf := store.PathLeaf(r.Resource)
		if r.Effect == policy.Allow {
			grantPaths = append(grantPaths, leaf)
		} else {
			denyPaths = append(denyPaths, leaf)
		}
	}
	grants := store.Combine(store.OpUnion, grantPaths...)
	denys := store.Combine(store.OpUnion, denyPaths...)
	q := AnnotationQuery{}
	if p.Default == policy.Deny {
		q.Sign, q.Default = xmltree.SignPlus, xmltree.SignMinus
		if p.Conflict == policy.Deny {
			q.Expr = exceptOf(grants, denys)
		} else {
			q.Expr = grants
		}
	} else {
		q.Sign, q.Default = xmltree.SignMinus, xmltree.SignPlus
		if p.Conflict == policy.Deny {
			q.Expr = denys
		} else {
			q.Expr = exceptOf(denys, grants)
		}
	}
	return q
}

func exceptOf(a, b *store.SetExpr) *store.SetExpr {
	if a == nil {
		return nil
	}
	if b == nil {
		return a
	}
	return &store.SetExpr{Op: store.OpExcept, Left: a, Right: b}
}

// stage runs one named pipeline stage: a span under parent when tracing,
// and a Phases entry on the stats either way.
func stage(parent *obs.Span, phases *obs.Phases, name string, f func() error) error {
	start := time.Now()
	sp := obs.Start(parent, name)
	err := f()
	sp.Finish()
	phases.Add(name, time.Since(start))
	return err
}
