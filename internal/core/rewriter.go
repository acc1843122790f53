package core

import (
	"context"

	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/xpath"
)

// rewriteEnforcer enforces by query rewriting: the user query is
// evaluated raw (the engine's RawQuery — no sign consultation) and each
// match is decided against the System's decision set by the Table 2
// membership algebra over the policy's allow and deny scope unions. Signs
// are never written and writes never re-annotate: the System keeps the
// decision set current itself.
type rewriteEnforcer struct {
	s *System
}

// NewRewriter compiles a read policy for rewriting enforcement.
func NewRewriter(p *policy.Policy) *xpath.Rewriter {
	rw := &xpath.Rewriter{
		DefaultAllow:  p.Default == policy.Allow,
		ConflictAllow: p.Conflict == policy.Allow,
	}
	for _, r := range p.Allows() {
		rw.Allow = append(rw.Allow, r.Resource)
	}
	for _, r := range p.Denies() {
		rw.Deny = append(rw.Deny, r.Resource)
	}
	return rw
}

func (e *rewriteEnforcer) Mode() EnforceMode { return EnforceRewrite }

// Annotate has nothing to write; the System builds the decision set.
func (e *rewriteEnforcer) Annotate(context.Context) (AnnotateStats, error) {
	return AnnotateStats{}, nil
}

// Maintain has nothing to keep; the System patches the decision set.
func (e *rewriteEnforcer) Maintain(*obs.Span, *UpdateReport, []decided, bool, func() []*xpath.Path) error {
	return nil
}

// Request evaluates q raw on the engine and checks every match against
// the decision set.
func (e *rewriteEnforcer) Request(ctx context.Context, q *xpath.Path, parent *obs.Span) (*RequestResult, bool, error) {
	return e.s.requestDecided(parent, "rewrite", func() (*RequestResult, error) {
		return e.s.engine.RawQuery(obs.ContextWithSpan(ctx, parent), q)
	})
}

// AccessibleIDs derives the accessible element set from the decision
// set — the rewriting counterpart of reading materialized signs back.
func (e *rewriteEnforcer) AccessibleIDs() (map[int64]bool, error) {
	return e.s.decidedAccessibleIDs()
}
