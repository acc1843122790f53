package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/xpath"
)

// The enforcer seam splits "what may the user see" (the Table 2 policy
// semantics) from "how is that decided at request time". The paper's
// system materializes the decision as '+'/'−' signs and checks requests
// against them; the query-rewriting literature (Fan et al.'s security
// views, Mahfoud–Imine's rewriting over recursive views) instead
// composes the policy into the query and evaluates it over the
// unannotated store. Both are strategies behind one interface, and each
// System is built with exactly one of them: the System owns locking,
// spans, metrics and auditing, and its Enforcer owns how the decisions
// are kept — read checks, the accessible set, the full build and the
// per-write maintenance.

// EnforceMode selects the enforcement strategy of a System.
type EnforceMode uint8

const (
	// EnforceAuto lets the planner decide per (policy, schema):
	// signs where the materialized pipeline applies, rewriting where it
	// cannot (recursive schemas).
	EnforceAuto EnforceMode = iota
	// EnforceSigns is the paper's materialized pipeline: annotation
	// queries write signs, requests check them, writes re-annotate.
	EnforceSigns
	// EnforceRewrite composes the policy into the request and evaluates
	// over the unannotated store: reads never need annotation and writes
	// never re-annotate.
	EnforceRewrite
)

// String names the mode as the -enforce flag and the audit trail spell
// it.
func (m EnforceMode) String() string {
	switch m {
	case EnforceSigns:
		return "signs"
	case EnforceRewrite:
		return "rewrite"
	default:
		return "auto"
	}
}

// MarshalJSON renders the mode name, keeping /plan output readable.
func (m EnforceMode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON accepts the mode name, so stats blocks round-trip.
func (m *EnforceMode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseEnforceMode(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ParseEnforceMode parses "auto", "signs" or "rewrite".
func ParseEnforceMode(s string) (EnforceMode, error) {
	switch s {
	case "", "auto":
		return EnforceAuto, nil
	case "signs":
		return EnforceSigns, nil
	case "rewrite":
		return EnforceRewrite, nil
	}
	return EnforceAuto, fmt.Errorf("core: unknown enforcement mode %q (want auto, signs or rewrite)", s)
}

// Enforcer is one enforcement strategy. NewSystem builds exactly one,
// chosen by the plan, and it owns every job that depends on how the
// decisions are kept: answering requests, listing the accessible set,
// building its state over the whole document, and keeping that state
// current across writes. The System holds its lock around every call —
// at least the read lock for Request and AccessibleIDs, the exclusive
// lock for Annotate and Maintain — and owns spans, metrics and auditing.
type Enforcer interface {
	// Mode identifies the strategy (EnforceSigns or EnforceRewrite).
	Mode() EnforceMode
	// Request decides one query all-or-nothing: the granted result, or a
	// DeniedError naming the first inaccessible node. cacheHit reports
	// whether the decision was served from a cached accessibility
	// artifact (the CAM query cache, or the rewriter's scope sets).
	Request(ctx context.Context, q *xpath.Path, sp *obs.Span) (res *RequestResult, cacheHit bool, err error)
	// AccessibleIDs lists the accessible element ids.
	AccessibleIDs() (map[int64]bool, error)
	// Annotate builds the strategy's state over the whole document at the
	// current version. A span in ctx parents its stages.
	Annotate(ctx context.Context) (AnnotateStats, error)
	// Maintain brings the state up to date after the write d, which the
	// tree and the engine already hold and whose version bump has just
	// happened. locators yields the write's update expressions, for the
	// rules the report names; root parents the stages, and rep receives
	// their statistics.
	Maintain(root *obs.Span, rep *UpdateReport, d writeDelta, locators func() []*xpath.Path) error
}

// newEnforcer builds the strategy of the given (resolved) mode. Only the
// materialized pipeline needs the reannotator, whose schema-aware
// expansion rejects recursive DTDs, so only it builds one, as s.reann.
func newEnforcer(s *System, mode EnforceMode, contains ContainFunc) (Enforcer, error) {
	if mode == EnforceRewrite {
		return newRewriteEnforcer(s), nil
	}
	reann, err := NewReannotatorWith(s.policy, s.cfg.Schema, contains)
	if err != nil {
		return nil, err
	}
	s.reann = reann
	return &materializedEnforcer{s: s}, nil
}

// materializedEnforcer is the paper's pipeline behind the seam: annotation
// writes '+'/'−' signs into the engine, the engine checks each query
// against them (or, with the query cache on, against the CAM built from
// them), and each write re-decides its region and rewrites those signs.
type materializedEnforcer struct {
	s *System
}

func (m *materializedEnforcer) Mode() EnforceMode { return EnforceSigns }

func (m *materializedEnforcer) Request(ctx context.Context, q *xpath.Path, sp *obs.Span) (*RequestResult, bool, error) {
	if m.s.qc != nil {
		return m.s.requestCached(q, sp)
	}
	res, err := m.s.engine.Request(obs.ContextWithSpan(ctx, sp), q)
	return res, false, err
}

// AccessibleIDs reads the signs back. With the query cache on, expanding
// the cached compressed map reproduces the engine's accessible set
// exactly (the map was built from it), so view export, filtered requests
// and coverage all serve from memory.
func (m *materializedEnforcer) AccessibleIDs() (map[int64]bool, error) {
	if m.s.qc == nil {
		return m.s.engine.AccessibleIDs()
	}
	acc, _, err := m.s.cachedCAM()
	if err != nil {
		return nil, err
	}
	return acc.AccessibleIDs(m.s.Document()), nil
}

// Annotate runs the policy's annotation query (Figure 5) on the engine.
func (m *materializedEnforcer) Annotate(ctx context.Context) (AnnotateStats, error) {
	return m.s.engine.Annotate(ctx, BuildAnnotationQuery(m.s.policy))
}

// Maintain names the rules the Trigger algorithm selects (the report's
// prepare time) and rewrites the signs of the write's region (its
// re-annotation time).
func (m *materializedEnforcer) Maintain(root *obs.Span, rep *UpdateReport, d writeDelta, locators func() []*xpath.Path) error {
	start := time.Now()
	m.s.trigger(root, rep, locators()...)
	rep.PrepareTime = time.Since(start)
	start = time.Now()
	err := m.s.reannotateRegion(root, d, &rep.Stats)
	rep.ReannotateTime = time.Since(start)
	return err
}
