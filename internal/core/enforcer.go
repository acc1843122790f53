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
// spans, metrics, auditing and the in-memory decision set (decisions.go),
// and its Enforcer owns how requests are checked and how the store's own
// decisions, if any, are kept — the signs' full build and per-write
// maintenance.

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
// chosen by the plan, and it owns every job that depends on where the
// decisions are read from: answering requests, listing the accessible
// set, building its state over the whole document, and keeping that
// state current across writes. The System holds its lock around every
// call — at least the read lock for Request and AccessibleIDs, the
// exclusive lock for Annotate and Maintain — and owns spans, metrics,
// auditing and the decision set.
type Enforcer interface {
	// Mode identifies the strategy (EnforceSigns or EnforceRewrite).
	Mode() EnforceMode
	// Request decides one query all-or-nothing: the granted result, or a
	// DeniedError naming the first inaccessible node. cacheHit reports
	// whether the decision was served from a current decision set.
	Request(ctx context.Context, q *xpath.Path, sp *obs.Span) (res *RequestResult, cacheHit bool, err error)
	// AccessibleIDs lists the accessible element ids.
	AccessibleIDs() (map[int64]bool, error)
	// Annotate builds the strategy's state over the whole document at the
	// current version. A span in ctx parents its stages.
	Annotate(ctx context.Context) (AnnotateStats, error)
	// Maintain brings the strategy's state up to date after a write that
	// the tree and the engine already hold and whose version bump has
	// just happened. region is the write's region as the System
	// re-decided it; whole is set instead when the region is the whole
	// document (region is then nil). locators yields the write's update
	// expressions, for the rules the report names; root parents the
	// stages, and rep receives their statistics.
	Maintain(root *obs.Span, rep *UpdateReport, region []decided, whole bool, locators func() []*xpath.Path) error
}

// newEnforcer builds the strategy of the given (resolved) mode. Only the
// materialized pipeline needs the reannotator, whose schema-aware
// expansion rejects recursive DTDs, so only it builds one, as s.reann.
func newEnforcer(s *System, mode EnforceMode) (Enforcer, error) {
	if mode == EnforceRewrite {
		return &rewriteEnforcer{s: s}, nil
	}
	reann, err := NewReannotator(s.policy, s.cfg.Schema)
	if err != nil {
		return nil, err
	}
	s.reann = reann
	return &materializedEnforcer{s: s}, nil
}

// materializedEnforcer is the paper's pipeline behind the seam: annotation
// writes '+'/'−' signs into the engine, the engine checks each query
// against them (or, with the query cache on, the System decides it
// against its decision set), and each write rewrites the signs of its
// re-decided region.
type materializedEnforcer struct {
	s *System
}

func (m *materializedEnforcer) Mode() EnforceMode { return EnforceSigns }

// Request checks q against the signs in the engine or, with the query
// cache on, evaluates it on the tree and checks every match against the
// decision set — no store probe at all.
func (m *materializedEnforcer) Request(ctx context.Context, q *xpath.Path, sp *obs.Span) (*RequestResult, bool, error) {
	if !m.s.cfg.QueryCache {
		res, err := m.s.engine.Request(obs.ContextWithSpan(ctx, sp), q)
		return res, false, err
	}
	return m.s.requestDecided(sp, "qcache", func() (*RequestResult, error) { return m.s.treeQuery(q, sp) })
}

// AccessibleIDs reads the signs back or, with the query cache on, derives
// the set from the decision set, which the signs agree with.
func (m *materializedEnforcer) AccessibleIDs() (map[int64]bool, error) {
	if m.s.cfg.QueryCache {
		return m.s.decidedAccessibleIDs()
	}
	return m.s.engine.AccessibleIDs()
}

// Annotate runs the policy's annotation query (Figure 5) on the engine.
func (m *materializedEnforcer) Annotate(ctx context.Context) (AnnotateStats, error) {
	return m.s.engine.Annotate(ctx, BuildAnnotationQuery(m.s.policy))
}

// Maintain names the rules the Trigger algorithm selects (the report's
// prepare time) and rewrites the signs of the write's region (part of
// its re-annotation time).
func (m *materializedEnforcer) Maintain(root *obs.Span, rep *UpdateReport, region []decided, whole bool, locators func() []*xpath.Path) error {
	start := time.Now()
	m.s.trigger(root, rep, locators()...)
	rep.PrepareTime = time.Since(start)
	start = time.Now()
	err := m.s.writeRegionSigns(root, region, whole, &rep.Stats)
	rep.ReannotateTime += time.Since(start)
	return err
}
