package core

import (
	"errors"
	"time"

	"xmlac/internal/audit"
	"xmlac/internal/obs"
	"xmlac/internal/store"
)

// The requester module is the system's front end (Section 4): it evaluates
// a user's read-only XPath query against an annotated store and applies the
// paper's all-or-nothing semantics — "if all the nodes requested by the
// XPath expression are accessible ... we return the requested nodes.
// Otherwise, we deny access to the user request." The access check itself
// runs inside the store engine; this file carries the shared result and
// error types (aliases of the store seam's) and the audit wrapper.

// ErrAccessDenied is returned when a request touches an inaccessible node.
var ErrAccessDenied = store.ErrAccessDenied

// DeniedError is the concrete denial returned by the request paths; see
// store.DeniedError.
type DeniedError = store.DeniedError

// RequestResult is a granted request's answer; see store.RequestResult.
type RequestResult = store.RequestResult

// auditRequest records one request decision. Denials are attributed: the
// denied node is decided on the fly against the read rules, and the
// deciding plus overridden rule ids land on the event. The request span's
// trace id is stamped on the event so /audit entries join /traces output.
// Callers hold at least s.mu.RLock.
func (s *System) auditRequest(query string, res *RequestResult, cacheHit bool, d time.Duration, sp *obs.Span, mode string, err error) {
	if s.aud == nil {
		return
	}
	e := audit.Event{Kind: "request", Query: query, CacheHit: cacheHit,
		Mode: mode, Duration: d, Trace: sp.TraceID().String()}
	var denied *DeniedError
	switch {
	case err == nil:
		e.Outcome = audit.OutcomeGrant
		e.Matched, e.Checked = res.Checked, res.Checked
	case errors.As(err, &denied):
		e.Outcome = audit.OutcomeDeny
		e.Err = err.Error()
		if n := s.doc.NodeByID(denied.ID); n != nil {
			e.Rules = decideOnFly(s.policy, n).AttributingRules()
		}
	default:
		e.Outcome = audit.OutcomeError
		e.Err = err.Error()
	}
	s.auditRecord(e)
}
