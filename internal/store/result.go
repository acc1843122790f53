package store

import (
	"errors"
	"fmt"

	"xmlac/internal/obs"
	"xmlac/internal/xmltree"
)

// ErrAccessDenied is returned when a request touches an inaccessible
// node. The error text is frozen API: it predates the store seam (the
// requester lived in package core) and the golden reference-equivalence
// tests compare denial messages verbatim.
var ErrAccessDenied = errors.New("core: access denied")

// DeniedError is the concrete denial returned by the request paths: it
// wraps ErrAccessDenied (errors.Is keeps working) and carries the first
// inaccessible node, so the audit trail can attribute the denial to the
// deciding rule without parsing error text.
type DeniedError struct {
	// ID is the universal id of the inaccessible node.
	ID int64
	// Label is the node's element label; empty on relational denials,
	// where the store only knows the id (matching the paper's
	// universal-identifier iteration).
	Label string
	// Query is set instead of ID/Label when the denial was decided
	// statically — the enforceability checker refused the query from its
	// shape alone, so no concrete node was ever identified (and no store
	// was touched).
	Query string
}

// Error reproduces the exact denial texts the request paths have always
// emitted — the golden reference-equivalence tests compare them verbatim.
// Static denials carry the refused query instead of a node.
func (e *DeniedError) Error() string {
	if e.Query != "" {
		return fmt.Sprintf("%v: query %s is statically denied by the policy", ErrAccessDenied, e.Query)
	}
	if e.Label != "" {
		return fmt.Sprintf("%v: node %d (%s) is not accessible", ErrAccessDenied, e.ID, e.Label)
	}
	return fmt.Sprintf("%v: node %d is not accessible", ErrAccessDenied, e.ID)
}

// Unwrap makes errors.Is(err, ErrAccessDenied) hold.
func (e *DeniedError) Unwrap() error { return ErrAccessDenied }

// RequestResult is a granted request's answer.
type RequestResult struct {
	// Nodes are the matched nodes (native store requests).
	Nodes []*xmltree.Node
	// IDs are the matched universal identifiers, ascending (relational
	// requests).
	IDs []int64
	// Checked is how many distinct nodes were access-checked. A
	// translated query may return the same universal id once per
	// qualifier witness; matches are deduplicated before checking on
	// every backend, so Checked always counts distinct matched nodes.
	Checked int
}

// CheckMatches decides the matches of res all-or-nothing, in their
// order, recording the outcome on sp, the request's check-access span:
// res is granted when accessible holds for every match, and the first
// match it rejects is denied — with its label when res holds tree nodes,
// by id alone when it holds relational ids.
func CheckMatches(sp *obs.Span, res *RequestResult, accessible func(id int64, n *xmltree.Node) bool) (*RequestResult, error) {
	for _, n := range res.Nodes {
		if !accessible(n.ID, n) {
			sp.SetAttr("outcome", "denied")
			return nil, &DeniedError{ID: n.ID, Label: n.Label}
		}
	}
	for _, id := range res.IDs {
		if !accessible(id, nil) {
			sp.SetAttr("outcome", "denied")
			return nil, &DeniedError{ID: id}
		}
	}
	sp.SetAttr("outcome", "granted")
	return res, nil
}
