package sqldb

import (
	"fmt"
	"io"
	"time"
)

// Prepared IN-list statements. The store layer issues batched id writes
// and deletes — "UPDATE t SET s = '+' WHERE id IN (…256 ids…)" — whose
// texts would be unique per batch, so a text-keyed plan cache would
// never hit and every batch would pay a full lex+parse over kilobytes of
// SQL. Instead the store prepares one template per table, ending in the
// placeholder "IN (?)", and binds each raw id batch into a shallow clone
// of the cached AST (cached statements are shared across executions and
// must never be mutated in place): no SQL text on the per-batch path.

// PreparedIn is a statement template whose trailing IN list is bound per
// execution. A PreparedIn is immutable and safe for concurrent use.
// Executions are observed like Exec's statements — the store_* and
// sqldb_* series and the slow-query log, which names the template and the
// batch size — by the attachments in force when the template was
// prepared.
type PreparedIn struct {
	db  *Database
	st  Statement
	src string
	// The observer attachments snapshotted by PrepareIn; nil when off.
	m          *dbMetrics
	slowLog    io.Writer
	slowThresh time.Duration
}

// PrepareIn parses a statement template ending in an IN-list placeholder —
// "… WHERE s = '+' AND id IN (?)" — for repeated execution with bound id
// lists. The parse goes through the plan cache, so re-preparing the same
// template text is cheap.
func (db *Database) PrepareIn(src string) (*PreparedIn, error) {
	cache, m, slowLog, slowThresh := db.execState()
	st, _, err := db.parseCached(cache, src)
	if err != nil {
		return nil, err
	}
	if _, ok := bindInParam(st, []Value{}); !ok {
		return nil, fmt.Errorf("sqldb: PrepareIn: statement does not end in a bindable IN list: %s", truncate(src, 80))
	}
	return &PreparedIn{db: db, st: st, src: src, m: m, slowLog: slowLog, slowThresh: slowThresh}, nil
}

// ExecInts executes the template with the IN list bound to ids. With an
// observer attached, the bind counts as the statement's parse phase.
func (p *PreparedIn) ExecInts(ids []int64) (*Result, error) {
	observed := p.m != nil || p.slowLog != nil
	var start time.Time
	if observed {
		start = time.Now()
	}
	vals := make([]Value, len(ids))
	for i, id := range ids {
		vals[i] = Value{Kind: KindInt, I: id}
	}
	st, ok := bindInParam(p.st, vals)
	if !ok {
		return nil, fmt.Errorf("sqldb: PrepareIn: template no longer bindable")
	}
	if !observed {
		return p.db.ExecStmt(st)
	}
	bindD := time.Since(start)
	execStart := time.Now()
	res, err := p.db.ExecStmt(st)
	p.db.observeStatement(p.m, p.slowLog, p.slowThresh, p.src, len(ids), res, bindD, time.Since(execStart), err)
	return res, err
}

// bindInParam returns a shallow clone of a cached template statement with
// the trailing IN list rebound to ids. The trailing list always belongs to
// the last WHERE predicate of the statement's rightmost SELECT block (by
// construction: the template's text ends at the list, so nothing — no
// ORDER BY, no further predicate — follows it). Shapes that violate that
// expectation return false, and PrepareIn refuses the template.
func bindInParam(st Statement, ids []Value) (Statement, bool) {
	switch s := st.(type) {
	case *Query:
		return bindQueryIn(s, ids)
	case *UpdateStmt:
		nw, ok := bindWhereIn(s.Where, ids)
		if !ok {
			return nil, false
		}
		ns := *s
		ns.Where = nw
		return &ns, true
	case *DeleteStmt:
		nw, ok := bindWhereIn(s.Where, ids)
		if !ok {
			return nil, false
		}
		ns := *s
		ns.Where = nw
		return &ns, true
	}
	return nil, false
}

func bindQueryIn(q *Query, ids []Value) (*Query, bool) {
	if len(q.OrderBy) > 0 || q.Limit >= 0 {
		// A trailing IN list cannot coexist with ORDER BY/LIMIT text.
		return nil, false
	}
	nq := *q
	if q.Simple != nil {
		nw, ok := bindWhereIn(q.Simple.Where, ids)
		if !ok {
			return nil, false
		}
		ns := *q.Simple
		ns.Where = nw
		nq.Simple = &ns
		return &nq, true
	}
	nr, ok := bindQueryIn(q.Right, ids)
	if !ok {
		return nil, false
	}
	nq.Right = nr
	return &nq, true
}

func bindWhereIn(where []Predicate, ids []Value) ([]Predicate, bool) {
	if len(where) == 0 || where[len(where)-1].In == nil {
		return nil, false
	}
	nw := make([]Predicate, len(where))
	copy(nw, where)
	nw[len(nw)-1].In = ids
	return nw, true
}
