// Package audit is the decision-level audit trail of the access-control
// system: a zero-dependency, concurrency-safe log of every request,
// write-access check and (re-)annotation run, recorded as structured
// events. The paper's system decides which nodes a user may see; this
// package records who asked for what, which outcome the decision had, and
// which rules produced it — the per-decision provenance an operator needs
// once the system serves real traffic.
//
// Events land in a bounded ring buffer (the newest DefaultCap events are
// always retrievable with Recent) and, optionally, stream to a JSONL
// writer through an asynchronous queue. The hot path never blocks: a full
// ring evicts its oldest event (counted by Evicted), and a saturated JSONL
// queue drops the event for the writer only (counted by Dropped) while the
// ring still keeps it.
package audit

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a decision or run ended.
type Outcome string

const (
	// OutcomeGrant is a request or write check that passed.
	OutcomeGrant Outcome = "grant"
	// OutcomeDeny is a request or write check rejected by the policy.
	OutcomeDeny Outcome = "deny"
	// OutcomeError is a run that failed for a non-policy reason.
	OutcomeError Outcome = "error"
	// OutcomeOK is a successful annotation or re-annotation run.
	OutcomeOK Outcome = "ok"
)

// Event is one audited decision or run.
type Event struct {
	// Seq is the log-assigned sequence number, 1-based and gapless per
	// log; together with Evicted it accounts for every recorded event.
	Seq uint64 `json:"seq"`
	// Time is when the event was recorded (stamped by Record when zero).
	Time time.Time `json:"time"`
	// Kind names the audited operation: "request", "write-check",
	// "annotate" or "reannotate".
	Kind string `json:"kind"`
	// User is the requesting subject, stamped by the multi-user layer
	// (empty on single-subject systems, where the paper fixes the
	// requester).
	User string `json:"user,omitempty"`
	// Backend is the store that served the decision (xquery, monetsql,
	// postgres).
	Backend string `json:"backend,omitempty"`
	// Doc names the document the decision concerned — the catalog merges
	// per-document audit streams into one log, and Doc tells them apart.
	Doc string `json:"doc,omitempty"`
	// Semantics is the active (default, conflict-resolution) pair of
	// Table 2, e.g. "ds=-,cr=-".
	Semantics string `json:"semantics,omitempty"`
	// Query is the user query or update expression.
	Query string `json:"query,omitempty"`
	// Outcome is the decision: grant, deny, ok or error.
	Outcome Outcome `json:"outcome"`
	// Matched counts the nodes the query matched; Checked the distinct
	// nodes access-checked.
	Matched int `json:"matched,omitempty"`
	Checked int `json:"checked,omitempty"`
	// Updated and Reset carry annotation-run statistics.
	Updated int `json:"updated,omitempty"`
	Reset   int `json:"reset,omitempty"`
	// CacheHit reports whether the decision was served from a current
	// decision set (rewriting enforcement) rather than rebuilding it.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Mode names the enforcement strategy that produced a request
	// decision: "signs" (materialized annotations), "rewrite" (policy
	// composed into the query over the unannotated store) or
	// "static-deny" (refused from query shape alone, no store touched).
	// Empty on non-request events and on logs predating the enforcer seam.
	Mode string `json:"mode,omitempty"`
	// Duration is the operation's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
	// Rules are the attributing rule ids: the deciding rule of a denial,
	// or the triggered rules of a re-annotation.
	Rules []string `json:"rules,omitempty"`
	// Trace is the trace id of the span tree that produced the decision
	// (16 hex digits; empty without a tracer). Looking the id up on the
	// /traces endpoint yields the decision's latency breakdown.
	Trace string `json:"trace,omitempty"`
	// Err is the error text of an OutcomeError event.
	Err string `json:"error,omitempty"`
}

// DefaultCap is the ring capacity of a Log built with NewLog(0).
const DefaultCap = 1024

// DefaultQueue is the JSONL writer queue depth of AttachJSONL(w, 0).
const DefaultQueue = 256

// Log is the bounded audit log. The zero value is not usable; build one
// with NewLog. All methods are safe for concurrent use, and a nil *Log
// no-ops on Record, so instrumented code needs no enabled-checks.
type Log struct {
	mu     sync.Mutex
	buf    []Event // ring storage, len(buf) <= cap
	next   int     // overwrite position once the ring is full
	capN   int
	seq    uint64 // events ever recorded; also the last assigned Seq
	sinkCh chan Event
	done   chan struct{}

	evicted atomic.Uint64 // ring overwrites
	dropped atomic.Uint64 // JSONL queue overflows

	listeners []func(Event)
}

// NewLog returns an audit log retaining the newest capacity events
// (DefaultCap when capacity <= 0).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Log{capN: capacity}
}

// AttachJSONL streams every subsequently recorded event to w as one JSON
// object per line, through an asynchronous queue of the given depth
// (DefaultQueue when <= 0). Events arriving while the queue is full are
// dropped from the stream — never from the ring — and counted by Dropped.
// Call Close to flush and detach the writer.
func (l *Log) AttachJSONL(w io.Writer, queue int) {
	if queue <= 0 {
		queue = DefaultQueue
	}
	ch := make(chan Event, queue)
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := json.NewEncoder(w)
		for e := range ch {
			_ = enc.Encode(e)
		}
	}()
	l.mu.Lock()
	l.sinkCh, l.done = ch, done
	l.mu.Unlock()
}

// Close detaches the JSONL writer, if any, after draining its queue. The
// ring keeps serving Recent.
func (l *Log) Close() {
	l.mu.Lock()
	ch, done := l.sinkCh, l.done
	l.sinkCh, l.done = nil, nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
		<-done
	}
}

// Listen registers fn to be called synchronously with every subsequently
// recorded event, after it is stamped and stored. Listeners run on the
// recording goroutine outside the log's lock, so they may read the log
// but must be fast — a slow listener stalls the decision path it audits.
// Listeners cannot be removed; attach them for the log's lifetime.
func (l *Log) Listen(fn func(Event)) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	l.listeners = append(l.listeners, fn)
	l.mu.Unlock()
}

// Record appends an event: it is stamped with the next sequence number
// (and the current time when e.Time is zero), stored in the ring —
// evicting the oldest event when full — and offered to the JSONL queue
// without blocking. No-op on a nil log.
func (l *Log) Record(e Event) {
	if l == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if len(l.buf) < l.capN {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % l.capN
		l.evicted.Add(1)
	}
	ch := l.sinkCh
	if ch != nil {
		select {
		case ch <- e:
		default:
			l.dropped.Add(1)
		}
	}
	fns := l.listeners
	l.mu.Unlock()
	// Concurrent Records may deliver to listeners out of Seq order; the
	// observatory consumers aggregate and do not rely on ordering.
	for _, fn := range fns {
		fn(e)
	}
}

// Recent returns up to n of the newest events in chronological order
// (all retained events when n <= 0).
func (l *Log) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	if len(l.buf) < l.capN {
		out = append(out, l.buf...)
	} else {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Filter returns the events of fn(e) == true among the newest n
// (all retained events when n <= 0).
func (l *Log) Filter(n int, fn func(Event) bool) []Event {
	events := l.Recent(0)
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if fn(e) {
			out = append(out, e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Cap returns the ring capacity.
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	return l.capN
}

// Total returns how many events were ever recorded. Total == Len +
// Evicted always holds.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Evicted returns how many events the full ring overwrote.
func (l *Log) Evicted() uint64 {
	if l == nil {
		return 0
	}
	return l.evicted.Load()
}

// Dropped returns how many events the saturated JSONL queue never wrote.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}
