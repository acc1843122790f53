// The live ops endpoint behind `xmlac -serve`: a long-lived HTTP server
// over one annotated system — or, with -docs, over a sharded catalog of
// documents — exposing the observability surface: decision audit trail,
// rule attribution, metrics, trace spans and the runtime profiler, so an
// operator can watch and interrogate a running deployment.
//
// Routes:
//
//	GET /healthz        liveness + document/annotation state (JSON)
//	GET /metrics        metrics registry (Prometheus text; JSON via Accept
//	                    or ?format=json)
//	GET /dashboard      the HTML ops dashboard: latency quantiles, shard
//	                    heat, top rules, slow traces, recent denials
//	GET /audit          recent decisions, newest last (JSON);
//	                    ?outcome= filters by outcome, ?since= (RFC3339)
//	                    by time, ?limit= (alias ?n=) bounds the count
//	GET /traces         recent root span trees, newest last (text);
//	                    ?limit= and ?since= (RFC3339) filter
//	GET /coverage       policy coverage analytics: per-rule fire counts,
//	                    dead and always-losing rules, allow/deny mix —
//	                    per cohort with a per-semantics rollup in -users
//	                    mode, per document in catalog mode (JSON)
//	GET /forensics      denial forensics: tumbling 1m/5m/1h windows of
//	                    denials by subject/doc/rule/backend/shard with
//	                    top-K and rate-of-change (JSON)
//	GET /alerts         SLO burn-rate state: objectives, fast/slow burn,
//	                    firing state and recent transitions (JSON)
//	GET /stream         live decision stream (SSE): every audit event
//	                    and alert transition as it happens
//	GET /plan           the enforcement plan: planner verdict, active
//	                    mode and planner-decision counters; ?q= adds the
//	                    query's static verdict and its rewritten (safe)
//	                    form (JSON; single-document mode only)
//	GET /catalog        shard placement and per-document state (JSON;
//	                    catalog mode only)
//	GET /multiuser      policy-cohort statistics: users, cohorts, dedup
//	                    ratio and the per-cohort breakdown (JSON; -users
//	                    mode only)
//	GET /request?q=     run an all-or-nothing request under the system's
//	                    enforcement mode (&doc= selects the document in
//	                    catalog mode; without doc the query broadcasts to
//	                    every document as one trace; &user= requests as a
//	                    -users subject)
//	GET /why?q=         per-node rule attribution for the matched nodes
//	                    (&doc= in catalog mode)
//	GET /debug/pprof/   the Go runtime profiler
//
// Every route feeds a per-route http_request_seconds{route=...} histogram
// in the registry, so the endpoint observes itself. A q parameter longer
// than maxQueryBytes is refused with 400 before it is parsed.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"xmlac"
)

// teeSink fans finished root spans out to several sinks (stderr rendering
// and the /traces ring can both be active).
type teeSink []xmlac.TraceSink

// Emit implements xmlac.TraceSink.
func (t teeSink) Emit(root *xmlac.Span) {
	for _, s := range t {
		s.Emit(root)
	}
}

// maxQueryBytes bounds the q parameter of /request, /why and /plan. The
// longest of the 55 benchmark queries is 38 bytes, while a long nested
// query costs parse time before any access decision is made.
const maxQueryBytes = 4 << 10

// readHeaderTimeout bounds how long a client may take to send its request
// line and headers.
const readHeaderTimeout = 10 * time.Second

// listen serves h on addr until the listener fails.
func listen(addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	return srv.ListenAndServe()
}

// serve blocks on the ops endpoint over one system; it only returns on
// listener failure. mu is the optional -users multi-user layer sharing the
// same document.
func serve(addr string, sys *xmlac.System, mu *xmlac.MultiUser, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) error {
	extra := ""
	if mu != nil {
		extra = " /multiuser"
	}
	fmt.Printf("serving on %s (/healthz /metrics /dashboard /audit /traces /coverage /forensics /alerts /stream /plan%s /request /why /debug/pprof/)\n", addr, extra)
	return listen(addr, newServeMux(sys, mu, obsy, reg, aud, col))
}

// serveCatalog blocks on the ops endpoint over a sharded catalog.
func serveCatalog(addr string, cat *xmlac.Catalog, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) error {
	fmt.Printf("serving on %s (/healthz /metrics /dashboard /audit /traces /coverage /forensics /alerts /stream /catalog /request /why /debug/pprof/)\n", addr)
	return listen(addr, newCatalogMux(cat, obsy, reg, aud, col))
}

func newServeMux(sys *xmlac.System, mu *xmlac.MultiUser, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) *http.ServeMux {
	return newOpsMux(sys, nil, mu, obsy, reg, aud, col)
}

func newCatalogMux(cat *xmlac.Catalog, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) *http.ServeMux {
	return newOpsMux(nil, cat, nil, obsy, reg, aud, col)
}

// newOpsMux builds the endpoint routes. Exactly one of sys and cat is
// non-nil: single-document mode serves sys directly; catalog mode routes
// /request and /why by the doc parameter and adds /catalog. mu, when
// non-nil, adds the /multiuser cohort view; obsy feeds the /coverage,
// /forensics, /alerts and /stream observatory routes.
func newOpsMux(sys *xmlac.System, cat *xmlac.Catalog, mu *xmlac.MultiUser, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) *http.ServeMux {
	// target resolves the system a request addresses, writing the HTTP
	// error itself on failure.
	target := func(w http.ResponseWriter, r *http.Request) (*xmlac.System, bool) {
		if cat == nil {
			return sys, true
		}
		doc := r.URL.Query().Get("doc")
		if doc == "" {
			http.Error(w, "missing doc parameter (catalog mode)", http.StatusBadRequest)
			return nil, false
		}
		s, err := cat.System(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return nil, false
		}
		return s, true
	}
	mux := http.NewServeMux()
	// route wraps a handler with the per-route latency histogram; the
	// handle is resolved once, so serving pays no registry lookups.
	route := func(name string, h http.HandlerFunc) http.HandlerFunc {
		hist := reg.Histogram(fmt.Sprintf("http_request_seconds{route=%q}", name))
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			hist.ObserveDuration(time.Since(start))
		}
	}
	mux.HandleFunc("/metrics", route("/metrics", reg.ServeHTTP))
	mux.HandleFunc("/dashboard", route("/dashboard", dashboardHandler(sys, cat, mu, obsy, reg, aud, col)))
	mux.HandleFunc("/healthz", route("/healthz", func(w http.ResponseWriter, r *http.Request) {
		health := map[string]any{
			"status":  "ok",
			"version": xmlac.Version,
		}
		if cat != nil {
			health["docs"] = cat.Docs()
			health["shards"] = cat.Shards()
			writeJSON(w, health)
			return
		}
		health["backend"] = sys.Backend().String()
		health["semantics"] = sys.SemanticsLabel()
		if mu != nil {
			health["multiuser_users"] = mu.UserCount()
			health["multiuser_cohorts"] = mu.CohortCount()
		}
		health["loaded"] = sys.Loaded()
		health["annotation_version"] = sys.Version()
		if sys.Loaded() {
			health["elements"] = sys.Document().ElementCount()
			if cov, err := sys.Coverage(); err == nil {
				health["coverage"] = cov
			}
		}
		writeJSON(w, health)
	}))
	if cat != nil {
		mux.HandleFunc("/catalog", route("/catalog", func(w http.ResponseWriter, r *http.Request) {
			docs := map[string]any{}
			for _, name := range cat.Docs() {
				d := map[string]any{"shard": cat.ShardOf(name)}
				if s, err := cat.System(name); err == nil {
					d["backend"] = s.Backend().String()
					d["annotation_version"] = s.Version()
					if cov, err := s.Coverage(); err == nil {
						d["coverage"] = cov
					}
				}
				docs[name] = d
			}
			writeJSON(w, map[string]any{
				"shards":    cat.Shards(),
				"placement": cat.Placement(),
				"docs":      docs,
			})
		}))
	}
	if mu != nil {
		mux.HandleFunc("/multiuser", route("/multiuser", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, mu.Stats())
		}))
	}
	mux.HandleFunc("/audit", route("/audit", func(w http.ResponseWriter, r *http.Request) {
		n, ok := parseLimitParam(w, r, 100)
		if !ok {
			return
		}
		since, ok := parseSinceParam(w, r)
		if !ok {
			return
		}
		outcome := r.URL.Query().Get("outcome")
		events := aud.Filter(n, func(e xmlac.AuditEvent) bool {
			if outcome != "" && e.Outcome != xmlac.AuditOutcome(outcome) {
				return false
			}
			return since.IsZero() || !e.Time.Before(since)
		})
		writeJSON(w, map[string]any{
			"events":  events,
			"total":   aud.Total(),
			"evicted": aud.Evicted(),
			"dropped": aud.Dropped(),
		})
	}))
	mux.HandleFunc("/traces", route("/traces", func(w http.ResponseWriter, r *http.Request) {
		n, ok := parseLimitParam(w, r, 0)
		if !ok {
			return
		}
		since, ok := parseSinceParam(w, r)
		if !ok {
			return
		}
		roots := col.Roots()
		if !since.IsZero() {
			kept := roots[:0]
			for _, root := range roots {
				if !root.StartTime().Before(since) {
					kept = append(kept, root)
				}
			}
			roots = kept
		}
		if n > 0 && len(roots) > n {
			roots = roots[len(roots)-n:] // newest last, like /audit
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, root := range roots {
			fmt.Fprint(w, root.Tree())
		}
	}))
	mux.HandleFunc("/coverage", route("/coverage", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{}
		if cat != nil {
			docs := map[string]any{}
			for _, name := range cat.Docs() {
				s, err := cat.System(name)
				if err != nil {
					continue
				}
				rep, err := s.PolicyCoverage()
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				docs[name] = rep
			}
			out["docs"] = docs
			writeJSON(w, out)
			return
		}
		rep, err := sys.PolicyCoverage()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out["system"] = rep
		out["enforcement"] = sys.EnforcementStats()
		if mu != nil {
			cohorts, err := mu.CoverageByCohort()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			out["cohorts"] = cohorts
			out["rollup"] = xmlac.RollupCoverage(cohorts)
		}
		writeJSON(w, out)
	}))
	mux.HandleFunc("/forensics", route("/forensics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"windows": obsy.Forensics().Report()})
	}))
	mux.HandleFunc("/alerts", route("/alerts", func(w http.ResponseWriter, r *http.Request) {
		slo := obsy.SLO()
		if slo == nil {
			writeJSON(w, map[string]any{"enabled": false})
			return
		}
		fast, slow := slo.Windows()
		writeJSON(w, map[string]any{
			"enabled":     true,
			"fast_window": fast.String(),
			"slow_window": slow.String(),
			"objectives":  slo.Objectives(),
			"alerts":      slo.Alerts(),
			"transitions": slo.Transitions(),
		})
	}))
	mux.HandleFunc("/stream", route("/stream", streamHandler(obsy)))
	if cat == nil {
		mux.HandleFunc("/plan", route("/plan", func(w http.ResponseWriter, r *http.Request) {
			out := map[string]any{
				"plan":        sys.Plan(),
				"active_mode": sys.ActiveMode(),
				"enforcement": sys.EnforcementStats(),
			}
			out["accessible_set"] = sys.Rewriter().AccessExpr()
			if s := r.URL.Query().Get("q"); s != "" {
				q, ok := parseQuery(w, s)
				if !ok {
					return
				}
				out["query"] = q.String()
				out["static_verdict"] = sys.ClassifyQuery(q).String()
				out["rewritten"] = sys.Rewriter().Rewrite(q)
			}
			writeJSON(w, out)
		}))
	}
	mux.HandleFunc("/request", route("/request", func(w http.ResponseWriter, r *http.Request) {
		q, ok := parseQueryParam(w, r)
		if !ok {
			return
		}
		// A user parameter routes the request through the multi-user layer
		// as that subject (its own audit event, stamped with the user).
		if user := r.URL.Query().Get("user"); user != "" {
			if mu == nil {
				http.Error(w, "user parameter requires -users mode", http.StatusBadRequest)
				return
			}
			res, err := mu.Request(user, q)
			out := map[string]any{"query": q.String(), "user": user}
			switch {
			case errors.Is(err, xmlac.ErrAccessDenied):
				out["outcome"] = "deny"
				out["error"] = err.Error()
			case err != nil:
				out["outcome"] = "error"
				out["error"] = err.Error()
			default:
				out["outcome"] = "grant"
				out["checked"] = res.Checked
			}
			writeJSON(w, out)
			return
		}
		// Catalog mode without a doc parameter broadcasts the query to
		// every document — one trace covering the whole fan-out.
		if cat != nil && r.URL.Query().Get("doc") == "" {
			results, errs := cat.RequestAll(q)
			granted := map[string]any{}
			for doc, res := range results {
				g := map[string]any{"checked": res.Checked}
				if len(res.IDs) > 0 {
					g["ids"] = res.IDs
				}
				granted[doc] = g
			}
			failed := map[string]string{}
			for doc, err := range errs {
				failed[doc] = err.Error()
			}
			writeJSON(w, map[string]any{
				"query":     q.String(),
				"broadcast": true,
				"granted":   granted,
				"denied":    failed,
			})
			return
		}
		s, ok := target(w, r)
		if !ok {
			return
		}
		res, err := s.Request(q)
		out := map[string]any{"query": q.String()}
		if cat != nil {
			out["doc"] = r.URL.Query().Get("doc")
		}
		switch {
		case errors.Is(err, xmlac.ErrAccessDenied):
			out["outcome"] = "deny"
			out["error"] = err.Error()
		case err != nil:
			out["outcome"] = "error"
			out["error"] = err.Error()
		default:
			out["outcome"] = "grant"
			out["checked"] = res.Checked
			if len(res.IDs) > 0 {
				out["ids"] = res.IDs
			}
		}
		writeJSON(w, out)
	}))
	mux.HandleFunc("/why", route("/why", func(w http.ResponseWriter, r *http.Request) {
		q, ok := parseQueryParam(w, r)
		if !ok {
			return
		}
		s, ok := target(w, r)
		if !ok {
			return
		}
		decisions, err := s.Why(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out := map[string]any{"query": q.String(), "decisions": decisions}
		if cat != nil {
			out["doc"] = r.URL.Query().Get("doc")
		}
		writeJSON(w, out)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// streamHandler serves the SSE live decision stream: a hello frame with
// the current alert states, then every audit event and alert transition
// as it is published, until the client disconnects. Each connection has
// a bounded queue; a slow consumer loses frames (counted, and reported
// in the periodic keepalive comment) rather than stalling the hub.
func streamHandler(obsy *xmlac.Observatory) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		sub := obsy.Stream().Subscribe()
		defer sub.Close()
		hello := map[string]any{"version": xmlac.Version}
		if slo := obsy.SLO(); slo != nil {
			hello["alerts"] = slo.Alerts()
		}
		writeSSE(w, "hello", hello)
		fl.Flush()
		keepalive := time.NewTicker(15 * time.Second)
		defer keepalive.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-keepalive.C:
				fmt.Fprintf(w, ": keepalive dropped=%d\n\n", sub.Dropped())
				fl.Flush()
			case ev := <-sub.C():
				writeSSE(w, ev.Type, ev)
				fl.Flush()
			}
		}
	}
}

func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"marshal failed"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// parseLimitParam reads the limit= (alias n=) count parameter, writing
// the HTTP error itself when malformed. def is returned when absent.
func parseLimitParam(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	s := r.URL.Query().Get("limit")
	if s == "" {
		s = r.URL.Query().Get("n")
	}
	if s == "" {
		return def, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// parseSinceParam reads the since= RFC3339 time parameter, writing the
// HTTP error itself when malformed. Zero time when absent.
func parseSinceParam(w http.ResponseWriter, r *http.Request) (time.Time, bool) {
	s := r.URL.Query().Get("since")
	if s == "" {
		return time.Time{}, true
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		http.Error(w, "since must be RFC3339, e.g. 2026-01-02T15:04:05Z", http.StatusBadRequest)
		return time.Time{}, false
	}
	return t, true
}

// parseQueryParam reads and parses the q= XPath parameter, writing the
// HTTP error itself when absent, too long or malformed.
func parseQueryParam(w http.ResponseWriter, r *http.Request) (*xmlac.Path, bool) {
	s := r.URL.Query().Get("q")
	if s == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return nil, false
	}
	return parseQuery(w, s)
}

// parseQuery parses a q value, writing a 400 itself when the value is
// longer than maxQueryBytes, before the parser sees it, or malformed.
func parseQuery(w http.ResponseWriter, s string) (*xmlac.Path, bool) {
	if len(s) > maxQueryBytes {
		http.Error(w, fmt.Sprintf("q parameter is %d bytes, longer than %d", len(s), maxQueryBytes), http.StatusBadRequest)
		return nil, false
	}
	q, err := xmlac.ParseXPath(s)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return q, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
