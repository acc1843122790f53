package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"xmlac/internal/audit"
	"xmlac/internal/dtd"
	"xmlac/internal/obs"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/pool"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Backend names the store a System materializes annotations in: a
// store-registry name, which NewSystem hands to store.Open unchanged.
type Backend string

const (
	// BackendNative is the native XML store (the MonetDB/XQuery role).
	BackendNative Backend = "xquery"
	// BackendRow is the relational row store (the PostgreSQL role).
	BackendRow Backend = "postgres"
	// BackendColumn is the relational column store (the MonetDB/SQL role).
	BackendColumn Backend = "monetsql"
	// BackendVector is the relational column store driven by the
	// vectorized batch executor (the real-MonetDB role; see
	// internal/sqldb/vector.go).
	BackendVector Backend = "monetcol"
)

// String returns the registry name.
func (b Backend) String() string { return string(b) }

// Config assembles a System.
type Config struct {
	// Schema is the document schema; required.
	Schema *dtd.Schema
	// Policy is the access-control policy; required.
	Policy *policy.Policy
	// Backend selects the annotation store; defaults to BackendNative.
	Backend Backend
	// Optimize applies redundancy elimination to the policy (Section 5.1);
	// the paper always runs it first.
	Optimize bool
	// EnforceWrite enables access control for update operations (the
	// paper's future-work extension): before a delete or insert is applied,
	// every targeted node (the deleted subtree roots, or the insertion
	// parents) must be updatable under the policy's write rules, evaluated
	// on the fly with the Table 2 semantics.
	EnforceWrite bool
	// DocName names the document in audit events and catalogs; defaults
	// to "doc".
	DocName string
	// Tracer receives hierarchical spans for every pipeline stage of
	// annotation, re-annotation and request processing; nil disables
	// tracing (the stages still record their Phases breakdown).
	Tracer *obs.Tracer
	// Metrics is attached to the backend store, feeding the store_*
	// counters and histograms; nil disables collection.
	Metrics *obs.Registry
	// Parallelism bounds the worker pool the annotation engine fans its
	// independent units out on (per-rule node-set queries on every
	// backend, per-table reset and sign-update phases on the relational
	// ones). 0 selects GOMAXPROCS; 1 runs the same code in the caller,
	// one unit after another.
	Parallelism int
	// Enforce selects the enforcement strategy, once for the System's
	// life: signs is the paper's materialized pipeline, rewrite composes
	// the policy into each query over the unannotated store, and auto (the
	// zero value) lets the planner pick — signs where the pipeline
	// applies, rewriting where it cannot (recursive schemas).
	Enforce EnforceMode
	// Audit receives one structured event per request, write-access check
	// and (re-)annotation run — the decision-level audit trail. nil
	// disables auditing; the hot path then pays only a nil check.
	Audit *audit.Log
}

// WithParallelism returns a copy of the configuration with the annotation
// engine's worker-pool bound set (see Config.Parallelism).
func (c Config) WithParallelism(n int) Config {
	c.Parallelism = n
	return c
}

// System is the assembled access-control system of Section 4: optimizer,
// annotator, reannotator and requester wired over one backend. The XML
// tree is always kept (it is the document being protected); everything
// backend-specific — how signs are materialized, how requests are
// checked, how updates are mirrored — lives behind the store.Engine
// seam.
type System struct {
	// mu guards the protected document tree and the loaded flag: annotation
	// and updates take it exclusively, requests and coverage reads share it.
	// The backend engines carry their own finer-grained locks underneath.
	mu      sync.RWMutex
	cfg     Config
	policy  *policy.Policy // optimized read policy (drives annotation)
	write   *policy.Policy // write rules (drive update checks)
	removed []policy.Rule
	doc     *xmltree.Document // installed by Load
	engine  store.Engine
	tracer  *obs.Tracer // nil when tracing is off
	pool    *pool.Pool  // nil runs every unit in the caller
	loaded  bool
	// version stamps the store's accessibility state: bumped (under the
	// exclusive lock) by every load, annotation and applied update. The
	// rewriting enforcer's decision set is the only state stamped with it.
	version uint64
	aud     *audit.Log // nil when auditing is off
	// reqHist (indexed grant/deny/error) and annHist are the RED latency
	// histograms behind store_request_seconds{engine,outcome} and
	// store_annotate_seconds{engine}; nil without Config.Metrics.
	reqHist [3]*obs.Histogram
	annHist *obs.Histogram
	// Enforcement seam: plan is the planner's construction-time verdict;
	// enf the one strategy NewSystem built from it, fixed for the System's
	// life; static the per-query enforceability memo.
	plan   EnforcePlan
	enf    Enforcer
	static *staticChecker
	// region bounds each write's effect on the read policy's decisions;
	// the enforcer's state is maintained over it at write time.
	region *writeRegion
	// enfCounts mirror core_enforcer_requests_total{mode,outcome} for the
	// planner-decision coverage report (live even without metrics); enfRow
	// is the row of enf's mode.
	enfCounts   [encModes][3]atomic.Uint64
	enfCounters [encModes][3]*obs.Counter
	enfRow      int
}

// reqHist outcome indexes.
const (
	outGrant = iota
	outDeny
	outError
)

// NewSystem validates the configuration and builds the system.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("core: Config.Schema is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: Config.Policy is required")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == "" {
		cfg.Backend = BackendNative
	}
	if cfg.DocName == "" {
		cfg.DocName = "doc"
	}
	s := &System{
		cfg:    cfg,
		policy: cfg.Policy.ForAction(policy.ActionRead),
		write:  cfg.Policy.ForAction(policy.ActionWrite),
		tracer: cfg.Tracer,
		aud:    cfg.Audit,
	}
	if cfg.Parallelism != 1 {
		s.pool = pool.New(cfg.Parallelism)
		if cfg.Metrics != nil {
			s.pool.SetMetrics(cfg.Metrics)
		}
	}
	if cfg.Optimize {
		s.policy, s.removed = RemoveRedundant(s.policy)
	}
	eng, err := store.Open(string(cfg.Backend), store.Options{
		Schema:  cfg.Schema,
		Default: defaultSign(s.policy),
		Metrics: cfg.Metrics,
		Pool:    s.pool,
	})
	if err != nil {
		return nil, err
	}
	s.engine = eng
	s.plan, err = planEnforcement(cfg.Enforce, s.policy, cfg.Schema)
	if err != nil {
		return nil, err
	}
	s.region = newWriteRegion(NewRewriter(s.policy))
	if s.enf, err = newEnforcer(s, s.plan.Mode); err != nil {
		return nil, err
	}
	s.enfRow = modeIndex(s.plan.Mode)
	s.static = newStaticChecker(s.policy, cfg.Schema)
	if cfg.Metrics != nil {
		lbl := store.EngineLabel(eng)
		for i, outcome := range []string{"grant", "deny", "error"} {
			s.reqHist[i] = cfg.Metrics.Histogram(
				fmt.Sprintf("store_request_seconds{engine=%q,outcome=%q}", lbl, outcome))
		}
		s.annHist = cfg.Metrics.Histogram(fmt.Sprintf("store_annotate_seconds{engine=%q}", lbl))
		for m := 0; m < encModes; m++ {
			for o, outcome := range encOutcomeNames {
				s.enfCounters[m][o] = cfg.Metrics.Counter(
					fmt.Sprintf("core_enforcer_requests_total{mode=%q,outcome=%q}", encModeNames[m], outcome))
			}
		}
	}
	return s, nil
}

// Policy returns the (optimized) read policy in force.
func (s *System) Policy() *policy.Policy { return s.policy }

// WritePolicy returns the update-control rules in force (empty when the
// policy has none).
func (s *System) WritePolicy() *policy.Policy { return s.write }

// ErrUpdateDenied is returned when EnforceWrite rejects an update.
var ErrUpdateDenied = fmt.Errorf("core: update denied")

// checkWriteAccess verifies every target node is updatable under the write
// rules, decided per target on the fly (the materialized signs only cover
// reads); the decision that denies a target also attributes the denial.
// Every check lands in the audit trail as a "write-check" event.
func (s *System) checkWriteAccess(query string, targets []*xmltree.Node) error {
	if !s.cfg.EnforceWrite {
		return nil
	}
	start := time.Now()
	for _, n := range targets {
		if dec := decideOnFly(s.write, n); !dec.Accessible {
			err := fmt.Errorf("%w: node %d (%s) is not updatable", ErrUpdateDenied, n.ID, n.Label)
			s.auditWriteCheck(query, len(targets), time.Since(start), &dec, err)
			return err
		}
	}
	s.auditWriteCheck(query, len(targets), time.Since(start), nil, nil)
	return nil
}

// auditWriteCheck records one write-access check; denied is the decision
// of the target that failed it.
func (s *System) auditWriteCheck(query string, checked int, d time.Duration, denied *WhyDecision, err error) {
	if s.aud == nil {
		return
	}
	e := audit.Event{Kind: "write-check", Query: query, Checked: checked, Matched: checked, Duration: d}
	switch {
	case err == nil:
		e.Outcome = audit.OutcomeGrant
	case errors.Is(err, ErrUpdateDenied):
		e.Outcome = audit.OutcomeDeny
		e.Err = err.Error()
		if denied != nil {
			e.Rules = denied.AttributingRules()
		}
	default:
		e.Outcome = audit.OutcomeError
		e.Err = err.Error()
	}
	s.auditRecord(e)
}

// auditRecord stamps the common fields and records the event; no-op
// without an attached log.
func (s *System) auditRecord(e audit.Event) {
	if s.aud == nil {
		return
	}
	e.Backend = s.cfg.Backend.String()
	if e.Doc == "" {
		e.Doc = s.cfg.DocName
	}
	if e.Semantics == "" {
		e.Semantics = s.SemanticsLabel()
	}
	s.aud.Record(e)
}

// RemovedRules returns the rules the optimizer eliminated.
func (s *System) RemovedRules() []policy.Rule { return s.removed }

// Backend returns the configured backend.
func (s *System) Backend() Backend { return s.cfg.Backend }

// Engine returns the backend store engine. Tools that need the concrete
// relational internals assert the optional interface:
//
//	if r, ok := sys.Engine().(store.Relational); ok { db := r.DB() }
func (s *System) Engine() store.Engine { return s.engine }

// SetSlowQueryLog logs every backend SQL statement slower than threshold to
// w (one line per statement). A no-op on the native backend.
func (s *System) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	s.engine.SetSlowQueryLog(w, threshold)
}

// Document returns the protected document tree.
func (s *System) Document() *xmltree.Document { return s.doc }

// Audit returns the attached audit log (nil when auditing is off).
func (s *System) Audit() *audit.Log { return s.aud }

// Version returns the store's accessibility version stamp: bumped by
// every load, (re-)annotation and update, it identifies which annotation
// state a cached artifact or an ops snapshot reflects.
func (s *System) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Loaded reports whether a document is installed.
func (s *System) Loaded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.loaded
}

// Reannotator exposes the re-annotation machinery (for inspection and the
// benchmark harness); nil under rewriting enforcement.
func (s *System) Reannotator() *Reannotator {
	if m, ok := s.enf.(*materializedEnforcer); ok {
		return m.reann
	}
	return nil
}

// Load installs the document: it is validated against the schema and
// handed to the engine — kept as the annotated tree on the native
// backend, shredded into tables with signs initialized to the policy
// default on the relational ones.
func (s *System) Load(doc *xmltree.Document) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errs := s.cfg.Schema.Validate(doc); len(errs) > 0 {
		return fmt.Errorf("core: document does not conform to schema: %v (and %d more)", errs[0], len(errs)-1)
	}
	if err := s.engine.Load(doc); err != nil {
		return err
	}
	s.doc = doc
	s.loaded = true
	s.version++
	return nil
}

func defaultSign(p *policy.Policy) xmltree.Sign {
	if p.Default == policy.Allow {
		return xmltree.SignPlus
	}
	return xmltree.SignMinus
}

// Annotate performs full annotation on the configured backend. The
// returned statistics carry the total duration and the per-stage phase
// breakdown; with a Tracer configured the same stages emit a span tree.
func (s *System) Annotate() (AnnotateStats, error) {
	return s.AnnotateCtx(context.Background())
}

// AnnotateCtx is Annotate under a caller's context: a span carried in
// ctx (obs.ContextWithSpan) parents the annotation span, keeping e.g. a
// catalog-wide fan-out one connected trace instead of per-document
// roots.
func (s *System) AnnotateCtx(ctx context.Context) (AnnotateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.annotateLocked(ctx)
}

// startSpan begins the named span as a child of the context's span when
// one is present (a catalog or caller trace) and as a tracer root
// otherwise — the rule that makes every operation appear in exactly one
// tree.
func (s *System) startSpan(ctx context.Context, name string) *obs.Span {
	if parent := obs.FromContext(ctx); parent != nil {
		return obs.Start(parent, name)
	}
	return s.tracer.Start(name)
}

// annotateLocked is AnnotateCtx for callers already holding s.mu.
func (s *System) annotateLocked(ctx context.Context) (AnnotateStats, error) {
	if !s.loaded {
		return AnnotateStats{}, fmt.Errorf("core: no document loaded")
	}
	s.version++ // the enforcer's state is about to be rebuilt
	sp := s.startSpan(ctx, "annotate").SetAttr("backend", s.cfg.Backend.String())
	start := time.Now()
	stats, err := s.enf.Annotate(obs.ContextWithSpan(ctx, sp))
	stats.Duration = time.Since(start)
	sp.SetAttr("updated", stats.Updated).SetAttr("reset", stats.Reset)
	sp.Finish()
	s.annHist.ObserveDuration(stats.Duration)
	s.auditAnnotate(stats, sp, err)
	return stats, err
}

// auditAnnotate records one full-annotation run, stamped with the
// annotation span's trace id.
func (s *System) auditAnnotate(stats AnnotateStats, sp *obs.Span, err error) {
	if s.aud == nil {
		return
	}
	e := audit.Event{Kind: "annotate", Outcome: audit.OutcomeOK, Trace: sp.TraceID().String(),
		Updated: stats.Updated, Reset: stats.Reset, Duration: stats.Duration}
	if err != nil {
		e.Outcome = audit.OutcomeError
		e.Err = err.Error()
	}
	s.auditRecord(e)
}

// UpdateReport describes one delete-update round trip.
type UpdateReport struct {
	// Triggered names the rules the Trigger algorithm selected. It is
	// reported and audited; the write's region decides what is
	// re-annotated.
	Triggered []string
	// DeletedNodes counts removed tree nodes (elements and text).
	DeletedNodes int
	// Stats are the re-annotation statistics (Stats.Phases holds the
	// fine-grained stage breakdown of the re-annotation itself).
	Stats AnnotateStats
	// PrepareTime (trigger selection), UpdateTime and ReannotateTime
	// split the round trip.
	PrepareTime, UpdateTime, ReannotateTime time.Duration
	// Phases is the coarse round-trip breakdown (prepare, apply-update,
	// reannotate) in obs form.
	Phases obs.Phases
	// TraceID is the round trip's trace id (empty without a tracer); the
	// audit wrapper stamps it on the "reannotate" event.
	TraceID string
}

// finishPhases derives the coarse phase list from the recorded times.
func (rep *UpdateReport) finishPhases() {
	rep.Phases.Add("prepare", rep.PrepareTime)
	rep.Phases.Add("apply-update", rep.UpdateTime)
	rep.Phases.Add("reannotate", rep.ReannotateTime)
}

// Request evaluates a user query with all-or-nothing access checking on the
// configured backend. Every request lands in the audit trail (when a log
// is attached): outcome, counts, whether the decision set was current and
// — for denials — the rule that decided against the first inaccessible
// node.
func (s *System) Request(q *xpath.Path) (*RequestResult, error) {
	return s.RequestCtx(context.Background(), q)
}

// RequestCtx is Request under a caller's context: a span carried in ctx
// parents the request span (a catalog broadcast's shard span, say), so
// cross-document fan-outs trace as one connected tree.
func (s *System) RequestCtx(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	start := time.Now()
	text := q.String() // the memo key, the span attribute and the audit query
	// Instant refusal: a query the enforceability checker proves denied
	// from its shape alone is rejected before the system lock, before any
	// span, and before any store is touched.
	if s.static.classify(q, text) == pattern.StaticDeny {
		err := &DeniedError{Query: text}
		d := time.Since(start)
		s.observeRequest(d, err)
		s.countEnforced(encStatic, err)
		s.auditStaticDeny(text, d, err)
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	mode := s.enf.Mode().String()
	sp := s.startSpan(ctx, "request").SetAttr("query", text).
		SetAttr("backend", s.cfg.Backend.String()).SetAttr("enforce", mode)
	defer sp.Finish()
	res, hit, err := s.enf.Request(ctx, q, sp)
	d := time.Since(start)
	s.observeRequest(d, err)
	s.countEnforced(s.enfRow, err)
	s.auditRequest(text, res, hit, d, sp, mode, err)
	return res, err
}

// countEnforced feeds the per-mode decision counters (and their metric
// series when attached).
func (s *System) countEnforced(mode int, err error) {
	var denied *DeniedError
	o := outGrant
	switch {
	case err == nil:
	case errors.As(err, &denied):
		o = outDeny
	default:
		o = outError
	}
	s.enfCounts[mode][o].Add(1)
	if c := s.enfCounters[mode][o]; c != nil {
		c.Inc()
	}
}

// auditStaticDeny records an instant refusal: Mode "static-deny", no
// trace (no spans ran) and no node attribution (no node was identified).
func (s *System) auditStaticDeny(query string, d time.Duration, err error) {
	if s.aud == nil {
		return
	}
	s.auditRecord(audit.Event{Kind: "request", Query: query, Outcome: audit.OutcomeDeny,
		Mode: "static-deny", Duration: d, Err: err.Error()})
}

// Plan returns the enforcement planner's construction-time verdict.
func (s *System) Plan() EnforcePlan { return s.plan }

// ActiveMode returns the enforcement strategy serving requests: the
// plan's mode, fixed at construction.
func (s *System) ActiveMode() EnforceMode { return s.enf.Mode() }

// Rewriter returns the compiled policy rewriter. Plans and tooling render
// the composed safe query with it.
func (s *System) Rewriter() *xpath.Rewriter { return s.region.rw }

// ClassifyQuery returns the static enforceability verdict for q under
// the active policy and schema.
func (s *System) ClassifyQuery(q *xpath.Path) pattern.StaticVerdict {
	return s.static.classify(q, q.String())
}

// observeRequest feeds the request's latency into the histogram of its
// outcome (grant, deny or error).
func (s *System) observeRequest(d time.Duration, err error) {
	var denied *DeniedError
	switch {
	case err == nil:
		s.reqHist[outGrant].ObserveDuration(d)
	case errors.As(err, &denied):
		s.reqHist[outDeny].ObserveDuration(d)
	default:
		s.reqHist[outError].ObserveDuration(d)
	}
}

// Explain translates an XPath query to SQL and returns the relational
// engine's EXPLAIN output — the greedy planner's access paths, join order
// and row counts. Relational backends only.
func (s *System) Explain(q *xpath.Path) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return "", fmt.Errorf("core: no document loaded")
	}
	if !s.engine.Relational() {
		return "", fmt.Errorf("core: EXPLAIN requires a relational backend, not %s", s.cfg.Backend)
	}
	return s.engine.Explain(q)
}

// AccessibleIDs returns the currently accessible universal ids on the
// configured backend — used by the equivalence tests and the coverage
// measurements.
func (s *System) AccessibleIDs() (map[int64]bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.accessibleIDsLocked()
}

// accessibleIDsLocked is AccessibleIDs for callers already holding s.mu.
func (s *System) accessibleIDsLocked() (map[int64]bool, error) {
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	return s.enf.AccessibleIDs()
}

// Coverage returns the accessible fraction of element nodes.
func (s *System) Coverage() (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids, err := s.accessibleIDsLocked()
	if err != nil {
		return 0, err
	}
	total := s.Document().ElementCount()
	if total == 0 {
		return 0, nil
	}
	return float64(len(ids)) / float64(total), nil
}
