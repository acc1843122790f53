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

// Backend selects where a System materializes annotations.
type Backend uint8

const (
	// BackendNative is the native XML store (the MonetDB/XQuery role).
	BackendNative Backend = iota
	// BackendRow is the relational row store (the PostgreSQL role).
	BackendRow
	// BackendColumn is the relational column store (the MonetDB/SQL role).
	BackendColumn
	// BackendVector is the relational column store driven by the
	// vectorized batch executor (the real-MonetDB role; see
	// internal/sqldb/vector.go).
	BackendVector
)

// String names the backend as the evaluation figures label the series.
// The names double as store-registry keys: store.Open resolves them
// directly ("xquery" is a registered alias of the native engine).
func (b Backend) String() string {
	switch b {
	case BackendNative:
		return "xquery"
	case BackendColumn:
		return "monetsql"
	case BackendVector:
		return "monetcol"
	default:
		return "postgres"
	}
}

// Config assembles a System.
type Config struct {
	// Schema is the document schema; required.
	Schema *dtd.Schema
	// Policy is the access-control policy; required.
	Policy *policy.Policy
	// Backend selects the annotation store.
	Backend Backend
	// Optimize applies redundancy elimination to the policy (Section 5.1);
	// the paper always runs it first.
	Optimize bool
	// SchemaAware switches the optimizer, the dependency graph and the
	// Trigger algorithm to schema-aware containment (the optimization the
	// paper's conclusion proposes): containments that only hold on
	// schema-valid documents are recognized, removing more redundant rules
	// and discovering more rule interdependencies.
	SchemaAware bool
	// EnforceWrite enables access control for update operations (the
	// paper's future-work extension): before a delete or insert is applied,
	// every targeted node (the deleted subtree roots, or the insertion
	// parents) must be updatable under the policy's write rules, evaluated
	// on the fly with the Table 2 semantics.
	EnforceWrite bool
	// DocName names the document inside the native store; defaults to "doc".
	DocName string
	// Tracer receives hierarchical spans for every pipeline stage of
	// annotation, re-annotation and request processing; nil disables
	// tracing (the stages still record their Phases breakdown).
	Tracer *obs.Tracer
	// Metrics is attached to the backend store, feeding the store_*
	// counters and histograms (plus the legacy sqldb_*/nativedb_* names);
	// nil disables collection.
	Metrics *obs.Registry
	// Parallelism bounds the worker pool the annotation engine fans its
	// independent units out on (per-rule node-set queries on the native
	// backend, per-table reset and sign-update phases on the relational
	// ones). 0 selects GOMAXPROCS; 1 forces the sequential reference path,
	// which produces byte-identical sign columns.
	Parallelism int
	// PushdownSigns folds the access check of relational requests into the
	// translated query (shred.TranslateAccessible) instead of issuing
	// per-table sign-probe batches. Result-identical to the reference path.
	PushdownSigns bool
	// QueryCache answers request access checks from a compressed
	// accessibility map (internal/cam) materialized after annotation and
	// invalidated on every load, (re-)annotation and update — on both the
	// native and the relational backends. Result-identical to the
	// uncached paths.
	QueryCache bool
	// NoIDRouting disables id→table routing of the relational sign probes,
	// restoring the reference behavior of probing every table of the
	// mapping. Routing is on by default because each universal id lives in
	// exactly one table.
	NoIDRouting bool
	// Enforce selects the enforcement strategy: EnforceSigns is the
	// paper's materialized pipeline, EnforceRewrite composes the policy
	// into each query over the unannotated store, and EnforceAuto (the
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
	reann   *Reannotator
	doc     *xmltree.Document // installed by Load
	engine  store.Engine
	tracer  *obs.Tracer // nil when tracing is off
	pool    *pool.Pool  // nil forces the sequential reference path
	loaded  bool
	// version stamps the store's accessibility state: bumped (under the
	// exclusive lock) by every load, annotation and update, it invalidates
	// the query cache.
	version uint64
	qc      *queryCache // nil unless Config.QueryCache
	aud     *audit.Log  // nil when auditing is off
	// attr caches per-rule sign provenance (which rules match each node),
	// keyed by version like the query cache; System.Why serves from it.
	attr attribution
	// reqHist (indexed grant/deny/error) and annHist are the RED latency
	// histograms behind store_request_seconds{engine,outcome} and
	// store_annotate_seconds{engine}; nil without Config.Metrics.
	reqHist [3]*obs.Histogram
	annHist *obs.Histogram
	// Enforcement seam: plan is the planner's construction-time verdict;
	// enf the active strategy (guarded by mu); signsEnf/rewriteEnf the
	// built strategies (rewriteEnf nil on engines without RawQuery);
	// static the per-query enforceability memo; contains the containment
	// oracle kept for late reannotator builds at mode flips.
	plan       EnforcePlan
	enf        Enforcer
	signsEnf   *materializedEnforcer
	rewriteEnf *rewriteEnforcer
	static     *staticChecker
	contains   ContainFunc
	// region bounds each write's effect on the read policy's decisions;
	// both enforcers maintain their state over it at write time.
	region *writeRegion
	// enfCounts mirror core_enforcer_requests_total{mode,outcome} for the
	// planner-decision coverage report (live even without metrics).
	enfCounts   [encModes][3]atomic.Uint64
	enfCounters [encModes][3]*obs.Counter
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
	if cfg.QueryCache {
		s.qc = newQueryCache(cfg.Metrics)
	}
	contains := ContainFunc(pattern.Contains)
	if cfg.SchemaAware {
		contains = SchemaContainFunc(cfg.Schema)
	}
	s.contains = contains
	if cfg.Optimize {
		s.policy, s.removed = RemoveRedundantWith(s.policy, contains)
	}
	eng, err := store.Open(cfg.Backend.String(), store.Options{
		DocName:       cfg.DocName,
		Schema:        cfg.Schema,
		Default:       defaultSign(s.policy),
		Metrics:       cfg.Metrics,
		Pool:          s.pool,
		PushdownSigns: cfg.PushdownSigns,
		NoIDRouting:   cfg.NoIDRouting,
	})
	if err != nil {
		return nil, err
	}
	s.engine = eng
	// The enforcement plan decides whether the sign machinery is built at
	// all: rewriting enforcement never materializes signs, so the
	// reannotator — whose schema-aware expansion rejects recursive DTDs —
	// is only constructed when the plan maintains signs.
	s.plan, err = planEnforcement(cfg.Enforce, s.policy, cfg.Schema, eng)
	if err != nil {
		return nil, err
	}
	if s.plan.Mode == EnforceSigns {
		reann, err := NewReannotatorWith(s.policy, cfg.Schema, contains)
		if err != nil {
			return nil, err
		}
		s.reann = reann
	}
	s.region = newWriteRegion(NewRewriter(s.policy))
	s.signsEnf = &materializedEnforcer{s: s}
	if s.plan.RawCapable {
		s.rewriteEnf = newRewriteEnforcer(s)
	}
	if s.plan.Mode == EnforceRewrite {
		s.enf = s.rewriteEnf
	} else {
		s.enf = s.signsEnf
	}
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
// rules, evaluated on the fly (the materialized signs only cover reads).
// Every check lands in the audit trail as a "write-check" event; a denial
// is attributed to the deciding write rule.
func (s *System) checkWriteAccess(query string, targets []*xmltree.Node) error {
	if !s.cfg.EnforceWrite {
		return nil
	}
	start := time.Now()
	sem, err := s.write.SemanticsAction(s.Document(), policy.ActionWrite)
	if err != nil {
		s.auditWriteCheck(query, len(targets), time.Since(start), nil, err)
		return err
	}
	// SemanticsAction folds the default semantics in, so sem is the
	// complete updatable node set.
	for _, n := range targets {
		if !sem[n.ID] {
			err := fmt.Errorf("%w: node %d (%s) is not updatable", ErrUpdateDenied, n.ID, n.Label)
			s.auditWriteCheck(query, len(targets), time.Since(start), n, err)
			return err
		}
	}
	s.auditWriteCheck(query, len(targets), time.Since(start), nil, nil)
	return nil
}

// auditWriteCheck records one write-access check; denied carries the node
// that failed the check, attributed on the fly against the write rules.
func (s *System) auditWriteCheck(query string, checked int, d time.Duration, denied *xmltree.Node, err error) {
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
			if dec, derr := decideOnFly(s.write, s.Document(), denied); derr == nil {
				e.Rules = dec.AttributingRules()
			}
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
// benchmark harness).
func (s *System) Reannotator() *Reannotator { return s.reann }

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
	s.version++ // signs are about to change; invalidate the query cache
	sp := s.startSpan(ctx, "annotate").SetAttr("backend", s.cfg.Backend.String())
	start := time.Now()
	stats, err := s.engine.Annotate(obs.ContextWithSpan(ctx, sp), BuildAnnotationQuery(s.policy))
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

// deleteAndReannotate is DeleteAndReannotate without the audit wrapper
// (see reannotate.go).
func (s *System) deleteAndReannotate(u *xpath.Path) (*UpdateReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	if err := s.checkWriteDelete(u); err != nil {
		return nil, err
	}
	if !s.enf.MaintainsSigns() {
		// Rewriting enforcement: no signs exist, so there is nothing to
		// re-annotate — the delete applies and the rewriter patches its
		// scope sets.
		return s.deleteNoSignsLocked(u)
	}
	before := s.version
	rep := &UpdateReport{}
	root := s.tracer.Start("delete-reannotate").SetAttr("update", u.String())
	defer root.Finish()
	rep.TraceID = root.TraceID().String()

	start := time.Now()
	s.trigger(root, rep, u)
	rep.PrepareTime = time.Since(start)

	// The tuple deletions and per-tuple sign updates form one atomic unit:
	// a failure mid-way must not leave the store half-updated. The native
	// engine's transaction scope is an accepted no-op (the tree update is
	// the commit).
	if err := s.engine.Begin(); err != nil {
		return nil, err
	}
	start = time.Now()
	sp := obs.Start(root, "apply-delete")
	delta, total, err := s.applyDelete(u)
	sp.Finish()
	if err != nil {
		return nil, s.abortEngine(err)
	}
	rep.DeletedNodes = total
	rep.UpdateTime = time.Since(start)

	start = time.Now()
	err = s.reannotateRegion(root, delta, &rep.Stats)
	rep.ReannotateTime = time.Since(start)
	if err != nil {
		return nil, s.abortEngine(err)
	}
	if err := s.engine.Commit(); err != nil {
		return nil, err
	}
	s.patchScopes(before, delta)
	rep.finishPhases()
	return rep, nil
}

// deleteNoSignsLocked applies a delete without any sign maintenance —
// the write path of rewriting enforcement, where annotations are never
// materialized. Callers hold s.mu exclusively and have already checked
// write access.
func (s *System) deleteNoSignsLocked(u *xpath.Path) (*UpdateReport, error) {
	rep := &UpdateReport{}
	root := s.tracer.Start("delete-reannotate").SetAttr("update", u.String()).SetAttr("enforce", "rewrite")
	defer root.Finish()
	rep.TraceID = root.TraceID().String()
	if err := s.engine.Begin(); err != nil {
		return nil, err
	}
	before := s.version
	start := time.Now()
	sp := obs.Start(root, "apply-delete")
	delta, total, err := s.applyDelete(u)
	sp.Finish()
	if err != nil {
		return nil, s.abortEngine(err)
	}
	rep.DeletedNodes = total
	rep.UpdateTime = time.Since(start)
	if err := s.engine.Commit(); err != nil {
		return nil, err
	}
	s.patchScopes(before, delta)
	rep.finishPhases()
	return rep, nil
}

// abortEngine rolls the engine back after a mid-update failure; the error
// is returned enriched if the rollback itself fails.
func (s *System) abortEngine(err error) error {
	if !s.engine.InTransaction() {
		return err
	}
	if rbErr := s.engine.Rollback(); rbErr != nil {
		return fmt.Errorf("%w (relational rollback also failed: %v)", err, rbErr)
	}
	return err
}

// deleteAndFullAnnotate is DeleteAndFullAnnotate without the audit
// wrapper (see reannotate.go).
func (s *System) deleteAndFullAnnotate(u *xpath.Path) (*UpdateReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	if err := s.checkWriteDelete(u); err != nil {
		return nil, err
	}
	if !s.enf.MaintainsSigns() {
		return s.deleteNoSignsLocked(u)
	}
	if err := s.engine.Begin(); err != nil {
		return nil, err
	}
	rep := &UpdateReport{}
	root := s.tracer.Start("delete-fannot").SetAttr("update", u.String())
	defer root.Finish()
	rep.TraceID = root.TraceID().String()
	before := s.version
	start := time.Now()
	sp := obs.Start(root, "apply-delete")
	delta, total, err := s.applyDelete(u)
	sp.Finish()
	if err != nil {
		return nil, s.abortEngine(err)
	}
	rep.DeletedNodes = total
	rep.UpdateTime = time.Since(start)

	// The inner full annotation runs as a child of this round trip's root,
	// so the baseline path renders as one tree too.
	stats, err := s.annotateLocked(obs.ContextWithSpan(context.Background(), root))
	rep.Stats = stats
	rep.ReannotateTime = stats.Duration
	if err != nil {
		return nil, s.abortEngine(err)
	}
	if err := s.engine.Commit(); err != nil {
		return nil, err
	}
	s.patchScopes(before, delta)
	rep.finishPhases()
	return rep, nil
}

// checkWriteDelete verifies write access to the subtree roots a delete
// update would remove. Deleting a node carries its subtree with it; the
// check is on the targeted roots, matching the granularity of the update
// expression.
func (s *System) checkWriteDelete(u *xpath.Path) error {
	if !s.cfg.EnforceWrite {
		return nil
	}
	targets, err := xpath.Eval(u, s.Document())
	if err != nil {
		return err
	}
	return s.checkWriteAccess(u.String(), targets)
}

// applyDelete removes the matched subtrees from the tree and hands the
// deleted element ids to the engine (relational backends drop the
// corresponding tuples; the native engine has nothing further to do).
func (s *System) applyDelete(u *xpath.Path) (writeDelta, int, error) {
	s.version++ // the accessible set is about to change
	delta, total, err := deleteTree(s.Document(), u)
	if err != nil {
		return writeDelta{}, 0, err
	}
	if _, err := s.engine.DeleteRows(delta.deleted); err != nil {
		return writeDelta{}, 0, err
	}
	return delta, total, nil
}

// patchScopes hands a committed write to the rewrite enforcer, whose scope
// sets follow it when they were current at version before.
func (s *System) patchScopes(before uint64, d writeDelta) {
	if s.rewriteEnf != nil {
		s.rewriteEnf.patch(before, d)
	}
}

// insertAndReannotate is InsertAndReannotate without the audit wrapper
// (see reannotate.go).
func (s *System) insertAndReannotate(parentPath *xpath.Path, tmpl *xmltree.Node) (*UpdateReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	if tmpl == nil || !tmpl.IsElement() {
		return nil, fmt.Errorf("core: insert template must be an element")
	}
	doc := s.Document()
	rep := &UpdateReport{}
	root := s.tracer.Start("insert-reannotate").SetAttr("parent", parentPath.String())
	defer root.Finish()
	rep.TraceID = root.TraceID().String()

	// Under rewriting enforcement no signs exist: trigger selection and
	// sign maintenance are skipped entirely, and the rewriter patches its
	// scope sets once the insert commits.
	maintain := s.enf.MaintainsSigns()
	before := s.version
	start := time.Now()
	if maintain {
		s.trigger(root, rep, insertLocators(parentPath, tmpl)...)
	} else {
		root.SetAttr("enforce", "rewrite")
	}
	rep.PrepareTime = time.Since(start)

	start = time.Now()
	s.version++ // the accessible set is about to change
	sp := obs.Start(root, "apply-insert")
	parents, err := xpath.Eval(parentPath, doc)
	if err != nil {
		sp.Finish()
		return nil, err
	}
	if err := s.checkWriteAccess(parentPath.String(), parents); err != nil {
		sp.Finish()
		return nil, err
	}
	if err := s.engine.Begin(); err != nil {
		sp.Finish()
		return nil, err
	}
	var delta writeDelta
	for _, p := range parents {
		n, err := doc.InsertSubtree(p, tmpl)
		if err != nil {
			sp.Finish()
			return nil, s.abortEngine(err)
		}
		if err := s.engine.InsertSubtree(n); err != nil {
			sp.Finish()
			return nil, s.abortEngine(err)
		}
		delta.inserted = append(delta.inserted, n)
	}
	sp.Finish()
	rep.UpdateTime = time.Since(start)

	if maintain {
		start = time.Now()
		err = s.reannotateRegion(root, delta, &rep.Stats)
		rep.ReannotateTime = time.Since(start)
		if err != nil {
			return nil, s.abortEngine(err)
		}
	}
	if err := s.engine.Commit(); err != nil {
		return nil, err
	}
	s.patchScopes(before, delta)
	rep.finishPhases()
	return rep, nil
}

// insertLocators builds one update expression per element of the inserted
// subtree: parentPath followed by the template-internal label chain. Every
// inserted node may change rule scopes (inserted descendants need their own
// annotations, unlike deleted ones, which simply vanish), so each locator
// participates in triggering.
func insertLocators(parentPath *xpath.Path, tmpl *xmltree.Node) []*xpath.Path {
	var out []*xpath.Path
	var walk func(n *xmltree.Node, chain []string)
	walk = func(n *xmltree.Node, chain []string) {
		if !n.IsElement() {
			return
		}
		chain = append(chain, n.Label)
		u := parentPath.Clone()
		for _, l := range chain {
			u.Steps = append(u.Steps, &xpath.Step{Axis: xpath.Child, Test: l})
		}
		out = append(out, u)
		for _, c := range n.Children() {
			walk(c, chain)
		}
	}
	walk(tmpl, nil)
	return out
}

// Request evaluates a user query with all-or-nothing access checking on the
// configured backend. Every request lands in the audit trail (when a log
// is attached): outcome, counts, cache hit and — for denials — the rule
// that decided against the first inaccessible node.
func (s *System) Request(q *xpath.Path) (*RequestResult, error) {
	return s.RequestCtx(context.Background(), q)
}

// RequestCtx is Request under a caller's context: a span carried in ctx
// parents the request span (a catalog broadcast's shard span, say), so
// cross-document fan-outs trace as one connected tree.
func (s *System) RequestCtx(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	return s.requestEnforced(ctx, q, EnforceAuto)
}

// RequestMode evaluates one request under an explicit enforcement mode,
// overriding the active strategy for this call only. Requesting signs
// while the system runs rewriting is refused (no signs are materialized
// to check against); requesting rewriting works whenever the backend can
// evaluate unannotated queries.
func (s *System) RequestMode(q *xpath.Path, mode EnforceMode) (*RequestResult, error) {
	return s.RequestModeCtx(context.Background(), q, mode)
}

// RequestModeCtx is RequestMode under a caller's context.
func (s *System) RequestModeCtx(ctx context.Context, q *xpath.Path, mode EnforceMode) (*RequestResult, error) {
	return s.requestEnforced(ctx, q, mode)
}

// requestEnforced is the request path behind Request and RequestMode.
func (s *System) requestEnforced(ctx context.Context, q *xpath.Path, mode EnforceMode) (*RequestResult, error) {
	start := time.Now()
	// Instant refusal: a query the enforceability checker proves denied
	// from its shape alone is rejected before the system lock, before any
	// span, and before any store is touched.
	if s.static.classify(q) == pattern.StaticDeny {
		err := &DeniedError{Query: q.String()}
		d := time.Since(start)
		s.observeRequest(d, err)
		s.countEnforced(encStatic, err)
		s.auditStaticDeny(q, d, err)
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return nil, fmt.Errorf("core: no document loaded")
	}
	enf, err := s.enforcerForLocked(mode)
	if err != nil {
		return nil, err
	}
	sp := s.startSpan(ctx, "request").SetAttr("query", q.String()).
		SetAttr("backend", s.cfg.Backend.String()).SetAttr("enforce", enf.Mode().String())
	defer sp.Finish()
	res, hit, err := enf.Request(ctx, q, sp)
	d := time.Since(start)
	s.observeRequest(d, err)
	s.countEnforced(modeIndex(enf.Mode()), err)
	s.auditRequest(q, res, hit, d, sp, enf.Mode().String(), err)
	return res, err
}

// enforcerForLocked resolves a per-request mode override against the
// active strategy. Callers hold at least s.mu.RLock.
func (s *System) enforcerForLocked(mode EnforceMode) (Enforcer, error) {
	switch mode {
	case EnforceSigns:
		if !s.enf.MaintainsSigns() {
			return nil, fmt.Errorf("core: signs are not materialized under the active rewrite mode; switch with SetEnforceMode first")
		}
		return s.signsEnf, nil
	case EnforceRewrite:
		if s.rewriteEnf == nil {
			return nil, fmt.Errorf("core: backend %s cannot evaluate unannotated queries (no RawQuery)", s.cfg.Backend)
		}
		return s.rewriteEnf, nil
	default:
		return s.enf, nil
	}
}

// modeIndex maps an enforcement mode to its enfCounts row.
func modeIndex(m EnforceMode) int {
	if m == EnforceRewrite {
		return encRewrite
	}
	return encSigns
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
func (s *System) auditStaticDeny(q *xpath.Path, d time.Duration, err error) {
	if s.aud == nil {
		return
	}
	s.auditRecord(audit.Event{Kind: "request", Query: q.String(), Outcome: audit.OutcomeDeny,
		Mode: "static-deny", Duration: d, Err: err.Error()})
}

// Plan returns the enforcement planner's construction-time verdict.
func (s *System) Plan() EnforcePlan { return s.plan }

// ActiveMode returns the enforcement strategy currently serving requests
// (the plan's mode until SetEnforceMode changes it).
func (s *System) ActiveMode() EnforceMode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.enf.Mode()
}

// Rewriter returns the compiled policy rewriter (nil on backends that
// cannot evaluate unannotated queries). Plans and tooling render the
// composed safe query with it.
func (s *System) Rewriter() *xpath.Rewriter {
	if s.rewriteEnf == nil {
		return nil
	}
	return s.rewriteEnf.rw
}

// ClassifyQuery returns the static enforceability verdict for q under
// the active policy and schema.
func (s *System) ClassifyQuery(q *xpath.Path) pattern.StaticVerdict {
	return s.static.classify(q)
}

// SetEnforceMode switches the enforcement strategy at runtime.
// Switching to signs on a system that ran rewriting re-annotates first
// (signs were not maintained meanwhile); EnforceAuto restores the plan's
// choice. Requests observe the flip atomically — they either hold the
// read lock and finish under the old strategy, or start under the new.
func (s *System) SetEnforceMode(mode EnforceMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	resolved := mode
	if mode == EnforceAuto {
		resolved = s.plan.Mode
	}
	switch resolved {
	case EnforceSigns:
		if s.plan.Recursive {
			return fmt.Errorf("core: signs enforcement cannot serve recursive schema (cycle %v)", s.plan.Cycle)
		}
		if s.reann == nil {
			reann, err := NewReannotatorWith(s.policy, s.cfg.Schema, s.contains)
			if err != nil {
				return err
			}
			s.reann = reann
		}
		if s.enf.MaintainsSigns() {
			return nil
		}
		s.enf = s.signsEnf
		if s.loaded {
			if _, err := s.annotateLocked(context.Background()); err != nil {
				return err
			}
		}
	case EnforceRewrite:
		if s.rewriteEnf == nil {
			return fmt.Errorf("core: backend %s cannot evaluate unannotated queries (no RawQuery)", s.cfg.Backend)
		}
		s.enf = s.rewriteEnf
	}
	return nil
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
	if !s.enf.MaintainsSigns() {
		// No signs are materialized under rewriting enforcement; the
		// accessible set is derived from the rewriter's scope sets.
		return s.rewriteEnf.accessibleIDs()
	}
	if s.qc != nil {
		// Expanding the cached compressed map reproduces the backend's
		// accessible set exactly (the map was built from it), so view
		// export, filtered requests and coverage all serve from memory.
		acc, _, err := s.cachedCAM()
		if err != nil {
			return nil, err
		}
		return acc.AccessibleIDs(s.Document()), nil
	}
	return s.engine.AccessibleIDs()
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
