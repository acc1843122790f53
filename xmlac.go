// Package xmlac is a library for controlling access to XML documents
// stored in native XML and relational databases, reproducing the system of
//
//	L. Koromilas, G. Chinis, I. Fundulaki, S. Ioannidis:
//	"Controlling Access to XML Documents over XML Native and Relational
//	Databases", Secure Data Management (SDM @ VLDB), LNCS 5776, 2009.
//
// The library follows the paper's materialized approach: a document is
// stored together with per-node accessibility annotations ('+'/'−' signs)
// computed from a rule-based access-control policy, and queries are
// answered all-or-nothing against the annotated store. It implements the
// paper's four components — the policy optimizer (redundancy elimination by
// XPath containment), the annotator (annotation queries per the policy
// semantics), the reannotator (dependency graph + schema-aware rule
// expansion + the Trigger algorithm, so document updates re-annotate only
// the affected region), and the requester — over three interchangeable
// backends: an in-memory native XML store and a relational store in row- or
// column-oriented layout, fed by ShreX-style shredding with XPath-to-SQL
// translation.
//
// # Quick start
//
//	schema, _ := xmlac.ParseDTD(dtdText)
//	pol, _ := xmlac.ParsePolicy(policyText)
//	sys, _ := xmlac.New(xmlac.Config{Schema: schema, Policy: pol,
//	    Backend: xmlac.BackendNative, Optimize: true})
//	doc, _ := xmlac.ParseXML(strings.NewReader(xmlText))
//	_ = sys.Load(doc)
//	_, _ = sys.Annotate()
//	res, err := sys.Request(xmlac.MustParseXPath("//patient/name"))
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the reproduced evaluation.
package xmlac

import (
	"context"
	"io"

	"xmlac/internal/audit"
	"xmlac/internal/core"
	"xmlac/internal/dtd"
	"xmlac/internal/obs"
	"xmlac/internal/observatory"
	"xmlac/internal/pattern"
	"xmlac/internal/policy"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Version identifies this release of the library and its commands.
const Version = "0.8.0"

// Core model types, re-exported for the public API. See the internal
// packages for full method documentation.
type (
	// Document is an XML document: a rooted unordered labeled tree with
	// stable universal node identifiers and optional sign annotations.
	Document = xmltree.Document
	// Node is a single node of a Document.
	Node = xmltree.Node
	// Sign is a node's accessibility annotation ('+', '−', or none).
	Sign = xmltree.Sign
	// Schema is a parsed DTD.
	Schema = dtd.Schema
	// Policy is an access-control policy P = (ds, cr, A, D).
	Policy = policy.Policy
	// Rule is one access-control rule (resource, effect).
	Rule = policy.Rule
	// Effect is a rule effect / default semantics / conflict resolution.
	Effect = policy.Effect
	// Action is the operation a rule governs (read or write).
	Action = policy.Action
	// Path is a parsed XPath expression of the paper's fragment.
	Path = xpath.Path
	// System is an assembled access-control system over one backend.
	System = core.System
	// Config assembles a System.
	Config = core.Config
	// Backend selects the annotation store of a System.
	Backend = core.Backend
	// AnnotateStats reports what an annotation run did.
	AnnotateStats = core.AnnotateStats
	// UpdateReport describes one update + re-annotation round trip.
	UpdateReport = core.UpdateReport
	// RequestResult is a granted request's answer.
	RequestResult = core.RequestResult
	// ViewMode selects the security-view export behavior (prune/promote).
	ViewMode = core.ViewMode
	// MultiUser serves per-requester policies over one shared document,
	// with compressed per-user accessibility maps.
	MultiUser = core.MultiUser
	// MultiUpdateReport describes a shared update across all users.
	MultiUpdateReport = core.MultiUpdateReport
	// MultiUserStats summarizes the policy-cohort compression of a
	// MultiUser: population, distinct cohorts, dedup ratio and the
	// per-cohort breakdown.
	MultiUserStats = core.MultiUserStats
	// CohortInfo is one cohort's entry in MultiUserStats.
	CohortInfo = core.CohortInfo
	// EnforceMode selects the enforcement strategy of a System:
	// materialized signs, query rewriting, or the planner's automatic
	// choice.
	EnforceMode = core.EnforceMode
	// EnforcePlan is the enforcement planner's verdict for one System:
	// the resolved mode and why, plus the schema facts (recursion, value
	// predicates) it rested on.
	EnforcePlan = core.EnforcePlan
	// EnforcementStats is the planner-decision coverage block: static
	// classifications and per-mode decision counts.
	EnforcementStats = core.EnforcementStats
	// StaticVerdict is the static enforceability checker's answer for one
	// query (grant, deny or unknown).
	StaticVerdict = pattern.StaticVerdict
	// Rewriter is one policy compiled for rewriting enforcement; reach a
	// System's via System.Rewriter to render composed safe queries.
	Rewriter = xpath.Rewriter
	// XMarkOptions scales the bundled XMark-like document generator.
	XMarkOptions = xmark.Options
	// Tracer creates trace spans; attach one via Config.Tracer to see a
	// per-phase breakdown of annotation, re-annotation and requests.
	Tracer = obs.Tracer
	// Span is one timed region of a trace. Every span carries a TraceID
	// shared by its whole tree and a unique SpanID.
	Span = obs.Span
	// TraceID identifies one span tree; it renders as 16 hex digits and
	// is stamped on the tree's audit events for correlation.
	TraceID = obs.TraceID
	// SpanID identifies one span within its trace.
	SpanID = obs.SpanID
	// TraceSink receives finished root spans from a Tracer.
	TraceSink = obs.Sink
	// MetricsRegistry holds named counters, gauges and histograms; attach
	// one via Config.Metrics to collect backend execution metrics.
	MetricsRegistry = obs.Registry
	// Phases is the flat per-stage time breakdown carried on AnnotateStats
	// and UpdateReport, recorded whether or not a tracer is attached.
	Phases = obs.Phases
	// TraceCollector is a TraceSink retaining the most recent root spans
	// in a bounded ring — the store behind a server's /traces endpoint.
	TraceCollector = obs.Collector
	// AuditLog records decision events in a bounded ring, optionally
	// mirrored to a JSONL writer; attach one via Config.Audit.
	AuditLog = audit.Log
	// AuditEvent is one recorded decision: a request, a write-access
	// check, or an annotation/re-annotation run.
	AuditEvent = audit.Event
	// AuditOutcome classifies an AuditEvent (grant, deny, error, ok).
	AuditOutcome = audit.Outcome
	// WhyDecision explains one node's accessibility: the deciding rule,
	// the co-matching rules, and the rules the conflict resolution
	// overrode. Returned by System.Why and System.WhyNode.
	WhyDecision = core.WhyDecision
	// RuleRef names one policy rule inside a WhyDecision.
	RuleRef = core.RuleRef
	// AuditRotatingFile is a JSONL audit writer with size-based rotation
	// (path -> path.1 -> path.2, bounded file count); open one with
	// OpenRotatingAuditFile and pass it to AuditLog.AttachJSONL.
	AuditRotatingFile = audit.RotatingFile
	// Observatory is the decision-analytics engine: denial forensics,
	// SLO burn-rate alerting and live decision streaming over an
	// AuditLog + MetricsRegistry pair.
	Observatory = observatory.Observatory
	// ObservatoryOptions configures NewObservatory.
	ObservatoryOptions = observatory.Options
	// CoverageReport joins a loaded policy against the annotated
	// document: per-rule fire counts, dead and always-losing rules, the
	// allow/deny node mix. Returned by System.PolicyCoverage and
	// MultiUser.CoverageByCohort.
	CoverageReport = observatory.CoverageReport
	// RuleCoverage is one rule's row in a CoverageReport.
	RuleCoverage = observatory.RuleCoverage
	// CoverageRollup condenses per-cohort CoverageReports into a
	// per-semantics allow/deny mix; build one with RollupCoverage.
	CoverageRollup = observatory.CoverageRollup
	// DenialForensics aggregates denials into tumbling time windows by
	// subject, doc, rule, backend and shard.
	DenialForensics = observatory.Forensics
	// ForensicsWindow is one window's denial report with top-K
	// dimensions and rate-of-change.
	ForensicsWindow = observatory.WindowReport
	// SLOEngine evaluates declarative objectives with multi-window
	// burn-rate state machines; reach it via Observatory.SLO.
	SLOEngine = observatory.SLOEngine
	// SLOObjective is one parsed objective (e.g. request_p99<5ms).
	SLOObjective = observatory.Objective
	// AlertState is one objective's current burn-rate state.
	AlertState = observatory.AlertState
	// AlertTransition is one ok<->firing state-machine edge.
	AlertTransition = observatory.AlertTransition
	// DecisionStream fans audit events and alert transitions out to live
	// subscribers with bounded per-subscriber queues (the SSE /stream
	// hub).
	DecisionStream = observatory.Stream
	// StreamEvent is one frame of the decision stream.
	StreamEvent = observatory.StreamEvent
	// StreamSub is one live subscription to a DecisionStream.
	StreamSub = observatory.StreamSub
)

// Audit outcomes.
const (
	// AuditGrant marks an allowed request or write check.
	AuditGrant = audit.OutcomeGrant
	// AuditDeny marks a denied request or write check.
	AuditDeny = audit.OutcomeDeny
	// AuditError marks an evaluation failure.
	AuditError = audit.OutcomeError
	// AuditOK marks a completed annotation or re-annotation run.
	AuditOK = audit.OutcomeOK
)

// View modes.
const (
	// ViewPrune drops inaccessible subtrees wholesale when exporting a
	// security view.
	ViewPrune = core.ViewPrune
	// ViewPromote splices inaccessible nodes out, promoting their
	// accessible descendants.
	ViewPromote = core.ViewPromote
)

// Enforcement modes.
const (
	// EnforceAuto lets the planner decide: signs where the materialized
	// pipeline applies, rewriting where it cannot (recursive schemas).
	EnforceAuto = core.EnforceAuto
	// EnforceSigns is the paper's materialized pipeline.
	EnforceSigns = core.EnforceSigns
	// EnforceRewrite composes the policy into each query over the
	// unannotated store: annotation-free reads, re-annotation-free writes.
	EnforceRewrite = core.EnforceRewrite
)

// Static enforceability verdicts.
const (
	// StaticUnknown means the checker could not decide from shapes alone.
	StaticUnknown = pattern.StaticUnknown
	// StaticGrant means every possible match is provably accessible.
	StaticGrant = pattern.StaticGrant
	// StaticDeny means the query is provably non-empty and every match
	// provably inaccessible — requests are refused without touching a
	// store.
	StaticDeny = pattern.StaticDeny
)

// Backends.
const (
	// BackendNative stores annotations on the XML tree itself (the paper's
	// MonetDB/XQuery configuration).
	BackendNative = core.BackendNative
	// BackendRow shreds into a row-oriented relational store (the paper's
	// PostgreSQL configuration).
	BackendRow = core.BackendRow
	// BackendColumn shreds into a column-oriented relational store (the
	// paper's MonetDB/SQL configuration).
	BackendColumn = core.BackendColumn
	// BackendVector shreds into the column-oriented store driven by the
	// vectorized batch executor (the real-MonetDB role, "monetcol").
	BackendVector = core.BackendVector
)

// Effects, actions and signs.
const (
	// Allow is the "+" effect.
	Allow = policy.Allow
	// Deny is the "−" effect.
	Deny = policy.Deny
	// ActionRead governs query access (the paper's fixed action).
	ActionRead = policy.ActionRead
	// ActionWrite governs update access (this reproduction's extension of
	// the paper's future work).
	ActionWrite = policy.ActionWrite
	// SignPlus marks a node accessible.
	SignPlus = xmltree.SignPlus
	// SignMinus marks a node inaccessible.
	SignMinus = xmltree.SignMinus
	// SignNone means a node carries no annotation (the policy default
	// applies).
	SignNone = xmltree.SignNone
)

// ErrAccessDenied is returned by System.Request when the all-or-nothing
// check fails.
var ErrAccessDenied = core.ErrAccessDenied

// ErrUpdateDenied is returned by the update operations when
// Config.EnforceWrite rejects an update under the policy's write rules.
var ErrUpdateDenied = core.ErrUpdateDenied

// New assembles an access-control system from a schema, a policy and a
// backend choice. With Config.Optimize set, redundant rules are eliminated
// first (Section 5.1 of the paper).
func New(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// ParseEnforceMode parses "auto", "signs" or "rewrite" (the -enforce
// flag values).
func ParseEnforceMode(s string) (EnforceMode, error) { return core.ParseEnforceMode(s) }

// NewTracer returns a tracer delivering finished root spans to sink.
// Use a RenderTraceSink to print span trees as they finish.
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// RenderTraceSink returns a TraceSink that renders each finished span tree
// to w — the output behind the commands' -trace flag.
func RenderTraceSink(w io.Writer) TraceSink { return &obs.RenderSink{W: w} }

// NewAuditLog returns an audit log retaining the most recent capacity
// events (a package default when capacity <= 0). Attach it via
// Config.Audit; mirror events to a writer with AuditLog.AttachJSONL.
func NewAuditLog(capacity int) *AuditLog { return audit.NewLog(capacity) }

// OpenRotatingAuditFile opens a size-rotated JSONL audit file: once the
// live file would exceed maxBytes (a package default when <= 0) it is
// renamed path.1 (shifting older generations up) and a fresh file is
// opened; at most maxFiles files are kept. Pass the result to
// AuditLog.AttachJSONL and export rotations via
// AuditRotatingFile.OnRotate.
func OpenRotatingAuditFile(path string, maxBytes int64, maxFiles int) (*AuditRotatingFile, error) {
	return audit.OpenRotatingFile(path, maxBytes, maxFiles)
}

// NewObservatory assembles the analytics engine. Attach it to an audit
// log with Observatory.Attach, enable burn-rate alerting with
// Observatory.EnableSLOs, and drive it with Observatory.Run (or Tick).
func NewObservatory(opts ObservatoryOptions) *Observatory { return observatory.New(opts) }

// ParseSLOs parses the -slo flag syntax, e.g.
// `request_p99<5ms,error_rate<1%`. Supported objectives: request_p50,
// request_p95, request_p99 (duration thresholds over the request-path
// latency series) and error_rate, deny_rate (fraction or percentage of
// requests).
func ParseSLOs(spec string) ([]SLOObjective, error) { return observatory.ParseObjectives(spec) }

// RollupCoverage aggregates MultiUser.CoverageByCohort output into the
// per-semantics allow/deny mix.
func RollupCoverage(cohorts map[string]*CoverageReport) *CoverageRollup {
	return observatory.RollupCoverage(cohorts)
}

// NewTraceCollector returns a bounded trace collector retaining the most
// recent capacity root spans (a package default when capacity <= 0). Use
// NewTracer(collector) to feed it.
func NewTraceCollector(capacity int) *TraceCollector { return obs.NewCollector(capacity) }

// NewMetricsRegistry returns an empty metrics registry. It renders in the
// Prometheus text format (MetricsRegistry.WritePrometheus), as JSON
// (WriteJSON), or over HTTP (it implements http.Handler).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ContextWithSpan returns a context carrying the span, parenting every
// traced operation run under it: System.RequestCtx, System.AnnotateCtx and
// the Catalog's *Ctx fan-outs attach their spans as children of the span
// carried in their context, so one caller-rooted trace covers the whole
// operation. A nil span leaves ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return obs.ContextWithSpan(ctx, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.FromContext(ctx) }

// ParseXML parses an XML document into the tree model.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Document, error) { return xmltree.ParseString(s) }

// NewDocument creates a document with a fresh root element, for programmatic
// construction via Document.AddElement / Document.AddText.
func NewDocument(rootLabel string) *Document { return xmltree.NewDocument(rootLabel) }

// ParseDTD parses a Document Type Definition (bare declarations or a full
// DOCTYPE wrapper).
func ParseDTD(s string) (*Schema, error) { return dtd.Parse(s) }

// ParsePolicy parses the textual policy format:
//
//	default deny
//	conflict deny
//	rule R1 allow //patient
//	rule R3 deny //patient[treatment]
func ParsePolicy(s string) (*Policy, error) { return policy.Parse(s) }

// ParseXPath parses an expression of the paper's XPath fragment
// XP(/, //, *, []) with value comparisons.
func ParseXPath(s string) (*Path, error) { return xpath.Parse(s) }

// MustParseXPath is ParseXPath but panics on error; for expressions that
// are compile-time constants.
func MustParseXPath(s string) *Path { return xpath.MustParse(s) }

// EvalXPath evaluates an absolute expression on a document, returning the
// matched nodes in document order (no access control — this is the raw
// node-set semantics [[p]](T)).
func EvalXPath(p *Path, doc *Document) ([]*Node, error) { return xpath.Eval(p, doc) }

// Contains reports the XPath containment p ⊑ q used by the optimizer and
// the re-annotation machinery. The test is sound: a true answer guarantees
// [[p]](T) ⊆ [[q]](T) on every tree.
func Contains(p, q *Path) bool { return pattern.Contains(p, q) }

// RemoveRedundant applies the paper's Redundancy-Elimination algorithm,
// returning the reduced policy and the removed rules.
func RemoveRedundant(p *Policy) (*Policy, []Rule) { return core.RemoveRedundant(p) }

// NewMultiUser wraps one document for per-requester access control: add
// users with their own policies via MultiUser.AddUser, then serve requests
// per requester. Users with equivalent policies share one cohort (one
// accessibility map and reannotator for the whole equivalence class), and
// updates re-annotate only the cohorts whose rules trigger.
func NewMultiUser(schema *Schema, doc *Document) (*MultiUser, error) {
	return core.NewMultiUser(schema, doc)
}

// GenerateXMark produces an XMark-like auction document (the paper's
// xmlgen workload, de-recursed) of the given scale factor, deterministically
// per seed.
func GenerateXMark(opts XMarkOptions) *Document { return xmark.Generate(opts) }

// XMarkSchema returns the DTD of the generated auction documents.
func XMarkSchema() *Schema { return xmark.Schema() }
