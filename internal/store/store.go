// Package store defines the backend seam of the access-control system:
// the Engine interface captures everything the core pipeline (optimizer,
// annotator, reannotator, requester — Section 4 of the paper) needs from
// an annotation store, and the package registry maps the paper's backend
// names — the native XML store of the MonetDB/XQuery role, the relational
// column store of the MonetDB/SQL role, the relational row store of the
// PostgreSQL role — to engine constructors.
//
// The paper's central claim is that one access-control model (the Table 2
// semantics and the Figure 5 annotation queries) is enforced identically
// over native-XML and relational storage. The Engine interface is that
// claim as a type: core speaks only this interface, the two storage
// families implement it, and the golden equivalence suite drives every
// registered engine through it to verify byte-identical behavior.
//
// On top of the uniform interface, Catalog (catalog.go) routes multiple
// named documents across shards of independent engines.
package store

import (
	"context"
	"io"
	"time"

	"xmlac/internal/dtd"
	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Engine is one annotation store serving a single document: it
// materializes the '+'/'−' signs the annotator computes, answers the
// requester's access checks, and mirrors document updates. Engines are
// obtained from the registry via Open; each implementation registers
// itself under the backend names of the evaluation.
type Engine interface {
	// Name returns the canonical registered name of the engine
	// ("native", "monetsql" or "postgres").
	Name() string
	// Relational reports whether the engine is backed by the SQL store
	// (signs live in per-table s columns rather than on the tree).
	Relational() bool

	// Load installs a document: the native engine takes ownership of the
	// tree, the relational engines shred it into tables with every sign
	// initialized to the policy default (Figure 6's precondition).
	Load(doc *xmltree.Document) error

	// Annotate performs full annotation from a compiled annotation query
	// (Figure 5): reset to the default, compute the update set, flip the
	// selected signs, through the pipeline every engine shares. Stats
	// carry the per-stage phase breakdown; with a span in ctx
	// (obs.FromContext) the same stages emit a span subtree under it,
	// keeping the caller's trace connected across the seam.
	Annotate(ctx context.Context, q AnnotationQuery) (AnnotateStats, error)

	// EvalScope evaluates a node-set expression and returns the matched
	// universal ids — the re-annotation machinery's scope probe
	// (Section 5.3 observes rule scopes before and after an update).
	// A nil expression yields an empty set.
	EvalScope(e *SetExpr) (map[int64]bool, error)
	// ApplySignsWithin rewrites signs only inside the affected set:
	// members of update get sign, the rest of affected revert to the
	// default — the second phase of a partial re-annotation.
	ApplySignsWithin(affected, update map[int64]bool, sign, def xmltree.Sign) (updated, reset int, err error)

	// Request evaluates a user query and applies the paper's
	// all-or-nothing check, returning ErrAccessDenied (wrapped in a
	// DeniedError) when any matched node is inaccessible. A span in ctx
	// parents the evaluation's phase spans.
	Request(ctx context.Context, q *xpath.Path) (*RequestResult, error)
	// RawQuerier evaluates a user query with no access check, for
	// rewriting enforcement.
	RawQuerier
	// AccessibleIDs lists the currently accessible element ids.
	AccessibleIDs() (map[int64]bool, error)

	// DeleteRows removes the tuples of deleted elements, grouped by
	// element label. The tree itself is updated by the caller; the
	// native engine has nothing further to do and returns 0.
	DeleteRows(byLabel map[string][]int64) (int, error)
	// InsertSubtree mirrors a freshly inserted subtree into the store
	// with signs at the policy default (a no-op on the native engine,
	// where the inserted nodes are already on the tree).
	InsertSubtree(root *xmltree.Node) error

	// Explain returns the engine's query plan for a translated request;
	// engines without a planner return an error.
	Explain(q *xpath.Path) (string, error)

	// Begin, Commit, Rollback and InTransaction scope multi-statement
	// updates atomically. The native engine's tree updates are applied
	// by the caller, so its transaction calls are accepted no-ops and
	// InTransaction always reports false.
	Begin() error
	Commit() error
	Rollback() error
	InTransaction() bool

	// SetMetrics attaches a metrics registry (nil detaches): engines
	// feed the shared store_* series.
	SetMetrics(*obs.Registry)
	// SetSlowQueryLog logs statements slower than threshold to w; a
	// no-op on engines without a statement executor.
	SetSlowQueryLog(w io.Writer, threshold time.Duration)
}

// RawQuerier is the part of Engine the rewriting enforcer reads through:
// evaluating a user query over the *unannotated* store — no sign checks,
// no access decision — returning the raw match set in the engine
// family's native result shape (Nodes in evaluation order for the tree
// store, deduplicated ascending IDs for the relational ones).
type RawQuerier interface {
	// RawQuery evaluates q with no access checking. A span in ctx parents
	// the evaluation's phase spans, exactly as in Request.
	RawQuery(ctx context.Context, q *xpath.Path) (*RequestResult, error)
}

// Relational is the optional interface of SQL-backed engines, exposing
// the concrete database and shredding mapping for tools and tests that
// need to inspect the tables directly. Assert it on an Engine:
//
//	if r, ok := eng.(store.Relational); ok { db := r.DB() }
type Relational interface {
	// DB returns the underlying SQL database.
	DB() *sqldb.Database
	// Mapping returns the ShreX-style element→table mapping.
	Mapping() *shred.Mapping
}

// Options configure an engine at Open time.
type Options struct {
	// Schema is the document schema the relational engines shred by;
	// required for them, unused by the native engine.
	Schema *dtd.Schema
	// Default is the policy's default sign, materialized on every
	// tuple at load time and restored by sign resets.
	Default xmltree.Sign
	// Metrics is attached to the engine (see Engine.SetMetrics).
	Metrics *obs.Registry
	// Pool bounds the worker pool the engine fans independent units out
	// on (per-rule node-set queries, per-table reset and sign-update
	// phases); nil runs them in the caller, one after another.
	Pool *pool.Pool
}

// EngineLabel is the storage-family value engines use for their `engine`
// metric label: "native" for the tree store, "row"/"column"/"vector" for
// the relational layouts (vector being the column layout driven by the
// vectorized batch executor). Core uses it to label its per-engine
// latency series consistently with the engines' own store_* series.
func EngineLabel(e Engine) string {
	switch {
	case e == nil:
		return ""
	case !e.Relational():
		return "native"
	case e.Name() == "monetcol":
		return "vector"
	case e.Name() == "monetsql":
		return "column"
	default:
		return "row"
	}
}
