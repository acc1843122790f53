package store

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func init() {
	Register("postgres", openerFor("postgres", sqldb.EngineRow))
	Register("monetsql", openerFor("monetsql", sqldb.EngineColumn))
}

// relationalEngine shreds the document ShreX-style into one table per
// element type with a sign column, and runs annotation and request
// processing through translated SQL — the paper's MonetDB/SQL (column
// layout) and PostgreSQL (row layout) configurations.
type relationalEngine struct {
	name  string // canonical registered name
	db    *sqldb.Database
	m     *shred.Mapping
	def   xmltree.Sign
	pl    *pool.Pool // nil runs leaves and tables in the caller
	signs *obs.Counter
}

// Compile-time interface compliance, checked by go vet and the CI gate.
var (
	_ Engine     = (*relationalEngine)(nil)
	_ Relational = (*relationalEngine)(nil)
)

// openerFor builds the relational engine registered as name over the
// given executor.
func openerFor(name string, kind sqldb.Engine) Opener {
	return func(o Options) (Engine, error) {
		if o.Schema == nil {
			return nil, fmt.Errorf("store: relational engines require a schema to shred by")
		}
		m, err := shred.BuildMapping(o.Schema)
		if err != nil {
			return nil, err
		}
		e := &relationalEngine{name: name, db: sqldb.Open(kind), m: m, def: o.Default, pl: o.Pool}
		if o.Metrics != nil {
			e.SetMetrics(o.Metrics)
		}
		return e, nil
	}
}

func (e *relationalEngine) Name() string     { return e.name }
func (e *relationalEngine) Relational() bool { return true }

// DB implements Relational.
func (e *relationalEngine) DB() *sqldb.Database { return e.db }

// Mapping implements Relational.
func (e *relationalEngine) Mapping() *shred.Mapping { return e.m }

// Load shreds the document into the database with every sign initialized
// to the policy default (Figure 6's precondition).
func (e *relationalEngine) Load(doc *xmltree.Document) error {
	sh := shred.NewShredder(e.m)
	sh.DefaultSign = e.def
	return sh.IntoDB(e.db, doc)
}

// Annotate implements algorithm Annotate (Figure 6) as a full annotation
// (see annotate): reset every tuple's s column to the policy default,
// compute the id set S from the rule paths' translated SQL, then
// intersect each table's ids with S and update the matches.
func (e *relationalEngine) Annotate(ctx context.Context, q AnnotationQuery) (AnnotateStats, error) {
	return annotate(ctx, e, e.pl, q)
}

// resetSigns sets every tuple's s column to def. Per-table resets touch
// disjoint relations; they fan out on the pool and merge their counts
// from index-addressed slots, so the total is deterministic.
func (e *relationalEngine) resetSigns(def xmltree.Sign) (int, error) {
	tables := e.m.Tables()
	resets := make([]int, len(tables))
	err := e.pl.ForEach(len(tables), func(i int) error {
		res, err := e.db.Exec(fmt.Sprintf("UPDATE %s SET %s = '%s'", tables[i].Table, shred.SignColumn, def))
		if err != nil {
			return err
		}
		resets[i] = res.Affected
		return nil
	})
	total := 0
	for _, n := range resets {
		total += n
	}
	e.signs.Add(int64(total))
	return total, err
}

// leafIDs translates one rule path to SQL and returns the ids it selects.
func (e *relationalEngine) leafIDs(p *xpath.Path) (map[int64]bool, error) {
	sqlText, err := shred.Translate(e.m, p)
	if err != nil {
		return nil, err
	}
	return e.queryIDs(sqlText)
}

// queryIDs runs an id query and returns the id set.
func (e *relationalEngine) queryIDs(sqlText string) (map[int64]bool, error) {
	res, err := e.execIDQuery(sqlText)
	if err != nil {
		return nil, err
	}
	ids := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		ids[row[0].I] = true
	}
	return ids, nil
}

// execIDQuery runs an id query. The error prefix predates the store seam
// and is kept verbatim.
func (e *relationalEngine) execIDQuery(sqlText string) (*sqldb.Result, error) {
	res, err := e.db.Exec(sqlText)
	if err != nil {
		return nil, fmt.Errorf("core: annotation query failed: %w\nSQL: %s", err, truncateSQL(sqlText))
	}
	return res, nil
}

// writeSigns is the second phase of Figure 6: route the computed ids to
// their tables and update the matching tuples. The paper's algorithm
// updated them one statement per tuple; here each table's ids go out as
// bulk UPDATE … WHERE id IN (…) batches (the pk index resolves the IN
// list), and the per-table units fan out on the pool.
func (e *relationalEngine) writeSigns(ids map[int64]bool, sign xmltree.Sign) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	owned, err := e.routeIDs(ids)
	if err != nil {
		return 0, err
	}
	signLit := "'" + sign.String() + "'"
	counts := make([]int, len(owned))
	err = e.pl.ForEach(len(owned), func(i int) error {
		n, err := e.bulkUpdateSigns(owned[i].Table, signLit, owned[i].IDs)
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	e.signs.Add(int64(total))
	return total, err
}

// routeIDs groups ids by their owning table, tables in the mapping's
// order, so the statement sequence is stable. When the owner index does
// not know every id, all of them are routed by scanning every table.
func (e *relationalEngine) routeIDs(set map[int64]bool) ([]shred.OwnedIDs, error) {
	ids := make([]int64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	owned, unknown := e.m.GroupByOwner(ids)
	if len(unknown) > 0 {
		return e.scanOwners(ids)
	}
	return owned, nil
}

// bulkUpdateSigns sets one table's sign column for the given ids with
// batched UPDATE … WHERE id IN (…) statements, replacing the former
// one-UPDATE-per-tuple loop (the classic N+1 round-trip pattern).
func (e *relationalEngine) bulkUpdateSigns(table, signLit string, ids []int64) (int, error) {
	total := 0
	err := e.execBatches("UPDATE "+table+" SET "+shred.SignColumn+" = "+signLit+" WHERE id IN (?)", ids,
		func(res *sqldb.Result) { total += res.Affected })
	return total, err
}

// execBatches runs a template ending in "id IN (?)" over ids, 256 at a
// time, handing each batch's result to each. The template is prepared
// once; no ids, no statement.
func (e *relationalEngine) execBatches(template string, ids []int64, each func(*sqldb.Result)) error {
	const batch = 256
	if len(ids) == 0 {
		return nil
	}
	stmt, err := e.db.PrepareIn(template)
	if err != nil {
		return err
	}
	for start := 0; start < len(ids); start += batch {
		res, err := stmt.ExecInts(ids[start:min(start+batch, len(ids))])
		if err != nil {
			return err
		}
		each(res)
	}
	return nil
}

func truncateSQL(s string) string {
	if len(s) <= 400 {
		return s
	}
	return s[:400] + " …"
}

// EvalScope evaluates a node-set expression from its rule paths'
// translated SQL and returns the matched ids.
func (e *relationalEngine) EvalScope(x *SetExpr) (map[int64]bool, error) {
	return evalSet(x, e.pl, e.leafIDs)
}

// ApplySignsWithin rewrites signs inside the affected set only,
// following the two-phase discipline of Figure 6: per owning table, split
// the affected ids by target sign and write them as bulk batches. The
// owner index routes each id to its table; when it does not know them all
// (databases populated outside the shredder), every table's ids are
// scanned instead.
func (e *relationalEngine) ApplySignsWithin(affected, update map[int64]bool, sign, def xmltree.Sign) (updated, reset int, err error) {
	owned, err := e.routeIDs(affected)
	if err != nil {
		return 0, 0, err
	}
	signLit := "'" + sign.String() + "'"
	defLit := "'" + def.String() + "'"
	for _, o := range owned {
		var toSign, toDefault []int64
		for _, id := range o.IDs {
			if update[id] {
				toSign = append(toSign, id)
			} else {
				toDefault = append(toDefault, id)
			}
		}
		n, err := e.bulkUpdateSigns(o.Table, signLit, toSign)
		updated += n
		if err != nil {
			return updated, reset, err
		}
		n, err = e.bulkUpdateSigns(o.Table, defLit, toDefault)
		reset += n
		if err != nil {
			return updated, reset, err
		}
	}
	e.signs.Add(int64(updated + reset))
	return updated, reset, nil
}

// scanOwners groups ids by owning table, in the mapping's order, by
// scanning every table's ids — the reference routing, for when the owner
// index does not know them all.
func (e *relationalEngine) scanOwners(ids []int64) ([]shred.OwnedIDs, error) {
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var owned []shred.OwnedIDs
	for _, ti := range e.m.Tables() {
		res, err := e.db.Exec("SELECT id FROM " + ti.Table)
		if err != nil {
			return nil, err
		}
		var mine []int64
		for _, row := range res.Rows {
			if want[row[0].I] {
				mine = append(mine, row[0].I)
			}
		}
		if len(mine) > 0 {
			owned = append(owned, shred.OwnedIDs{Table: ti.Table, IDs: mine})
		}
	}
	return owned, nil
}

// Request evaluates a query against the annotated store: RawQuery's
// translated SQL finds the matches, and a second translation with the sign
// predicate folded into every branch (shred.TranslateAccessible) finds the
// accessible ones among them.
//
// Note that the relational store materializes all signs at annotation
// time (Figure 6 initializes every tuple to the default), so unlike the
// native store no default needs consulting here.
func (e *relationalEngine) Request(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	res, err := e.RawQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	sp := obs.Start(obs.FromContext(ctx), "check-access")
	defer sp.Finish()
	signedSQL, err := shred.TranslateAccessible(e.m, q)
	if err != nil {
		return nil, err
	}
	signed, err := e.execIDQuery(signedSQL)
	if err != nil {
		return nil, err
	}
	granted := ascendingIDs(signed)
	// One merge pass: CheckMatches walks the ascending matches in order,
	// so a cursor over the ascending granted ids decides each in turn.
	j := 0
	return CheckMatches(sp, res, func(id int64, _ *xmltree.Node) bool {
		for j < len(granted) && granted[j] < id {
			j++
		}
		return j < len(granted) && granted[j] == id
	})
}

// ascendingIDs returns the distinct ids of an id query's rows, ascending:
// sort, then compact, with no set.
func ascendingIDs(res *sqldb.Result) []int64 {
	ids := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		ids[i] = row[0].I
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// RawQuery evaluates a query against the shredded tables with no sign
// probing — the rewriting enforcer's matched-set probe (store.RawQuerier).
// The result shape matches Request's relational family: deduplicated
// universal ids, ascending.
func (e *relationalEngine) RawQuery(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	parent := obs.FromContext(ctx)
	sp := obs.Start(parent, "translate-sql")
	sqlText, err := shred.Translate(e.m, q)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	sp = obs.Start(parent, "eval-query")
	res, err := e.execIDQuery(sqlText)
	var ids []int64
	if err == nil {
		ids = ascendingIDs(res)
	}
	sp.SetAttr("matched", len(ids)).Finish()
	if err != nil {
		return nil, err
	}
	return &RequestResult{IDs: ids, Checked: len(ids)}, nil
}

// AccessibleIDs lists the accessible tuple ids of the annotated store
// (s = '+').
func (e *relationalEngine) AccessibleIDs() (map[int64]bool, error) {
	out := map[int64]bool{}
	for _, ti := range e.m.Tables() {
		res, err := e.db.Exec(fmt.Sprintf("SELECT id FROM %s WHERE %s = '+'", ti.Table, shred.SignColumn))
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			out[row[0].I] = true
		}
	}
	return out, nil
}

// DeleteRows removes the tuples of deleted nodes, batching ids per table.
func (e *relationalEngine) DeleteRows(byLabel map[string][]int64) (int, error) {
	total := 0
	for label, ids := range byLabel {
		ti := e.m.TableFor(label)
		if ti == nil {
			return total, fmt.Errorf("core: no table for element %q", label)
		}
		if err := e.execBatches("DELETE FROM "+ti.Table+" WHERE id IN (?)", ids,
			func(res *sqldb.Result) { total += res.Affected }); err != nil {
			return total, err
		}
		// Keep the id→table routing index in sync. Dropping an id is always
		// safe: a sign write that meets an unknown id routes its ids by
		// scanning every table.
		e.m.ForgetOwner(ids...)
	}
	return total, nil
}

// InsertSubtree mirrors a freshly inserted subtree into the store with
// signs at the policy default.
func (e *relationalEngine) InsertSubtree(root *xmltree.Node) error {
	sh := &shred.Shredder{Mapping: e.m, DefaultSign: e.def}
	return sh.InsertSubtree(e.db, root)
}

// Explain translates the query to SQL and returns the engine's EXPLAIN
// output — the greedy planner's access paths, join order and row counts.
func (e *relationalEngine) Explain(q *xpath.Path) (string, error) {
	sqlText, err := shred.Translate(e.m, q)
	if err != nil {
		return "", err
	}
	res, err := e.db.Exec("EXPLAIN " + sqlText)
	if err != nil {
		return "", err
	}
	var b []byte
	for i, row := range res.Rows {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, row[0].S...)
	}
	return string(b), nil
}

func (e *relationalEngine) Begin() error        { return e.db.Begin() }
func (e *relationalEngine) Commit() error       { return e.db.Commit() }
func (e *relationalEngine) Rollback() error     { return e.db.Rollback() }
func (e *relationalEngine) InTransaction() bool { return e.db.InTransaction() }

// SetMetrics attaches the registry to the underlying database (feeding
// the store_* series) plus the engine's own signs-written counter.
func (e *relationalEngine) SetMetrics(r *obs.Registry) {
	e.db.SetMetrics(r)
	if r == nil {
		e.signs = nil
		return
	}
	e.signs = r.Counter(fmt.Sprintf("store_signs_written_total{engine=%q}", EngineLabel(e)))
}

// SetSlowQueryLog forwards to the database's slow-query log.
func (e *relationalEngine) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	e.db.SetSlowQueryLog(w, threshold)
}
