package store

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func init() {
	Register("postgres", openerFor(sqldb.EngineRow))
	Register("monetsql", openerFor(sqldb.EngineColumn))
	// monetcol was an alias of monetsql while the two differed only in
	// physical layout; with the vectorized executor it is its own backend
	// (the "real MonetDB" role — typed vectors plus batch operators).
	Register("monetcol", openerFor(sqldb.EngineColumnVector))
}

// relationalEngine shreds the document ShreX-style into one table per
// element type with a sign column, and runs annotation and request
// processing through translated SQL — the paper's MonetDB/SQL (column
// layout) and PostgreSQL (row layout) configurations.
type relationalEngine struct {
	name     string // canonical registered name
	db       *sqldb.Database
	m        *shred.Mapping
	def      xmltree.Sign
	pl       *pool.Pool // nil selects the sequential reference path
	pushdown bool       // fold sign checks into translated queries
	signs    *obs.Counter
}

// Compile-time interface compliance, checked by go vet and the CI gate.
var (
	_ Engine     = (*relationalEngine)(nil)
	_ Relational = (*relationalEngine)(nil)
)

func openerFor(kind sqldb.Engine) Opener {
	return func(o Options) (Engine, error) {
		if o.Schema == nil {
			return nil, fmt.Errorf("store: relational engines require a schema to shred by")
		}
		m, err := shred.BuildMapping(o.Schema)
		if err != nil {
			return nil, err
		}
		name := "postgres"
		switch kind {
		case sqldb.EngineColumn:
			name = "monetsql"
		case sqldb.EngineColumnVector:
			name = "monetcol"
		}
		e := &relationalEngine{
			name: name, db: sqldb.Open(kind), m: m, def: o.Default, pl: o.Pool,
			// Folding the sign check into the translated query pays off on
			// the vectorized executor only; the others answer faster by
			// probing each matched id's owning table.
			pushdown: kind == sqldb.EngineColumnVector,
		}
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

// Annotate implements algorithm Annotate (Figure 6) as a full
// annotation: reset every tuple's s column to the policy default, run
// the annotation SQL to compute the id set S, then — exactly as the
// paper's two-phase algorithm does — iterate over all tables, intersect
// each table's ids with S, and issue bulk UPDATEs for the matches.
func (e *relationalEngine) Annotate(ctx context.Context, q AnnotationQuery) (AnnotateStats, error) {
	parent := obs.FromContext(ctx)
	stats := AnnotateStats{}
	defSign := "'" + q.Default.String() + "'"
	tables := e.m.Tables()
	if err := stage(parent, &stats.Phases, "reset-signs", func() error {
		// Per-table resets touch disjoint relations; fan them out and merge
		// the counts from index-addressed slots so the total is deterministic.
		resets := make([]int, len(tables))
		if err := e.pl.ForEach(len(tables), func(i int) error {
			res, err := e.db.Exec(fmt.Sprintf("UPDATE %s SET %s = %s", tables[i].Table, shred.SignColumn, defSign))
			if err != nil {
				return err
			}
			resets[i] = res.Affected
			return nil
		}); err != nil {
			return err
		}
		for _, n := range resets {
			stats.Reset += n
		}
		return nil
	}); err != nil {
		return stats, err
	}
	if q.Expr == nil {
		e.signs.Add(int64(stats.Reset))
		return stats, nil
	}
	// With a pool, the per-rule leaf queries of the compound annotation SQL
	// — independent read-only SELECTs — fan out and the UNION/EXCEPT/
	// INTERSECT operators fold over the id sets in memory, mirroring the
	// native store's EvalSetWith. Sequentially, the compound statement runs
	// as one round trip, the paper's literal shape.
	leaves := sqlLeaves(q.Expr)
	parallelSet := e.pl != nil && len(leaves) > 1
	var sqlText string
	leafSQL := make([]string, len(leaves))
	if err := stage(parent, &stats.Phases, "build-annotation-query", func() error {
		if !parallelSet {
			var err error
			sqlText, err = q.SQLText(e.m)
			return err
		}
		for i, l := range leaves {
			var err error
			if leafSQL[i], err = shred.Translate(e.m, l.Path); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return stats, err
	}
	var ids map[int64]bool
	if err := stage(parent, &stats.Phases, "compute-update-set", func() error {
		if !parallelSet {
			var err error
			ids, err = e.queryIDs(sqlText)
			return err
		}
		sets := make([]map[int64]bool, len(leaves))
		if err := e.pl.ForEach(len(leaves), func(i int) error {
			var err error
			sets[i], err = e.queryIDs(leafSQL[i])
			return err
		}); err != nil {
			return err
		}
		byLeaf := make(map[*SetExpr]map[int64]bool, len(leaves))
		for i, l := range leaves {
			byLeaf[l] = sets[i]
		}
		ids = foldIDSets(q.Expr, byLeaf)
		return nil
	}); err != nil {
		return stats, err
	}
	err := stage(parent, &stats.Phases, "apply-updates", func() error {
		n, err := e.updateSigns(ids, q.Sign)
		stats.Updated = n
		return err
	})
	e.signs.Add(int64(stats.Reset + stats.Updated))
	return stats, err
}

// sqlLeaves collects the per-rule path leaves of a set expression in
// deterministic left-to-right order.
func sqlLeaves(e *SetExpr) []*SetExpr {
	if e == nil {
		return nil
	}
	if e.Path != nil {
		return []*SetExpr{e}
	}
	return append(sqlLeaves(e.Left), sqlLeaves(e.Right)...)
}

// foldIDSets applies the set operators over the leaves' id sets. The leaf
// sets are consumed in place (each leaf occurs once in the tree), so the
// fold allocates nothing beyond what the leaf queries already returned.
func foldIDSets(e *SetExpr, byLeaf map[*SetExpr]map[int64]bool) map[int64]bool {
	if e.Path != nil {
		return byLeaf[e]
	}
	l := foldIDSets(e.Left, byLeaf)
	r := foldIDSets(e.Right, byLeaf)
	switch e.Op {
	case OpUnion:
		for id := range r {
			l[id] = true
		}
	case OpExcept:
		for id := range r {
			delete(l, id)
		}
	default: // intersect
		for id := range l {
			if !r[id] {
				delete(l, id)
			}
		}
	}
	return l
}

// queryIDs runs a compound id query and returns the id set. The error
// prefix predates the store seam and is kept verbatim.
func (e *relationalEngine) queryIDs(sqlText string) (map[int64]bool, error) {
	res, err := e.db.Exec(sqlText)
	if err != nil {
		return nil, fmt.Errorf("core: annotation query failed: %w\nSQL: %s", err, truncateSQL(sqlText))
	}
	ids := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		ids[row[0].I] = true
	}
	return ids, nil
}

// updateSigns is the second phase of Figure 6: for each table, intersect
// its ids with the computed set and update the matching tuples. The paper's
// algorithm updated them one statement per tuple; here each table's matches
// go out as bulk UPDATE … WHERE id IN (…) batches (the pk index resolves the
// IN list), and the per-table units fan out on the pool. The id set is only
// read, so sharing it across workers is safe.
func (e *relationalEngine) updateSigns(ids map[int64]bool, sign xmltree.Sign) (int, error) {
	signLit := "'" + sign.String() + "'"
	tables := e.m.Tables()
	counts := make([]int, len(tables))
	err := e.pl.ForEach(len(tables), func(i int) error {
		res, err := e.db.Exec("SELECT id FROM " + tables[i].Table)
		if err != nil {
			return err
		}
		matched := make([]int64, 0, len(res.Rows))
		for _, row := range res.Rows {
			if ids[row[0].I] {
				matched = append(matched, row[0].I)
			}
		}
		n, err := e.bulkUpdateSigns(tables[i].Table, signLit, matched)
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// bulkUpdateSigns sets one table's sign column for the given ids with
// batched UPDATE … WHERE id IN (…) statements, replacing the former
// one-UPDATE-per-tuple loop (the classic N+1 round-trip pattern).
func (e *relationalEngine) bulkUpdateSigns(table, signLit string, ids []int64) (int, error) {
	const batch = 256
	total := 0
	probe, err := e.db.PrepareIn("UPDATE " + table + " SET " + shred.SignColumn + " = " + signLit + " WHERE id IN (?)")
	if err != nil {
		return 0, err
	}
	for start := 0; start < len(ids); start += batch {
		end := start + batch
		if end > len(ids) {
			end = len(ids)
		}
		res, err := probe.ExecInts(ids[start:end])
		if err != nil {
			return total, err
		}
		total += res.Affected
	}
	return total, nil
}

func truncateSQL(s string) string {
	if len(s) <= 400 {
		return s
	}
	return s[:400] + " …"
}

// EvalScope translates a node-set expression to compound SQL and returns
// the matched ids.
func (e *relationalEngine) EvalScope(x *SetExpr) (map[int64]bool, error) {
	if x == nil {
		return map[int64]bool{}, nil
	}
	sqlText, err := setExprSQL(e.m, x)
	if err != nil {
		return nil, err
	}
	return e.queryIDs(sqlText)
}

// ApplySignsWithin rewrites signs inside the affected set only,
// following the two-phase discipline of Figure 6: per owning table, split
// the affected ids by target sign and write them as bulk batches. The
// owner index routes each id to its table; ids it does not know
// (databases populated outside the shredder) are found by scanning every
// table's ids.
func (e *relationalEngine) ApplySignsWithin(affected, update map[int64]bool, sign, def xmltree.Sign) (updated, reset int, err error) {
	ids := make([]int64, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	owned, unknown := e.m.GroupByOwner(ids)
	if len(unknown) > 0 {
		if owned == nil {
			owned = map[string][]int64{}
		}
		if err := e.scanOwners(unknown, owned); err != nil {
			return 0, 0, err
		}
	}
	// Deterministic table order keeps the statement sequence stable.
	tables := make([]string, 0, len(owned))
	for t := range owned {
		tables = append(tables, t)
	}
	slices.Sort(tables)
	signLit := "'" + sign.String() + "'"
	defLit := "'" + def.String() + "'"
	for _, t := range tables {
		var toSign, toDefault []int64
		for _, id := range owned[t] {
			if update[id] {
				toSign = append(toSign, id)
			} else {
				toDefault = append(toDefault, id)
			}
		}
		n, err := e.bulkUpdateSigns(t, signLit, toSign)
		updated += n
		if err != nil {
			return updated, reset, err
		}
		n, err = e.bulkUpdateSigns(t, defLit, toDefault)
		reset += n
		if err != nil {
			return updated, reset, err
		}
	}
	e.signs.Add(int64(updated + reset))
	return updated, reset, nil
}

// scanOwners adds each of ids to its owning table's list in owned by
// scanning every table's ids — the reference routing, for ids the owner
// index does not know.
func (e *relationalEngine) scanOwners(ids []int64, owned map[string][]int64) error {
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, ti := range e.m.Tables() {
		res, err := e.db.Exec("SELECT id FROM " + ti.Table)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			if want[row[0].I] {
				owned[ti.Table] = append(owned[ti.Table], row[0].I)
			}
		}
	}
	return nil
}

// Request evaluates a query against the annotated store: the query is
// translated to SQL, and every returned tuple's sign is checked — probed
// in the tuple's owning table, or, on the vectorized executor, by a second
// translation with the sign predicate folded in (shred.TranslateAccessible).
// Both checks are result-identical.
//
// Note that the relational store materializes all signs at annotation
// time (Figure 6 initializes every tuple to the default), so unlike the
// native store no default needs consulting here.
func (e *relationalEngine) Request(ctx context.Context, q *xpath.Path) (*RequestResult, error) {
	parent := obs.FromContext(ctx)
	sp := obs.Start(parent, "translate-sql")
	sqlText, err := shred.Translate(e.m, q)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	sp = obs.Start(parent, "eval-query")
	ids, err := e.queryIDs(sqlText)
	sp.SetAttr("matched", len(ids)).Finish()
	if err != nil {
		return nil, err
	}
	idList := make([]int64, 0, len(ids))
	for id := range ids {
		idList = append(idList, id)
	}
	slices.Sort(idList)

	sp = obs.Start(parent, "check-access")
	defer sp.Finish()
	var accessible map[int64]bool
	if e.pushdown {
		sp.SetAttr("mode", "pushdown")
		signedSQL, err := shred.TranslateAccessible(e.m, q)
		if err != nil {
			return nil, err
		}
		accessible, err = e.queryIDs(signedSQL)
		if err != nil {
			return nil, err
		}
	} else {
		sp.SetAttr("mode", "routed")
		accessible, err = e.probeSigns(idList)
		if err != nil {
			return nil, err
		}
	}
	for _, id := range idList {
		if !accessible[id] {
			sp.SetAttr("outcome", "denied")
			return nil, &DeniedError{ID: id}
		}
	}
	sp.SetAttr("outcome", "granted")
	return &RequestResult{IDs: idList, Checked: len(ids)}, nil
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
	ids, err := e.queryIDs(sqlText)
	sp.SetAttr("matched", len(ids)).Finish()
	if err != nil {
		return nil, err
	}
	idList := make([]int64, 0, len(ids))
	for id := range ids {
		idList = append(idList, id)
	}
	slices.Sort(idList)
	return &RequestResult{IDs: idList, Checked: len(ids)}, nil
}

// probeSigns probes each id's owning table only, falling back to
// probing every table for the ids the owner index does not know
// (databases populated outside the shredder); a table's probes are
// batched IN lists resolved through the primary-key index.
func (e *relationalEngine) probeSigns(idList []int64) (map[int64]bool, error) {
	owned, unknown := e.m.GroupByOwner(idList)
	accessible := map[int64]bool{}
	// Deterministic table order keeps the probe sequence stable.
	tables := make([]string, 0, len(owned))
	for t := range owned {
		tables = append(tables, t)
	}
	slices.Sort(tables)
	for _, t := range tables {
		if err := e.probeSignsTable(t, owned[t], accessible); err != nil {
			return nil, err
		}
	}
	if len(unknown) > 0 {
		for _, ti := range e.m.Tables() {
			if err := e.probeSignsTable(ti.Table, unknown, accessible); err != nil {
				return nil, err
			}
		}
	}
	return accessible, nil
}

// probeSignsTable issues the batched sign probes for one table, adding the
// accessible ids to the shared set.
func (e *relationalEngine) probeSignsTable(table string, idList []int64, accessible map[int64]bool) error {
	const batch = 256
	probe, err := e.db.PrepareIn("SELECT id FROM " + table + " WHERE " + shred.SignColumn + " = '+' AND id IN (?)")
	if err != nil {
		return err
	}
	for start := 0; start < len(idList); start += batch {
		end := start + batch
		if end > len(idList) {
			end = len(idList)
		}
		res, err := probe.ExecInts(idList[start:end])
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			accessible[row[0].I] = true
		}
	}
	return nil
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
	const batch = 256
	total := 0
	for label, ids := range byLabel {
		ti := e.m.TableFor(label)
		if ti == nil {
			return total, fmt.Errorf("core: no table for element %q", label)
		}
		for start := 0; start < len(ids); start += batch {
			end := start + batch
			if end > len(ids) {
				end = len(ids)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "DELETE FROM %s WHERE id IN (", ti.Table)
			for i, id := range ids[start:end] {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%d", id)
			}
			b.WriteString(")")
			res, err := e.db.Exec(b.String())
			if err != nil {
				return total, err
			}
			total += res.Affected
		}
		// Keep the id→table routing index in sync. Dropping an id is always
		// safe: an unknown id simply falls back to probing every table.
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
