package sqldb

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Result is the outcome of a statement: rows for queries, affected-row
// counts for DML, empty for DDL.
type Result struct {
	// Columns are the output column names of a query.
	Columns []string
	// Rows is the result relation.
	Rows [][]Value
	// Affected is the number of rows inserted, updated or deleted.
	Affected int
}

// Exec parses and executes one SQL statement, consulting the statement
// cache before parsing. When metrics or the slow-query log are attached,
// the parse and execute phases are timed and recorded per statement.
func (db *Database) Exec(src string) (*Result, error) {
	cache, m, slowLog, slowThresh := db.execState()
	if m == nil && slowLog == nil {
		st, _, err := db.parseCached(cache, src)
		if err != nil {
			return nil, err
		}
		return db.ExecStmt(st)
	}
	parseStart := time.Now()
	st, hit, err := db.parseCached(cache, src)
	parseD := time.Since(parseStart)
	if err != nil {
		db.observeStatement(m, slowLog, slowThresh, src, -1, nil, parseD, 0, err)
		return nil, err
	}
	if m != nil && cache != nil {
		if hit {
			m.planCacheHits.Inc()
		} else if cacheable(st) {
			m.planCacheMisses.Inc()
		}
		m.planCacheSize.Set(float64(cache.len()))
	}
	execStart := time.Now()
	res, err := db.ExecStmt(st)
	db.observeStatement(m, slowLog, slowThresh, src, -1, res, parseD, time.Since(execStart), err)
	return res, err
}

// parseCached resolves SQL text to an executable statement through the plan
// cache; hit reports a cached statement.
func (db *Database) parseCached(cache *planCache, src string) (Statement, bool, error) {
	if st, hit := cache.get(src); hit {
		return st, true, nil
	}
	st, err := ParseStatement(src)
	if err != nil {
		return nil, false, err
	}
	if cacheable(st) {
		cache.put(src, st)
	}
	return st, false, nil
}

// execState snapshots the per-statement configuration (cache and observer
// attachments) under the read lock, so Exec races neither SetMetrics nor
// SetPlanCacheSize.
func (db *Database) execState() (*planCache, *dbMetrics, io.Writer, time.Duration) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cache, db.m, db.slowLog, db.slowThresh
}

// ExecStmt executes a parsed statement. Statements obtained from
// ParseStatement are never mutated by execution, so the same parsed
// statement may be executed repeatedly and concurrently (which is how the
// statement cache shares ASTs).
func (db *Database) ExecStmt(st Statement) (*Result, error) {
	db.stmtCount.Add(1)
	switch s := st.(type) {
	case *CreateTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.createTable(s.Name, s.Columns, s.ForeignKeys); err != nil {
			return nil, err
		}
		db.record(undoCreateTable{name: s.Name})
		return &Result{}, nil
	case *CreateIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.createIndex(s.Name, s.Table, s.Column); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *InsertStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		t := db.tables[s.Table]
		if t == nil {
			return nil, fmt.Errorf("sqldb: unknown table %q", s.Table)
		}
		for _, row := range s.Rows {
			rid, err := t.insertRow(row)
			if err != nil {
				return nil, err
			}
			db.record(undoInsert{table: s.Table, rid: rid})
		}
		return &Result{Affected: len(s.Rows)}, nil
	case *Query:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execQuery(s, nil)
	case *ExplainStmt:
		return db.explain(s)
	case *BeginStmt:
		return &Result{}, db.Begin()
	case *CommitStmt:
		return &Result{}, db.Commit()
	case *RollbackStmt:
		return &Result{}, db.Rollback()
	case *UpdateStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execUpdate(s)
	case *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDelete(s)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

// ExecScript executes a ';'-separated sequence of statements (e.g. the SQL
// INSERT file produced by the shredder) and returns how many ran. This is
// the relational loading path of the evaluation: every statement goes
// through the full parse/plan/execute pipeline, like the paper's INSERT
// stream.
func (db *Database) ExecScript(src string) (int, error) {
	n := 0
	for _, stmt := range SplitStatements(src) {
		if _, err := db.Exec(stmt); err != nil {
			return n, fmt.Errorf("statement %d: %w", n+1, err)
		}
		n++
	}
	return n, nil
}

// SplitStatements splits SQL text on ';' boundaries, honoring string
// literals and line comments. Empty statements are dropped.
func SplitStatements(src string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inStr:
			b.WriteByte(c)
			if c == '\'' {
				if i+1 < len(src) && src[i+1] == '\'' {
					b.WriteByte('\'')
					i++
				} else {
					inStr = false
				}
			}
		case c == '\'':
			inStr = true
			b.WriteByte(c)
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			b.WriteByte('\n')
		case c == ';':
			if s := strings.TrimSpace(b.String()); s != "" {
				out = append(out, s)
			}
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// --- query execution ---

// binding maps each FROM alias to its position and table.
type binding struct {
	items  []FromItem
	tables []*Table
	pos    map[string]int
}

func (db *Database) bind(from []FromItem) (*binding, error) {
	b := &binding{pos: map[string]int{}}
	for _, f := range from {
		t := db.tables[f.Table]
		if t == nil {
			return nil, fmt.Errorf("sqldb: unknown table %q", f.Table)
		}
		if _, dup := b.pos[f.Alias]; dup {
			return nil, fmt.Errorf("sqldb: duplicate alias %q", f.Alias)
		}
		b.pos[f.Alias] = len(b.items)
		b.items = append(b.items, f)
		b.tables = append(b.tables, t)
	}
	return b, nil
}

// resolve locates a column reference; unqualified names must be unambiguous.
func (b *binding) resolve(c ColRef) (aliasIdx, colIdx int, err error) {
	if c.Alias != "" {
		i, ok := b.pos[c.Alias]
		if !ok {
			return 0, 0, fmt.Errorf("sqldb: unknown alias %q", c.Alias)
		}
		j := b.tables[i].ColumnIndex(c.Column)
		if j < 0 {
			return 0, 0, fmt.Errorf("sqldb: table %q has no column %q", b.items[i].Table, c.Column)
		}
		return i, j, nil
	}
	found := -1
	for i, t := range b.tables {
		if j := t.ColumnIndex(c.Column); j >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %q", c.Column)
			}
			found = i
			colIdx = j
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqldb: unknown column %q", c.Column)
	}
	return found, colIdx, nil
}

// planPred is a resolved predicate.
type planPred struct {
	src Predicate
	// leftAlias/leftCol resolved when the left operand is a column, else -1.
	leftAlias, leftCol   int
	rightAlias, rightCol int
	applied              bool
}

func (db *Database) execQuery(q *Query, rec *planRec) (*Result, error) {
	res, hidden, err := db.execWithSortColumns(q, rec)
	if err != nil {
		return nil, err
	}
	if err := applyOrder(res, q.OrderBy); err != nil {
		return nil, err
	}
	if hidden > 0 {
		// Strip the hidden sort columns appended by execWithSortColumns.
		res.Columns = res.Columns[:len(res.Columns)-hidden]
		for i, row := range res.Rows {
			res.Rows[i] = row[:len(row)-hidden]
		}
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// execWithSortColumns executes the query body; for a simple SELECT whose
// ORDER BY names columns outside the projection (SQL allows this), the
// missing columns are appended as hidden projection columns so the sort can
// see them. It returns how many were appended. DISTINCT queries cannot be
// augmented (hidden columns would change the duplicate elimination), nor
// can compound queries — there ORDER BY must name output columns.
func (db *Database) execWithSortColumns(q *Query, rec *planRec) (*Result, int, error) {
	if q.Simple == nil || len(q.OrderBy) == 0 || q.Simple.Star || q.Simple.CountStar || q.Simple.Distinct {
		res, err := db.execQueryBody(q, rec)
		return res, 0, err
	}
	outNames := make([]string, len(q.Simple.Columns))
	for i, c := range q.Simple.Columns {
		outNames[i] = c.String()
	}
	var extras []ColRef
	for _, k := range q.OrderBy {
		if k.Position > 0 {
			continue
		}
		if _, err := resolveOrderColumn(outNames, k); err == nil {
			continue
		}
		extras = append(extras, parseOrderColRef(k.Column))
		outNames = append(outNames, k.Column)
	}
	if len(extras) == 0 {
		res, err := db.execQueryBody(q, rec)
		return res, 0, err
	}
	aug := *q.Simple
	aug.Columns = append(append([]ColRef{}, q.Simple.Columns...), extras...)
	res, err := db.execSelect(&aug, rec)
	if err != nil {
		return nil, 0, err
	}
	return res, len(extras), nil
}

// parseOrderColRef splits an "alias.col" order key back into a ColRef.
func parseOrderColRef(name string) ColRef {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return ColRef{Alias: name[:i], Column: name[i+1:]}
	}
	return ColRef{Column: name}
}

// applyOrder sorts result rows by the ORDER BY keys (stable, so ties keep
// their prior order). Keys reference output columns by position or name;
// an unqualified name also matches qualified output columns ("p.id").
func applyOrder(res *Result, keys []OrderItem) error {
	if len(keys) == 0 {
		return nil
	}
	cols := make([]int, len(keys))
	for i, k := range keys {
		idx, err := resolveOrderColumn(res.Columns, k)
		if err != nil {
			return err
		}
		cols[i] = idx
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, c := range cols {
			va, vb := res.Rows[a][c], res.Rows[b][c]
			cmp, ok := compareForSort(va, vb)
			if !ok || cmp == 0 {
				continue
			}
			if keys[i].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return nil
}

// resolveOrderColumn locates an ORDER BY key among output column names; an
// unqualified name also matches qualified columns ("p.id").
func resolveOrderColumn(columns []string, k OrderItem) (int, error) {
	if k.Position > 0 {
		if k.Position > len(columns) {
			return 0, fmt.Errorf("sqldb: ORDER BY position %d out of range (%d columns)", k.Position, len(columns))
		}
		return k.Position - 1, nil
	}
	idx := -1
	for j, name := range columns {
		if name == k.Column || strings.HasSuffix(name, "."+k.Column) {
			if idx >= 0 {
				return 0, fmt.Errorf("sqldb: ambiguous ORDER BY column %q", k.Column)
			}
			idx = j
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("sqldb: unknown ORDER BY column %q", k.Column)
	}
	return idx, nil
}

// compareForSort orders values with NULLs first and incomparable kinds by
// kind, giving a total deterministic order.
func compareForSort(a, b Value) (int, bool) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, true
	case a.IsNull():
		return -1, true
	case b.IsNull():
		return 1, true
	}
	if c, ok := a.compare(b); ok {
		return c, true
	}
	// Different, incomparable kinds: ints before text.
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind), true
	}
	return 0, true
}

func (db *Database) execQueryBody(q *Query, rec *planRec) (*Result, error) {
	if q.Simple != nil {
		return db.execSelect(q.Simple, rec)
	}
	if q.Op == OpUnion {
		return db.execUnion(q, rec)
	}
	// Children go through execQuery so parenthesized sub-queries honor
	// their own ORDER BY / LIMIT clauses.
	rec.linef("%s", q.Op)
	rec.push()
	left, err := db.execQuery(q.Left, rec)
	if err != nil {
		return nil, err
	}
	right, err := db.execQuery(q.Right, rec)
	if err != nil {
		return nil, err
	}
	rec.pop()
	if len(left.Columns) != len(right.Columns) {
		return nil, fmt.Errorf("sqldb: %s operands have %d and %d columns",
			q.Op, len(left.Columns), len(right.Columns))
	}
	// Set semantics: keep each left row whose membership in the right side
	// is what the operator asks for (absent for EXCEPT, present for
	// INTERSECT), once. Single int-column operands are keyed by an int64
	// set instead of a formatted string per row, on every engine.
	ints := singleIntColumn(left.Rows) && singleIntColumn(right.Rows)
	in, seen := newRowSet(ints, len(right.Rows)), newRowSet(ints, len(left.Rows))
	for _, r := range right.Rows {
		in.add(r)
	}
	out := &Result{Columns: left.Columns}
	for _, r := range left.Rows {
		if in.has(r) == (q.Op == OpIntersect) && seen.add(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	if ints {
		db.noteVector(len(left.Rows) + len(right.Rows))
	}
	return out, nil
}

// unionOperands appends the operands of a UNION chain in order. A UNION
// child with no ORDER BY or LIMIT of its own contributes its operands;
// any other child is one operand.
func unionOperands(q *Query, ops []*Query) []*Query {
	if q.Simple == nil && q.Op == OpUnion && len(q.OrderBy) == 0 && q.Limit < 0 {
		return unionOperands(q.Right, unionOperands(q.Left, ops))
	}
	return append(ops, q)
}

// execUnion evaluates a UNION chain in one pass: each operand runs once,
// and the output keeps the first occurrence of each row in operand order.
// That is the rows, in the order, that folding the parsed tree pairwise
// gives, with one set for the chain instead of one per binary node. When
// every operand is a single int column (the translated id queries) the set
// holds int64s, on every engine.
func (db *Database) execUnion(q *Query, rec *planRec) (*Result, error) {
	ops := unionOperands(q.Right, unionOperands(q.Left, nil))
	rec.linef("%s", OpUnion)
	rec.push()
	results := make([]*Result, len(ops))
	total, ints := 0, true
	for i, op := range ops {
		res, err := db.execQuery(op, rec)
		if err != nil {
			return nil, err
		}
		if i > 0 && len(res.Columns) != len(results[0].Columns) {
			return nil, fmt.Errorf("sqldb: %s operands have %d and %d columns",
				OpUnion, len(results[0].Columns), len(res.Columns))
		}
		results[i] = res
		total += len(res.Rows)
		ints = ints && singleIntColumn(res.Rows)
	}
	rec.pop()
	out := &Result{Columns: results[0].Columns}
	if total > 0 {
		// The first row is always kept, so an empty result stays nil.
		out.Rows = make([][]Value, 0, total)
	}
	seen := newRowSet(ints, total)
	for _, res := range results {
		for _, r := range res.Rows {
			if seen.add(r) {
				out.Rows = append(out.Rows, r)
			}
		}
	}
	if ints {
		db.noteVector(total)
	}
	return out, nil
}

// rowSet is a set of rows under set semantics.
type rowSet interface {
	// add inserts the row and reports whether it was new.
	add(row []Value) bool
	has(row []Value) bool
}

// newRowSet sizes a set for n rows: an intSet when every row is a single
// int-or-NULL cell, else a keySet.
func newRowSet(ints bool, n int) rowSet {
	if ints {
		return &intSet{ints: make(map[int64]struct{}, n)}
	}
	return make(keySet, n)
}

// keySet keys a row by its cells' keys, joined.
type keySet map[string]struct{}

func rowKey(row []Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.key())
	}
	return b.String()
}

func (s keySet) add(row []Value) bool {
	k := rowKey(row)
	if _, dup := s[k]; dup {
		return false
	}
	s[k] = struct{}{}
	return true
}

func (s keySet) has(row []Value) bool {
	_, ok := s[rowKey(row)]
	return ok
}

// singleIntColumn reports whether every row is a single int-or-NULL cell —
// the shape intSet holds.
func singleIntColumn(rows [][]Value) bool {
	for _, r := range rows {
		if len(r) != 1 || (r[0].Kind != KindInt && r[0].Kind != KindNull) {
			return false
		}
	}
	return true
}

// intSet holds single int-or-NULL cells: int64 membership, with the lone
// possible NULL tracked as a flag. Equality matches keySet exactly: a
// single-column key is "\x00N" for NULL or "\x00I" + itoa(v), both
// bijective with the cell.
type intSet struct {
	ints map[int64]struct{}
	null bool
}

func (s *intSet) add(r []Value) bool {
	if s.has(r) {
		return false
	}
	if r[0].Kind == KindNull {
		s.null = true
	} else {
		s.ints[r[0].I] = struct{}{}
	}
	return true
}

func (s *intSet) has(r []Value) bool {
	if r[0].Kind == KindNull {
		return s.null
	}
	_, ok := s.ints[r[0].I]
	return ok
}

func (db *Database) execSelect(s *SelectStmt, rec *planRec) (*Result, error) {
	var planStart time.Time
	if db.m != nil {
		planStart = time.Now()
	}
	b, err := db.bind(s.From)
	if err != nil {
		return nil, err
	}
	preds := make([]*planPred, 0, len(s.Where))
	for _, pr := range s.Where {
		pp := &planPred{src: pr, leftAlias: -1, leftCol: -1, rightAlias: -1, rightCol: -1}
		if pr.Left.IsCol {
			pp.leftAlias, pp.leftCol, err = b.resolve(pr.Left.Col)
			if err != nil {
				return nil, err
			}
		}
		if pr.In == nil && pr.Right.IsCol {
			pp.rightAlias, pp.rightCol, err = b.resolve(pr.Right.Col)
			if err != nil {
				return nil, err
			}
		}
		preds = append(preds, pp)
	}
	if db.m != nil {
		db.m.planSeconds.ObserveDuration(time.Since(planStart))
	}
	tuples, err := db.joinPlan(b, preds, rec, db.scanPlan(s, b, preds))
	if err != nil {
		return nil, err
	}

	// Projection. Every result row is carved from one arena. On the column
	// engine named columns read straight off the typed vectors (no
	// interface call per cell); elsewhere, and for SELECT *, cells come
	// through store.get.
	n := len(b.items)
	count := len(tuples) / n
	out := &Result{}
	if s.CountStar {
		out.Columns = []string{"count"}
		out.Rows = [][]Value{{NewInt(int64(count))}}
		return out, nil
	}
	type proj struct {
		alias, col int
		vc         *vcol // the typed vector, nil when read through store.get
	}
	var projs []proj
	if s.Star {
		for i, t := range b.tables {
			for j, c := range t.Columns {
				projs = append(projs, proj{alias: i, col: j})
				out.Columns = append(out.Columns, b.items[i].Alias+"."+c.Name)
			}
		}
	}
	for _, c := range s.Columns { // empty under SELECT *
		ai, ci, err := b.resolve(c)
		if err != nil {
			return nil, err
		}
		pj := proj{alias: ai, col: ci}
		if vs := b.tables[ai].vectors(); vs != nil {
			pj.vc = &vs.cols[ci]
		}
		projs = append(projs, pj)
		out.Columns = append(out.Columns, c.String())
	}
	if count > 0 {
		w := len(projs)
		arena := make([]Value, count*w)
		out.Rows = make([][]Value, count)
		for i := range out.Rows {
			tu := tuples[i*n : i*n+n]
			row := arena[i*w : i*w+w : i*w+w]
			for k, pj := range projs {
				if pj.vc != nil {
					row[k] = pj.vc.get(tu[pj.alias])
				} else {
					row[k] = b.tables[pj.alias].store.get(tu[pj.alias], pj.col)
				}
			}
			out.Rows[i] = row
		}
		if !s.Star {
			db.noteVector(count)
		}
	}
	if s.Distinct {
		seen := newRowSet(singleIntColumn(out.Rows), len(out.Rows))
		kept := out.Rows[:0]
		for _, r := range out.Rows {
			if seen.add(r) {
				kept = append(kept, r)
			}
		}
		out.Rows = kept
	}
	return out, nil
}

// scanPlan reports whether EXPLAIN lists a SELECT as its base scan alone:
// one vector table, named columns, and every predicate a literal filter on
// that table. The scan applies every such filter but a primary-key literal
// that does not coerce, which matches nothing and is applied unlisted.
func (db *Database) scanPlan(s *SelectStmt, b *binding, preds []*planPred) bool {
	if len(b.items) != 1 || s.Star || b.tables[0].vectors() == nil {
		return false
	}
	for _, pp := range preds {
		if pp.leftAlias != 0 || (pp.src.In == nil && pp.src.Right.IsCol) {
			return false
		}
	}
	return true
}

// joinPlan materializes the join of all FROM items as rid tuples, using
// greedy hash joins over equality predicates, with base-table filter
// pushdown and primary-key point lookups. The relation is flat: tuple i
// is tuples[i*n : i*n+n] for n FROM items, so each join step allocates one
// array. With one FROM item a tuple is its rid, and the base scan's rid
// list is the relation.
//
// With scanPlan set (see Database.scanPlan), the start relation's leftover
// filter is applied without an EXPLAIN line.
func (db *Database) joinPlan(b *binding, preds []*planPred, rec *planRec, scanPlan bool) ([]int, error) {
	n := len(b.items)
	// Base rid lists with single-alias predicates pushed down.
	base := make([][]int, n)
	for i := range b.items {
		rids, desc, err := db.baseScan(b, i, preds)
		if err != nil {
			return nil, err
		}
		base[i] = rids
		rec.linef("scan %s (%s): %s → %d rows", b.items[i].Alias, b.items[i].Table, desc, len(rids))
	}

	bound := make([]bool, n)
	order := make([]int, 0, n)
	// Start from the smallest filtered relation.
	start := 0
	for i := 1; i < n; i++ {
		if len(base[i]) < len(base[start]) {
			start = i
		}
	}
	bound[start] = true
	order = append(order, start)
	tuples := base[start]
	if n > 1 {
		tuples = make([]int, len(base[start])*n)
		for k := range tuples {
			tuples[k] = -1
		}
		for i, rid := range base[start] {
			tuples[i*n+start] = rid
		}
		rec.linef("join: start %s → %d tuples", b.items[start].Alias, len(base[start]))
	}
	startRec := rec
	if scanPlan {
		startRec = nil
	}
	tuples = applyReadyPreds(b, preds, bound, tuples, startRec)

	for len(order) < n {
		// Choose the next unbound alias that shares an unapplied equi-join
		// predicate with the bound set; fall back to the smallest unbound
		// relation (cross product).
		next := -1
		var joinOn []*planPred
		for i := 0; i < n; i++ {
			if bound[i] {
				continue
			}
			var on []*planPred
			for _, pp := range preds {
				if pp.applied || pp.src.In != nil || pp.src.Op != CmpEq {
					continue
				}
				if pp.leftAlias < 0 || pp.rightAlias < 0 {
					continue
				}
				la, ra := pp.leftAlias, pp.rightAlias
				if (la == i && bound[ra]) || (ra == i && bound[la]) {
					on = append(on, pp)
				}
			}
			if len(on) > 0 {
				if next < 0 || len(base[i]) < len(base[next]) {
					next = i
					joinOn = on
				}
			}
		}
		if next < 0 {
			for i := 0; i < n; i++ {
				if !bound[i] {
					if next < 0 || len(base[i]) < len(base[next]) {
						next = i
					}
				}
			}
			joinOn = nil
		}
		tuples = db.hashJoin(b, tuples, base[next], next, joinOn)
		if len(joinOn) > 0 {
			rec.linef("join: hash %s on %s → %d tuples", b.items[next].Alias, predNames(joinOn), len(tuples)/n)
		} else {
			rec.linef("join: cross %s → %d tuples", b.items[next].Alias, len(tuples)/n)
		}
		if db.m != nil {
			db.m.joinTuples.Add(int64(len(tuples) / n))
		}
		bound[next] = true
		order = append(order, next)
		for _, pp := range joinOn {
			pp.applied = true
		}
		tuples = applyReadyPreds(b, preds, bound, tuples, rec)
	}
	if rec != nil && n > 1 {
		names := make([]string, n)
		for i, a := range order {
			names[i] = b.items[a].Alias
		}
		rec.linef("join order: %s", strings.Join(names, ", "))
	}
	return tuples, nil
}

// baseScan returns the rids of one relation with its single-alias predicates
// applied, plus a description of the access path chosen for plan output.
// A primary-key equality against a literal becomes an index point lookup; a
// single-column filter uses the engine's column scan path. The list is the
// caller's to reorder or compact: it is never an index bucket.
func (db *Database) baseScan(b *binding, alias int, preds []*planPred) ([]int, string, error) {
	rids, desc, scanned, err := db.baseScanPath(b, alias, preds)
	if err == nil && db.m != nil {
		db.m.rowsScanned.Add(int64(scanned))
	}
	return rids, desc, err
}

// scanTag is the EXPLAIN annotation naming which executor scans (and
// refines index results for) a table: the vectorized batch executor on
// the column store's typed vectors, or the row-at-a-time executor on the
// row store.
func (t *Table) scanTag() string {
	if t.vectors() != nil {
		return " [scan=vector]"
	}
	return " [scan=row]"
}

// vectors returns the table's typed-vector store, or nil on the row store.
func (t *Table) vectors() *vecStore {
	vs, _ := t.store.(*vecStore)
	return vs
}

// pkInLookup resolves an IN list through the primary-key index: every live
// row it names, once, in IN-list order.
func (t *Table) pkInLookup(in []Value) []int {
	rids := make([]int, 0, len(in))
	for _, v := range in {
		cv, err := coerce(v, t.Columns[t.pkCol].Type)
		if err != nil {
			continue // untypable key matches nothing
		}
		if rid, ok := t.pkIndex.lookup(cv); ok && t.store.live(rid) {
			rids = append(rids, rid)
		}
	}
	return firstOccurrences(rids)
}

// firstOccurrences drops, in place, every repeat of a rid after its first
// occurrence. A batch's keys usually arrive ascending, and a strictly
// ascending list has no repeats, which one pass shows; any other list is
// checked against a sorted copy.
func firstOccurrences(rids []int) []int {
	ascending := true
	for i := 1; i < len(rids) && ascending; i++ {
		ascending = rids[i-1] < rids[i]
	}
	if ascending {
		return rids
	}
	sorted := slices.Clone(rids)
	slices.Sort(sorted)
	kept := make([]bool, len(sorted))
	out := rids[:0]
	for _, rid := range rids {
		if i, _ := slices.BinarySearch(sorted, rid); !kept[i] {
			kept[i] = true
			out = append(out, rid)
		}
	}
	return out
}

// baseScanPath chooses and runs the access path; scanned is how many rows
// (or index keys) were examined, which the metrics layer accumulates.
func (db *Database) baseScanPath(b *binding, alias int, preds []*planPred) (rids []int, desc string, scanned int, err error) {
	t := b.tables[alias]
	// Collect local predicates: left column on this alias, right a literal
	// (or IN list).
	var local []*planPred
	for _, pp := range preds {
		if pp.leftAlias == alias && (pp.src.In != nil || !pp.src.Right.IsCol) {
			local = append(local, pp)
		}
	}
	// IN-list lookup via primary key index.
	for _, pp := range local {
		if pp.src.In != nil && t.pkCol == pp.leftCol && t.pkIndex != nil {
			rids = t.pkInLookup(pp.src.In)
			pp.applied = true
			desc = fmt.Sprintf("pk index IN-lookup (%d keys)%s", len(pp.src.In), t.scanTag())
			return db.filterRids(t, rids, local, pp), desc, len(pp.src.In), nil
		}
	}
	// Point lookup via primary key index.
	for _, pp := range local {
		if pp.src.In == nil && pp.src.Op == CmpEq && t.pkCol == pp.leftCol && t.pkIndex != nil {
			desc = "pk index point lookup" + t.scanTag()
			lit, err := coerce(pp.src.Right.Lit, t.Columns[t.pkCol].Type)
			if err != nil {
				return nil, desc, 0, nil //nolint:nilerr // untypable key matches nothing
			}
			pp.applied = true
			rid, ok := t.pkIndex.lookup(lit)
			if ok && t.store.live(rid) {
				rids = []int{rid}
			}
			// Remaining local predicates still apply.
			return db.filterRids(t, rids, local, pp), desc, 1, nil
		}
	}
	// Equality against a constant through a registered secondary index.
	// Several local equalities may each have an index (e.g. a pushdown
	// query's s = '+' next to a v = literal); probe every candidate's bucket
	// and drive the scan from the most selective one — the bucket sizes are
	// exact row counts, so this is true (not estimated) selectivity.
	var bestEq *planPred
	var bestRids []int
	for _, pp := range local {
		if pp.src.In == nil && pp.src.Op == CmpEq {
			ix := t.secondaryFor(pp.leftCol)
			if ix == nil {
				continue
			}
			lit, err := coerce(pp.src.Right.Lit, t.Columns[pp.leftCol].Type)
			if err != nil {
				continue
			}
			bucket := ix.lookup(lit)
			cand := make([]int, 0, len(bucket))
			for _, rid := range bucket {
				if t.store.live(rid) {
					cand = append(cand, rid)
				}
			}
			if bestEq == nil || len(cand) < len(bestRids) {
				bestEq, bestRids = pp, cand
			}
		}
	}
	if bestEq != nil {
		bestEq.applied = true
		desc = fmt.Sprintf("secondary index on %s%s", t.Columns[bestEq.leftCol].Name, t.scanTag())
		return db.filterRids(t, bestRids, local, bestEq), desc, len(bestRids), nil
	}
	// IN-list lookup through a registered secondary index.
	for _, pp := range local {
		if pp.src.In == nil {
			continue
		}
		ix := t.secondaryFor(pp.leftCol)
		if ix == nil {
			continue
		}
		for _, v := range pp.src.In {
			cv, err := coerce(v, t.Columns[pp.leftCol].Type)
			if err != nil {
				continue // untypable key matches nothing
			}
			for _, rid := range ix.lookup(cv) {
				if t.store.live(rid) {
					rids = append(rids, rid)
				}
			}
		}
		pp.applied = true
		desc = fmt.Sprintf("secondary index IN-lookup on %s (%d keys)%s", t.Columns[pp.leftCol].Name, len(pp.src.In), t.scanTag())
		return db.filterRids(t, firstOccurrences(rids), local, pp), desc, len(pp.src.In), nil
	}
	// Table scan. The vectorized path runs the first predicate as a
	// full-column filter over the typed vector, producing a selection
	// vector that the remaining predicates narrow batch-at-a-time; the
	// row path walks the store row at a time through the interface.
	if vs := t.vectors(); vs != nil {
		rids, desc = db.vectorScan(t, vs, local)
		for _, pp := range local {
			pp.applied = true
		}
		return rids, desc, t.RowCount(), nil
	}
	if len(local) == 1 && local[0].src.In == nil {
		// Single-column filter: use the engine's column scan.
		pp := local[0]
		t.store.scanColumn(pp.leftCol, func(rid int, v Value) bool {
			if v.Compare(pp.src.Op, pp.src.Right.Lit) {
				rids = append(rids, rid)
			}
			return true
		})
		pp.applied = true
		desc = fmt.Sprintf("column scan on %s [scan=row]", t.Columns[pp.leftCol].Name)
		return rids, desc, t.RowCount(), nil
	}
	if len(local) == 0 {
		rids = make([]int, 0, t.RowCount())
	}
	t.store.scan(func(rid int) bool {
		ok := true
		for _, pp := range local {
			if !evalLocal(t, rid, pp) {
				ok = false
				break
			}
		}
		if ok {
			rids = append(rids, rid)
		}
		return true
	})
	for _, pp := range local {
		pp.applied = true
	}
	if len(local) > 0 {
		desc = fmt.Sprintf("full scan (%d filters) [scan=row]", len(local))
	} else {
		desc = "full scan [scan=row]"
	}
	return rids, desc, t.RowCount(), nil
}

// vectorScan is the planner's vectorized table-scan operator: the first
// predicate filters the whole typed column into a selection vector, and
// each further predicate refines the selection in place.
func (db *Database) vectorScan(t *Table, vs *vecStore, local []*planPred) (rids []int, desc string) {
	if len(local) == 0 {
		rids = vs.liveRids()
		db.noteVector(len(rids))
		return rids, "full scan [scan=vector]"
	}
	processed := 0
	pp := local[0]
	var n int
	if pp.src.In != nil {
		rids, n = vs.filterIn(pp.leftCol, pp.src.In)
	} else {
		rids, n = vs.filterColumn(pp.leftCol, pp.src.Op, pp.src.Right.Lit)
	}
	processed += n
	for _, pp := range local[1:] {
		if pp.src.In != nil {
			rids, n = vs.refineIn(rids, pp.leftCol, pp.src.In)
		} else {
			rids, n = vs.refineColumn(rids, pp.leftCol, pp.src.Op, pp.src.Right.Lit)
		}
		processed += n
	}
	db.noteVector(processed)
	if len(local) == 1 && local[0].src.In == nil {
		return rids, fmt.Sprintf("column scan on %s [scan=vector]", t.Columns[local[0].leftCol].Name)
	}
	return rids, fmt.Sprintf("full scan (%d filters) [scan=vector]", len(local))
}

// filterRids applies the residual local predicates to an index lookup's
// rid list, compacting it in place: every caller passes a list it built,
// never an index bucket. On a vectorized table the residual predicates
// refine the list as a selection vector; otherwise each rid is checked row
// at a time.
func (db *Database) filterRids(t *Table, rids []int, local []*planPred, skip *planPred) []int {
	residual := len(local)
	if skip != nil {
		residual--
	}
	if vs := t.vectors(); vs != nil && residual > 0 && len(rids) > 0 {
		processed := 0
		for _, pp := range local {
			if pp == skip {
				continue
			}
			var n int
			if pp.src.In != nil {
				rids, n = vs.refineIn(rids, pp.leftCol, pp.src.In)
			} else {
				rids, n = vs.refineColumn(rids, pp.leftCol, pp.src.Op, pp.src.Right.Lit)
			}
			processed += n
		}
		db.noteVector(processed)
	} else if residual > 0 {
		out := rids[:0]
		for _, rid := range rids {
			ok := true
			for _, pp := range local {
				if pp != skip && !evalLocal(t, rid, pp) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, rid)
			}
		}
		rids = out
	}
	for _, pp := range local {
		pp.applied = true
	}
	return rids
}

func evalLocal(t *Table, rid int, pp *planPred) bool {
	v := t.store.get(rid, pp.leftCol)
	if pp.src.In != nil {
		for _, want := range pp.src.In {
			if v.Compare(CmpEq, want) {
				return true
			}
		}
		return false
	}
	return v.Compare(pp.src.Op, pp.src.Right.Lit)
}

// hashJoin joins the current tuples with relation `next` on the given
// equality predicates (nil means cross product). The output keeps probe
// order, then build-rid order, and is allocated once.
func (db *Database) hashJoin(b *binding, tuples []int, rids []int, next int, on []*planPred) []int {
	n := len(b.items)
	if len(on) == 0 {
		out := make([]int, 0, len(tuples)*len(rids))
		for i := 0; i < len(tuples); i += n {
			for _, rid := range rids {
				out = append(out, tuples[i:i+n]...)
				out[len(out)-n+next] = rid
			}
		}
		return out
	}
	// Build side: hash the new relation on its join columns.
	t := b.tables[next]
	newCols := make([]int, len(on))
	boundSide := make([]joinCol, len(on))
	for k, pp := range on {
		if pp.leftAlias == next {
			newCols[k] = pp.leftCol
			boundSide[k] = joinCol{pp.rightAlias, pp.rightCol}
		} else {
			newCols[k] = pp.rightCol
			boundSide[k] = joinCol{pp.leftAlias, pp.leftCol}
		}
	}
	if len(on) == 1 {
		if out, ok := db.intHashJoin(b, tuples, rids, next, newCols[0], boundSide[0]); ok {
			return out
		}
	}
	build := make(map[string][]int, len(rids))
	var kb []byte
	for _, rid := range rids {
		kb = kb[:0]
		for _, c := range newCols {
			kb = append(kb, t.store.get(rid, c).key()...)
		}
		build[string(kb)] = append(build[string(kb)], rid)
	}
	// Probe once per tuple, keeping its bucket, so the output is sized
	// before it is written.
	hits := make([][]int, len(tuples)/n)
	total := 0
	for i := range hits {
		kb = kb[:0]
		null := false
		for _, bs := range boundSide {
			v := b.tables[bs.alias].store.get(tuples[i*n+bs.alias], bs.col)
			if v.IsNull() {
				null = true
				break
			}
			kb = append(kb, v.key()...)
		}
		if null {
			continue // NULL never joins
		}
		hits[i] = build[string(kb)]
		total += len(hits[i])
	}
	out := make([]int, 0, total*n)
	for i, hit := range hits {
		for _, rid := range hit {
			out = append(out, tuples[i*n:i*n+n]...)
			out[len(out)-n+next] = rid
		}
	}
	return out
}

// joinCol is a bound column of an equi-join: its FROM position and column.
type joinCol struct{ alias, col int }

// intKeys reads one join column as int64 keys: straight off the typed
// vector when the table has one, through store.get otherwise.
type intKeys struct {
	st    store
	col   int
	vals  []int64
	nulls []bool
	vec   bool
}

func (db *Database) intKeysOf(t *Table, col int) intKeys {
	k := intKeys{st: t.store, col: col}
	if vs := t.vectors(); vs != nil {
		k.vals, k.nulls, k.vec = vs.intColumn(col)
	}
	return k
}

// key returns the cell at rid; null reports NULL, and ok is false for a
// value that is neither an int nor NULL.
func (k *intKeys) key(rid int) (v int64, null, ok bool) {
	if k.vec {
		return k.vals[rid], k.nulls[rid], true
	}
	switch c := k.st.get(rid, k.col); c.Kind {
	case KindInt:
		return c.I, false, true
	case KindNull:
		return 0, true, true
	}
	return 0, false, false
}

// intHashJoin is hashJoin's single-column equi-join between int values on
// every engine — the shredder's pid = id chains, which is nearly every
// join this executor sees. It hashes the raw int64 instead of a formatted
// string key, into a flat build table: open addressing (linear probing)
// into a power-of-two slot array, with the rids of equal keys threaded
// through a parallel chain array. The arrays come from a pool, so
// steady-state joins allocate only their output. ok is false, leaving the
// string-key join to run, when a value on either side is neither an int
// nor NULL.
func (db *Database) intHashJoin(b *binding, tuples, rids []int, next, newCol int, bs joinCol) ([]int, bool) {
	n := len(b.items)
	count := len(tuples) / n
	build := db.intKeysOf(b.tables[next], newCol)
	probe := db.intKeysOf(b.tables[bs.alias], bs.col)
	size := 1
	for size < 2*len(rids)+2 {
		size <<= 1
	}
	mask := uint64(size - 1)
	sc := joinScratchPool.Get().(*joinScratch)
	defer joinScratchPool.Put(sc)
	slotKey, slotHead, chain, heads := sc.arrays(size, len(rids), count)
	for i := range slotHead {
		slotHead[i] = -1
	}
	// Build entries are inserted in reverse, so each chain walks its rids
	// in build order.
	for i := len(rids) - 1; i >= 0; i-- {
		k, null, ok := build.key(rids[i])
		if !ok {
			return nil, false
		}
		if null {
			continue // NULL never joins
		}
		h := hashInt64(k) & mask
		for slotHead[h] >= 0 && slotKey[h] != k {
			h = (h + 1) & mask
		}
		if slotHead[h] < 0 {
			slotKey[h] = k
		}
		chain[i] = slotHead[h]
		slotHead[h] = int32(i)
	}
	// Probe once per tuple, keeping its chain head, and count the output
	// so it is allocated once.
	total := 0
	for i := range heads {
		heads[i] = -1
		k, null, ok := probe.key(tuples[i*n+bs.alias])
		if !ok {
			return nil, false
		}
		if null {
			continue
		}
		h := hashInt64(k) & mask
		for slotHead[h] >= 0 && slotKey[h] != k {
			h = (h + 1) & mask
		}
		heads[i] = slotHead[h]
		for e := heads[i]; e >= 0; e = chain[e] {
			total++
		}
	}
	out := make([]int, total*n)
	w := 0
	for i, head := range heads {
		for e := head; e >= 0; e = chain[e] {
			copy(out[w:w+n], tuples[i*n:i*n+n])
			out[w+next] = rids[e]
			w += n
		}
	}
	if build.vec && probe.vec {
		db.noteVector(len(rids) + count)
	}
	return out, true
}

// hashInt64 mixes an int64 join key for the flat build table (Fibonacci
// hashing plus an avalanche shift).
func hashInt64(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ (h >> 31)
}

// joinScratch holds the flat build-table and probe arrays intHashJoin
// reuses across executions; concurrent readers each take their own from
// the pool.
type joinScratch struct {
	slotKey  []int64
	slotHead []int32
	chain    []int32
	heads    []int32
}

// arrays returns the scratch arrays at the given lengths, growing any
// that is too short.
func (sc *joinScratch) arrays(slots, build, probe int) (slotKey []int64, slotHead, chain, heads []int32) {
	if cap(sc.slotKey) < slots {
		sc.slotKey = make([]int64, slots)
		sc.slotHead = make([]int32, slots)
	}
	if cap(sc.chain) < build {
		sc.chain = make([]int32, build)
	}
	if cap(sc.heads) < probe {
		sc.heads = make([]int32, probe)
	}
	return sc.slotKey[:slots], sc.slotHead[:slots], sc.chain[:build], sc.heads[:probe]
}

var joinScratchPool = sync.Pool{New: func() any { return &joinScratch{} }}

// applyReadyPreds filters tuples by every unapplied predicate whose aliases
// are all bound, compacting the flat relation in place.
func applyReadyPreds(b *binding, preds []*planPred, bound []bool, tuples []int, rec *planRec) []int {
	var ready []*planPred
	for _, pp := range preds {
		if pp.applied {
			continue
		}
		ok := true
		if pp.leftAlias >= 0 && !bound[pp.leftAlias] {
			ok = false
		}
		if pp.rightAlias >= 0 && !bound[pp.rightAlias] {
			ok = false
		}
		if ok {
			ready = append(ready, pp)
			pp.applied = true
		}
	}
	if len(ready) == 0 {
		return tuples
	}
	n := len(b.items)
	w := 0
	for i := 0; i < len(tuples); i += n {
		tu := tuples[i : i+n]
		ok := true
		for _, pp := range ready {
			if !evalTuple(b, tu, pp) {
				ok = false
				break
			}
		}
		if ok {
			copy(tuples[w:w+n], tu)
			w += n
		}
	}
	rec.linef("filter: %s → %d tuples", predNames(ready), w/n)
	return tuples[:w]
}

func evalTuple(b *binding, tu []int, pp *planPred) bool {
	var left Value
	if pp.leftAlias >= 0 {
		left = b.tables[pp.leftAlias].store.get(tu[pp.leftAlias], pp.leftCol)
	} else {
		left = pp.src.Left.Lit
	}
	if pp.src.In != nil {
		for _, want := range pp.src.In {
			if left.Compare(CmpEq, want) {
				return true
			}
		}
		return false
	}
	var right Value
	if pp.rightAlias >= 0 {
		right = b.tables[pp.rightAlias].store.get(tu[pp.rightAlias], pp.rightCol)
	} else {
		right = pp.src.Right.Lit
	}
	return left.Compare(pp.src.Op, right)
}

// --- DML ---

func (db *Database) execUpdate(s *UpdateStmt) (*Result, error) {
	t := db.tables[s.Table]
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	rids, _, err := db.filterSingle(t, s.Where)
	if err != nil {
		return nil, err
	}
	type setOp struct {
		col int
		val Value
	}
	sets := make([]setOp, len(s.Set))
	for i, a := range s.Set {
		ci := t.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %q has no column %q", s.Table, a.Column)
		}
		v, err := coerce(a.Value, t.Columns[ci].Type)
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{ci, v}
	}
	// Vectorized bulk update: outside a transaction (no undo log to feed)
	// and with no primary-key assignment (no pk index to maintain), each
	// SET column rewrites as one tight typed loop — annotation's sign
	// reset (WHERE-less UPDATE → fillColumn over the whole byte vector)
	// and sign rewrite (id IN (…) batches → assignColumn over the
	// selection) — instead of per-rid boxed set calls.
	if vs := t.vectors(); vs != nil && db.tx == nil {
		touchesPK := false
		for _, so := range sets {
			if so.col == t.pkCol {
				touchesPK = true
				break
			}
		}
		if !touchesPK {
			if len(rids) > 0 {
				for _, so := range sets {
					if len(s.Where) == 0 {
						vs.fillColumn(so.col, so.val)
					} else {
						vs.assignColumn(rids, so.col, so.val)
					}
				}
				t.bump()
				db.noteVector(len(rids) * len(sets))
			}
			return &Result{Affected: len(rids)}, nil
		}
	}
	for _, rid := range rids {
		for _, so := range sets {
			old := t.store.get(rid, so.col)
			if so.col == t.pkCol && t.pkIndex != nil {
				if !old.Equal(so.val) {
					if _, exists := t.pkIndex.lookup(so.val); exists {
						return nil, fmt.Errorf("sqldb: duplicate primary key %s", so.val)
					}
					t.pkIndex.remove(old)
					t.pkIndex.insert(so.val, rid)
				}
			}
			db.record(undoUpdate{table: s.Table, rid: rid, col: so.col, old: old})
			t.store.set(rid, so.col, so.val)
			t.bump()
		}
	}
	return &Result{Affected: len(rids)}, nil
}

func (db *Database) execDelete(s *DeleteStmt) (*Result, error) {
	t := db.tables[s.Table]
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	rids, _, err := db.filterSingle(t, s.Where)
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		row := make([]Value, len(t.Columns))
		for c := range t.Columns {
			row[c] = t.store.get(rid, c)
		}
		if t.pkIndex != nil {
			t.pkIndex.remove(row[t.pkCol])
		}
		db.record(undoDelete{table: s.Table, rid: rid, row: row})
		t.store.delete(rid)
		t.bump()
	}
	return &Result{Affected: len(rids)}, nil
}

// filterSingle evaluates a WHERE conjunction over one table (for UPDATE and
// DELETE), using the primary-key index for point and IN-list predicates. The
// returned desc names the chosen access path for EXPLAIN output.
func (db *Database) filterSingle(t *Table, where []Predicate) (rids []int, desc string, err error) {
	preds := make([]*planPred, 0, len(where))
	for _, pr := range where {
		pp := &planPred{src: pr, leftAlias: -1, leftCol: -1, rightAlias: -1, rightCol: -1}
		if pr.Left.IsCol {
			if pr.Left.Col.Alias != "" && pr.Left.Col.Alias != t.Name {
				return nil, "", fmt.Errorf("sqldb: unknown alias %q", pr.Left.Col.Alias)
			}
			ci := t.ColumnIndex(pr.Left.Col.Column)
			if ci < 0 {
				return nil, "", fmt.Errorf("sqldb: table %q has no column %q", t.Name, pr.Left.Col.Column)
			}
			pp.leftAlias, pp.leftCol = 0, ci
		}
		if pr.In == nil && pr.Right.IsCol {
			return nil, "", fmt.Errorf("sqldb: column-to-column comparison not supported in single-table DML")
		}
		if !pr.Left.IsCol {
			return nil, "", fmt.Errorf("sqldb: WHERE requires a column on the left in DML")
		}
		preds = append(preds, pp)
	}
	// IN-list lookup via the primary-key index: the bulk sign-update path
	// issues UPDATE … WHERE id IN (…) batches, which must not full-scan.
	for _, pp := range preds {
		if pp.src.In != nil && t.pkIndex != nil && pp.leftCol == t.pkCol {
			desc = fmt.Sprintf("pk index IN-lookup (%d keys)%s", len(pp.src.In), t.scanTag())
			rids = t.pkInLookup(pp.src.In)
			kept := rids[:0]
			for _, rid := range rids {
				keep := true
				for _, other := range preds {
					if other != pp && !evalLocal(t, rid, other) {
						keep = false
						break
					}
				}
				if keep {
					kept = append(kept, rid)
				}
			}
			return kept, desc, nil
		}
	}
	// Point lookup.
	for _, pp := range preds {
		if pp.src.In == nil && pp.src.Op == CmpEq && t.pkIndex != nil && pp.leftCol == t.pkCol {
			desc = "pk index point lookup" + t.scanTag()
			lit, cerr := coerce(pp.src.Right.Lit, t.Columns[t.pkCol].Type)
			if cerr != nil {
				return nil, desc, nil // untypable key matches nothing
			}
			rid, ok := t.pkIndex.lookup(lit)
			if !ok || !t.store.live(rid) {
				return nil, desc, nil
			}
			for _, other := range preds {
				if other != pp && !evalLocal(t, rid, other) {
					return nil, desc, nil
				}
			}
			return []int{rid}, desc, nil
		}
	}
	if vs := t.vectors(); vs != nil {
		rids, desc = db.vectorScan(t, vs, preds)
		return rids, desc, nil
	}
	if len(preds) == 0 {
		rids = make([]int, 0, t.RowCount())
	}
	t.store.scan(func(rid int) bool {
		for _, pp := range preds {
			if !evalLocal(t, rid, pp) {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	if len(preds) > 0 {
		desc = fmt.Sprintf("full scan (%d filters) [scan=row]", len(preds))
	} else {
		desc = "full scan [scan=row]"
	}
	return rids, desc, nil
}
