package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The reference SELECT executor: execSelect as it ran before the join's
// intermediate relation became one flat rid array. Each tuple is its own
// []int, int equi-joins build a map[int64][]int on the row engine and a
// chained flat table on the column one, projected rows are one make each
// (an arena on the column engine), and DISTINCT keeps a string
// key per row. It is frozen here, without metrics or plan output, as the
// reference FuzzExec and TestDifferentialEngines hold every SELECT block
// to: same rows in the same order, or the same error. It calls only the
// stores, the indexes and Value.

// refBinding maps each FROM alias to its position and table.
type refBinding struct {
	items  []FromItem
	tables []*Table
	pos    map[string]int
}

func refBind(db *Database, from []FromItem) (*refBinding, error) {
	b := &refBinding{pos: map[string]int{}}
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

func (b *refBinding) resolve(c ColRef) (aliasIdx, colIdx int, err error) {
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

// refPred is a resolved predicate.
type refPred struct {
	src                  Predicate
	leftAlias, leftCol   int
	rightAlias, rightCol int
	applied              bool
}

// refVectorTable is the table's typed-vector store, nil on the row store.
func refVectorTable(db *Database, t *Table) *vecStore {
	vs, _ := t.store.(*vecStore)
	return vs
}

// refSelect executes one SELECT block under the database's read lock.
func refSelect(db *Database, s *SelectStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b, err := refBind(db, s.From)
	if err != nil {
		return nil, err
	}
	preds := make([]*refPred, 0, len(s.Where))
	for _, pr := range s.Where {
		pp := &refPred{src: pr, leftAlias: -1, leftCol: -1, rightAlias: -1, rightCol: -1}
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

	var singleRids []int
	useSingle := false
	if len(b.items) == 1 && !s.Star && refVectorTable(db, b.tables[0]) != nil {
		useSingle = true
		for _, pp := range preds {
			if pp.leftAlias != 0 || (pp.src.In == nil && pp.src.Right.IsCol) {
				useSingle = false
				break
			}
		}
	}
	var tuples [][]int
	if useSingle {
		singleRids = refBaseScan(db, b, 0, preds)
	} else {
		tuples = refJoinPlan(db, b, preds)
	}

	out := &Result{}
	switch {
	case s.CountStar:
		n := len(tuples)
		if useSingle {
			n = len(singleRids)
		}
		out.Columns = []string{"count"}
		out.Rows = [][]Value{{NewInt(int64(n))}}
		return out, nil
	case s.Star:
		for i, t := range b.tables {
			for _, c := range t.Columns {
				out.Columns = append(out.Columns, b.items[i].Alias+"."+c.Name)
			}
		}
		for _, tu := range tuples {
			var row []Value
			for i, t := range b.tables {
				for j := range t.Columns {
					row = append(row, t.store.get(tu[i], j))
				}
			}
			out.Rows = append(out.Rows, row)
		}
	default:
		type proj struct{ alias, col int }
		var projs []proj
		for _, c := range s.Columns {
			ai, ci, err := b.resolve(c)
			if err != nil {
				return nil, err
			}
			projs = append(projs, proj{ai, ci})
			out.Columns = append(out.Columns, c.String())
		}
		if useSingle {
			if len(singleRids) > 0 {
				vs := b.tables[0].store.(*vecStore)
				arena := make([]Value, len(singleRids)*len(projs))
				out.Rows = make([][]Value, 0, len(singleRids))
				for _, rid := range singleRids {
					row := arena[:len(projs):len(projs)]
					arena = arena[len(projs):]
					for k, pj := range projs {
						row[k] = vs.cols[pj.col].get(rid)
					}
					out.Rows = append(out.Rows, row)
				}
			}
			break
		}
		vecs := make([]*vecStore, len(b.tables))
		allVec := true
		for i, t := range b.tables {
			vs, isVec := t.store.(*vecStore)
			allVec = allVec && isVec
			vecs[i] = vs
		}
		if allVec && len(tuples) > 0 {
			arena := make([]Value, len(tuples)*len(projs))
			out.Rows = make([][]Value, 0, len(tuples))
			for _, tu := range tuples {
				row := arena[:len(projs):len(projs)]
				arena = arena[len(projs):]
				for k, pj := range projs {
					row[k] = vecs[pj.alias].cols[pj.col].get(tu[pj.alias])
				}
				out.Rows = append(out.Rows, row)
			}
			break
		}
		for _, tu := range tuples {
			row := make([]Value, len(projs))
			for k, pj := range projs {
				row[k] = b.tables[pj.alias].store.get(tu[pj.alias], pj.col)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	if s.Distinct {
		seen := map[string]bool{}
		var rows [][]Value
		for _, r := range out.Rows {
			var kb strings.Builder
			for _, v := range r {
				kb.WriteString(v.key())
			}
			k := kb.String()
			if !seen[k] {
				seen[k] = true
				rows = append(rows, r)
			}
		}
		out.Rows = rows
	}
	return out, nil
}

// refJoinPlan materializes the join of all FROM items as one []int per
// tuple, with greedy hash joins over equality predicates.
func refJoinPlan(db *Database, b *refBinding, preds []*refPred) [][]int {
	n := len(b.items)
	base := make([][]int, n)
	for i := range b.items {
		base[i] = refBaseScan(db, b, i, preds)
	}
	bound := make([]bool, n)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if len(base[i]) < len(base[start]) {
			start = i
		}
	}
	bound[start] = true
	order = append(order, start)
	tuples := make([][]int, 0, len(base[start]))
	for _, rid := range base[start] {
		tu := make([]int, n)
		for k := range tu {
			tu[k] = -1
		}
		tu[start] = rid
		tuples = append(tuples, tu)
	}
	tuples = refApplyReadyPreds(b, preds, bound, tuples)
	for len(order) < n {
		next := -1
		var joinOn []*refPred
		for i := 0; i < n; i++ {
			if bound[i] {
				continue
			}
			var on []*refPred
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
		tuples = refHashJoin(db, b, tuples, base[next], next, joinOn)
		bound[next] = true
		order = append(order, next)
		for _, pp := range joinOn {
			pp.applied = true
		}
		tuples = refApplyReadyPreds(b, preds, bound, tuples)
	}
	return tuples
}

// refBaseScan returns the rids of one relation with its single-alias
// predicates applied, through the primary-key, secondary-index, vector or
// row access path.
func refBaseScan(db *Database, b *refBinding, alias int, preds []*refPred) (rids []int) {
	t := b.tables[alias]
	var local []*refPred
	for _, pp := range preds {
		if pp.leftAlias == alias && (pp.src.In != nil || !pp.src.Right.IsCol) {
			local = append(local, pp)
		}
	}
	for _, pp := range local {
		if pp.src.In != nil && t.pkCol == pp.leftCol && t.pkIndex != nil {
			seen := map[int]bool{}
			for _, v := range pp.src.In {
				cv, err := coerce(v, t.Columns[t.pkCol].Type)
				if err != nil {
					continue
				}
				rid, ok := t.pkIndex.lookup(cv)
				if ok && t.store.live(rid) && !seen[rid] {
					seen[rid] = true
					rids = append(rids, rid)
				}
			}
			pp.applied = true
			return refFilterRids(db, t, rids, local, pp)
		}
	}
	for _, pp := range local {
		if pp.src.In == nil && pp.src.Op == CmpEq && t.pkCol == pp.leftCol && t.pkIndex != nil {
			lit, err := coerce(pp.src.Right.Lit, t.Columns[t.pkCol].Type)
			if err != nil {
				return nil
			}
			pp.applied = true
			rid, ok := t.pkIndex.lookup(lit)
			if ok && t.store.live(rid) {
				rids = []int{rid}
			}
			return refFilterRids(db, t, rids, local, pp)
		}
	}
	var bestEq *refPred
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
			var cand []int
			for _, rid := range ix.lookup(lit) {
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
		return refFilterRids(db, t, bestRids, local, bestEq)
	}
	for _, pp := range local {
		if pp.src.In == nil {
			continue
		}
		ix := t.secondaryFor(pp.leftCol)
		if ix == nil {
			continue
		}
		seen := map[int]bool{}
		for _, v := range pp.src.In {
			cv, err := coerce(v, t.Columns[pp.leftCol].Type)
			if err != nil {
				continue
			}
			for _, rid := range ix.lookup(cv) {
				if t.store.live(rid) && !seen[rid] {
					seen[rid] = true
					rids = append(rids, rid)
				}
			}
		}
		pp.applied = true
		return refFilterRids(db, t, rids, local, pp)
	}
	if vs := refVectorTable(db, t); vs != nil {
		rids = refVectorScan(vs, local)
		for _, pp := range local {
			pp.applied = true
		}
		return rids
	}
	if len(local) == 1 && local[0].src.In == nil {
		pp := local[0]
		t.store.scanColumn(pp.leftCol, func(rid int, v Value) bool {
			if v.Compare(pp.src.Op, pp.src.Right.Lit) {
				rids = append(rids, rid)
			}
			return true
		})
		pp.applied = true
		return rids
	}
	t.store.scan(func(rid int) bool {
		ok := true
		for _, pp := range local {
			if !refEvalLocal(t, rid, pp) {
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
	return rids
}

// refVectorScan filters the typed vectors: the first predicate over the
// whole column, each further one refining the selection.
func refVectorScan(vs *vecStore, local []*refPred) []int {
	if len(local) == 0 {
		return vs.liveRids()
	}
	var rids []int
	pp := local[0]
	if pp.src.In != nil {
		rids, _ = vs.filterIn(pp.leftCol, pp.src.In)
	} else {
		rids, _ = vs.filterColumn(pp.leftCol, pp.src.Op, pp.src.Right.Lit)
	}
	for _, pp := range local[1:] {
		if pp.src.In != nil {
			rids, _ = vs.refineIn(rids, pp.leftCol, pp.src.In)
		} else {
			rids, _ = vs.refineColumn(rids, pp.leftCol, pp.src.Op, pp.src.Right.Lit)
		}
	}
	return rids
}

// refFilterRids applies the residual local predicates to an index
// lookup's rid list.
func refFilterRids(db *Database, t *Table, rids []int, local []*refPred, skip *refPred) []int {
	residual := len(local)
	if skip != nil {
		residual--
	}
	if vs := refVectorTable(db, t); vs != nil && residual > 0 && len(rids) > 0 {
		sel := append(make([]int, 0, len(rids)), rids...)
		for _, pp := range local {
			if pp == skip {
				continue
			}
			if pp.src.In != nil {
				sel, _ = vs.refineIn(sel, pp.leftCol, pp.src.In)
			} else {
				sel, _ = vs.refineColumn(sel, pp.leftCol, pp.src.Op, pp.src.Right.Lit)
			}
		}
		for _, pp := range local {
			pp.applied = true
		}
		return sel
	}
	var out []int
	for _, rid := range rids {
		ok := true
		for _, pp := range local {
			if pp == skip {
				continue
			}
			if !refEvalLocal(t, rid, pp) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, rid)
		}
	}
	for _, pp := range local {
		pp.applied = true
	}
	return out
}

func refEvalLocal(t *Table, rid int, pp *refPred) bool {
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

// refHashJoin joins the tuples with relation next on the equality
// predicates (nil: cross product).
func refHashJoin(db *Database, b *refBinding, tuples [][]int, rids []int, next int, on []*refPred) [][]int {
	t := b.tables[next]
	if len(on) == 0 {
		out := make([][]int, 0, len(tuples)*len(rids))
		for _, tu := range tuples {
			for _, rid := range rids {
				ntu := make([]int, len(tu))
				copy(ntu, tu)
				ntu[next] = rid
				out = append(out, ntu)
			}
		}
		return out
	}
	newCols := make([]int, len(on))
	boundSide := make([]struct{ alias, col int }, len(on))
	for k, pp := range on {
		if pp.leftAlias == next {
			newCols[k] = pp.leftCol
			boundSide[k] = struct{ alias, col int }{pp.rightAlias, pp.rightCol}
		} else {
			newCols[k] = pp.rightCol
			boundSide[k] = struct{ alias, col int }{pp.leftAlias, pp.leftCol}
		}
	}
	if len(on) == 1 {
		if out, ok := refVecIntHashJoin(db, b, t, tuples, rids, next, newCols[0], boundSide[0]); ok {
			return out
		}
		if out, ok := refIntHashJoin(b, t, tuples, rids, next, newCols[0], boundSide[0]); ok {
			return out
		}
	}
	build := make(map[string][]int, len(rids))
	var kb strings.Builder
	for _, rid := range rids {
		kb.Reset()
		for _, c := range newCols {
			kb.WriteString(t.store.get(rid, c).key())
		}
		k := kb.String()
		build[k] = append(build[k], rid)
	}
	var out [][]int
	for _, tu := range tuples {
		kb.Reset()
		null := false
		for _, bs := range boundSide {
			v := b.tables[bs.alias].store.get(tu[bs.alias], bs.col)
			if v.IsNull() {
				null = true
				break
			}
			kb.WriteString(v.key())
		}
		if null {
			continue
		}
		for _, rid := range build[kb.String()] {
			ntu := make([]int, len(tu))
			copy(ntu, tu)
			ntu[next] = rid
			out = append(out, ntu)
		}
	}
	return out
}

// refVecIntHashJoin joins over the raw int64 vectors with an
// open-addressing build table whose chains walk the build rids in order.
func refVecIntHashJoin(db *Database, b *refBinding, t *Table, tuples [][]int, rids []int, next, newCol int,
	bs struct{ alias, col int }) ([][]int, bool) {
	vs := refVectorTable(db, t)
	pvs := refVectorTable(db, b.tables[bs.alias])
	if vs == nil || pvs == nil {
		return nil, false
	}
	bvals, bnulls, ok := vs.intColumn(newCol)
	if !ok {
		return nil, false
	}
	pvals, pnulls, ok := pvs.intColumn(bs.col)
	if !ok {
		return nil, false
	}
	hash := func(k int64) uint64 {
		h := uint64(k) * 0x9E3779B97F4A7C15
		return h ^ (h >> 31)
	}
	size := 1
	for size < 2*len(rids)+2 {
		size <<= 1
	}
	mask := uint64(size - 1)
	slotKey := make([]int64, size)
	slotHead := make([]int32, size)
	for i := range slotHead {
		slotHead[i] = -1
	}
	chain := make([]int32, len(rids))
	for i := len(rids) - 1; i >= 0; i-- {
		rid := rids[i]
		if bnulls[rid] {
			continue
		}
		k := bvals[rid]
		h := hash(k) & mask
		for {
			if slotHead[h] < 0 {
				slotKey[h] = k
				chain[i] = -1
				slotHead[h] = int32(i)
				break
			}
			if slotKey[h] == k {
				chain[i] = slotHead[h]
				slotHead[h] = int32(i)
				break
			}
			h = (h + 1) & mask
		}
	}
	probe := func(prid int) int32 {
		k := pvals[prid]
		h := hash(k) & mask
		for {
			head := slotHead[h]
			if head < 0 {
				return -1
			}
			if slotKey[h] == k {
				return head
			}
			h = (h + 1) & mask
		}
	}
	var out [][]int
	for _, tu := range tuples {
		prid := tu[bs.alias]
		if pnulls[prid] {
			continue
		}
		for e := probe(prid); e >= 0; e = chain[e] {
			ntu := make([]int, len(tu))
			copy(ntu, tu)
			ntu[next] = rids[e]
			out = append(out, ntu)
		}
	}
	return out, true
}

// refIntHashJoin is the int64-keyed map join; it reports false on a
// non-int, non-NULL value on either side.
func refIntHashJoin(b *refBinding, t *Table, tuples [][]int, rids []int, next, newCol int,
	bs struct{ alias, col int }) ([][]int, bool) {
	build := make(map[int64][]int, len(rids))
	for _, rid := range rids {
		v := t.store.get(rid, newCol)
		switch v.Kind {
		case KindInt:
			build[v.I] = append(build[v.I], rid)
		case KindNull:
		default:
			return nil, false
		}
	}
	out := make([][]int, 0, len(tuples))
	probe := b.tables[bs.alias]
	for _, tu := range tuples {
		v := probe.store.get(tu[bs.alias], bs.col)
		switch v.Kind {
		case KindInt:
		case KindNull:
			continue
		default:
			return nil, false
		}
		for _, rid := range build[v.I] {
			ntu := make([]int, len(tu))
			copy(ntu, tu)
			ntu[next] = rid
			out = append(out, ntu)
		}
	}
	return out, true
}

// refApplyReadyPreds filters the tuples by every unapplied predicate
// whose aliases are all bound.
func refApplyReadyPreds(b *refBinding, preds []*refPred, bound []bool, tuples [][]int) [][]int {
	var ready []*refPred
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
	out := tuples[:0]
	for _, tu := range tuples {
		ok := true
		for _, pp := range ready {
			if !refEvalTuple(b, tu, pp) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, tu)
		}
	}
	return out
}

func refEvalTuple(b *refBinding, tu []int, pp *refPred) bool {
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

// refMismatch runs every SELECT block of q, set-operation operands
// included, through ExecStmt and through refSelect, and describes the
// first block whose rows, row order or error differ; "" when none does.
func refMismatch(db *Database, q *Query) string {
	if q.Simple == nil {
		if d := refMismatch(db, q.Left); d != "" {
			return d
		}
		return refMismatch(db, q.Right)
	}
	got, err := db.ExecStmt(&Query{Simple: q.Simple, Limit: -1})
	want, refErr := refSelect(db, q.Simple)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) ||
		(err == nil && !reflect.DeepEqual(got, want)) {
		return fmt.Sprintf("SELECT block %+v: executor %+v (%v), reference %+v (%v)", *q.Simple, got, err, want, refErr)
	}
	return ""
}

// TestSelectMatchesReference holds SELECT blocks that reach every access
// path and join kind to the reference executor on each engine: primary-key
// IN lists with repeated, unordered and uncoercible keys, point lookups,
// secondary-index equalities and IN lists with overlapping buckets, vector
// and row scans with and without filters, cross products, int equi-joins
// with NULL keys, the string-key join for text, mixed and two-column keys,
// self-joins, column-to-column filters, SELECT *, COUNT(*) and DISTINCT. It
// runs them on the loaded tables and again after deletes and updates have
// left dead rows and promoted a text column.
func TestSelectMatchesReference(t *testing.T) {
	queries := []string{
		`SELECT id FROM t1 WHERE id IN (5, 3, 5, 1, 3)`,
		`SELECT id, v FROM t1 WHERE id IN (1, 2, 3, 4, 9)`,
		`SELECT id FROM t1 WHERE id IN ('2', 2, 'x', 7)`,
		`SELECT id, v FROM t1 WHERE id = 'x'`,
		`SELECT id FROM t1 WHERE id = 3 AND s = '+'`,
		`SELECT id FROM t2 WHERE pid = 2`,
		`SELECT id FROM t2 WHERE pid IN (2, 1, 2)`,
		`SELECT id FROM t2 WHERE pid IN (7, 1, NULL) AND v <> 'q'`,
		`SELECT id FROM t2 WHERE pid IN (2, 1, 2) AND s = '-'`,
		`SELECT id FROM t1 WHERE s IN ('+', '-', '+')`,
		`SELECT id FROM t1 WHERE v > 'b'`,
		`SELECT id, pid FROM t1 WHERE v <> 'a' AND pid >= 1`,
		`SELECT id FROM t1 WHERE pid = id`,
		`SELECT * FROM t1`,
		`SELECT * FROM t1 a, t3 c WHERE a.id = c.id`,
		`SELECT COUNT(*) FROM t1, t2`,
		`SELECT a.id, b.id FROM t1 a, t2 b`,
		`SELECT a.id, b.v FROM t1 a, t2 b WHERE a.id = b.pid`,
		`SELECT b.id, a.id FROM t2 b, t1 a WHERE b.pid = a.id AND a.s = '+'`,
		`SELECT a.id, b.id FROM t1 a, t2 b WHERE a.v = b.v`,
		`SELECT a.id, b.id FROM t1 a, t2 b WHERE a.id = b.pid AND a.s = b.s`,
		`SELECT a.id, c.id FROM t1 a, t3 c WHERE a.id = c.k`,
		`SELECT a.id, c.id FROM t1 a, t3 c WHERE a.v = c.k`,
		`SELECT a.id, b.id, c.id FROM t1 a, t1 b, t2 c WHERE b.pid = a.id AND c.pid = b.id`,
		`SELECT a.id, b.id FROM t1 a, t2 b WHERE a.pid < b.pid AND b.s = '+'`,
		`SELECT a.id FROM t1 a, t2 b WHERE a.id = a.pid AND b.id = 1`,
		`SELECT DISTINCT pid FROM t1`,
		`SELECT DISTINCT a.s, b.s FROM t1 a, t2 b WHERE a.id = b.pid`,
		`SELECT DISTINCT v FROM t2 WHERE v <> 'zz'`,
		`SELECT nope FROM t1`,
		`SELECT a.id FROM t1 a, t2 a`,
	}
	setup := []string{
		`CREATE TABLE t1 (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`,
		`CREATE TABLE t2 (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`,
		`CREATE TABLE t3 (id INT PRIMARY KEY, k TEXT)`,
		`CREATE INDEX t2_pid ON t2 (pid)`,
		`CREATE INDEX t2_s ON t2 (s)`,
		`INSERT INTO t1 VALUES (1, 0, 'a', '+'), (2, 1, 'b', '-'), (3, 1, 'c', '+'), (4, 2, NULL, '-'), (5, NULL, 'a', '+'), (6, 6, 'b', '+'), (7, 3, 'c', '-')`,
		`INSERT INTO t2 VALUES (1, 1, 'a', '+'), (2, 2, 'b', '-'), (3, 2, 'c', '+'), (4, NULL, 'a', '-'), (5, 1, 'b', '+'), (6, 7, NULL, '-'), (7, 3, 'x', '+')`,
		`INSERT INTO t3 VALUES (1, '1'), (2, 'b'), (3, NULL), (4, '3')`,
	}
	changes := []string{
		`DELETE FROM t1 WHERE id IN (3, 6)`,
		`DELETE FROM t2 WHERE v = 'c'`,
		`UPDATE t2 SET v = 'long' WHERE id = 5`,
		`UPDATE t1 SET s = '-' WHERE pid = 1`,
		`INSERT INTO t1 VALUES (8, 2, 'b', '+'), (9, 8, 'long', '+')`,
	}
	for _, e := range []Engine{EngineRow, EngineColumn} {
		db := Open(e)
		for _, sql := range setup {
			mustExec(t, db, sql)
		}
		for round, batch := range [][]string{nil, changes} {
			for _, sql := range batch {
				mustExec(t, db, sql)
			}
			for _, sql := range queries {
				q, ok := parseQuery(sql)
				if !ok {
					t.Fatalf("%s does not parse as a query", sql)
				}
				if d := refMismatch(db, q); d != "" {
					t.Errorf("%s round %d, %s: %s", e, round, sql, d)
				}
			}
		}
	}
}
