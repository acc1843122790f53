package sqldb

import (
	"strconv"
	"strings"
)

// The column layout (EngineColumn, the MonetDB role). vecStore keeps each
// column as a typed vector chosen from the declared column type, so a scan
// pays neither a boxed Value per cell nor an interface call per row:
//
//   - INT  columns are []int64 with a parallel null mask;
//   - TEXT columns start as a byte vector ([]byte, one byte per row) and
//     promote — once, irreversibly — to []string the first time a value
//     that is not exactly one byte arrives. The shredded schema's sign
//     column s only ever holds '+' or '-', so it stays a byte vector for
//     the life of the table, which is what makes annotation's sign resets
//     and rewrites memset-like loops.
//
// On top of the typed vectors sits a small selection-vector algebra: a
// selection is an ascending []int of candidate rids, produced by a
// full-column filter and narrowed by further predicates without ever
// materializing values. The executor (exec.go) consumes selections in
// vectorBatch-row batches; the batch and row counts feed the
// store_vector_batches_total / store_vector_rows_total metrics.
//
// vecStore implements the row-at-a-time store interface too, so every
// mutation path (transactions, restore, the row executor's operators)
// stays correct; the vectorized operators are a fast path the planner
// takes for every column-store table, never a second source of truth.

// vectorBatch is the number of rows a vectorized operator processes per
// batch. Batches only structure the loops (and the metrics accounting);
// selections may span any number of batches.
const vectorBatch = 1024

// vkind discriminates the physical representation of one column vector.
type vkind uint8

const (
	// vInt is a typed []int64 vector (INT columns).
	vInt vkind = iota
	// vByte is a one-byte-per-row text vector (TEXT columns whose values
	// have all been single bytes, e.g. the sign column).
	vByte
	// vStr is a []string vector (TEXT columns after promotion).
	vStr
)

// byteStrings interns the 256 one-byte strings so boxing a vByte cell
// never allocates.
var byteStrings = func() (tbl [256]string) {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	s := string(b)
	for i := range tbl {
		tbl[i] = s[i : i+1]
	}
	return tbl
}()

// vcol is one typed column vector. Exactly one of ints/bytes/strs is in
// use, selected by kind; nulls is the shared null mask.
type vcol struct {
	kind  vkind
	ints  []int64
	bytes []byte
	strs  []string
	nulls []bool
}

// promote converts a byte vector to a string vector (the one-way escape
// hatch for TEXT values that are not single bytes).
func (c *vcol) promote() {
	if c.kind != vByte {
		return
	}
	c.strs = make([]string, len(c.bytes))
	for i, b := range c.bytes {
		if !c.nulls[i] {
			c.strs[i] = byteStrings[b]
		}
	}
	c.bytes = nil
	c.kind = vStr
}

// appendVal appends one (coerced) value to the vector.
func (c *vcol) appendVal(v Value) {
	switch c.kind {
	case vInt:
		c.ints = append(c.ints, v.I)
		c.nulls = append(c.nulls, v.Kind == KindNull)
	case vByte:
		if v.Kind != KindNull && len(v.S) != 1 {
			c.promote()
			c.appendVal(v)
			return
		}
		var b byte
		if v.Kind != KindNull {
			b = v.S[0]
		}
		c.bytes = append(c.bytes, b)
		c.nulls = append(c.nulls, v.Kind == KindNull)
	default:
		c.strs = append(c.strs, v.S)
		c.nulls = append(c.nulls, v.Kind == KindNull)
	}
}

// get boxes one cell back into a Value.
func (c *vcol) get(rid int) Value {
	if c.nulls[rid] {
		return Null
	}
	switch c.kind {
	case vInt:
		return Value{Kind: KindInt, I: c.ints[rid]}
	case vByte:
		return Value{Kind: KindText, S: byteStrings[c.bytes[rid]]}
	default:
		return Value{Kind: KindText, S: c.strs[rid]}
	}
}

// set overwrites one cell with a (coerced) value.
func (c *vcol) set(rid int, v Value) {
	null := v.Kind == KindNull
	c.nulls[rid] = null
	switch c.kind {
	case vInt:
		c.ints[rid] = v.I
	case vByte:
		if !null && len(v.S) != 1 {
			c.promote()
			c.strs[rid] = v.S
			return
		}
		if null {
			c.bytes[rid] = 0
		} else {
			c.bytes[rid] = v.S[0]
		}
	default:
		if null {
			c.strs[rid] = ""
		} else {
			c.strs[rid] = v.S
		}
	}
}

// vecStore is the column-major store: one typed vector per column with a
// shared deletion bitmap (the MonetDB-like BAT layout).
type vecStore struct {
	cols  []vcol
	dead  []bool
	nlive int
}

func newVecStore(cols []Column) *vecStore {
	s := &vecStore{cols: make([]vcol, len(cols))}
	for i, c := range cols {
		if c.Type == TypeInt {
			s.cols[i].kind = vInt
		} else {
			s.cols[i].kind = vByte
		}
	}
	return s
}

func (s *vecStore) append(row []Value) int {
	rid := len(s.dead)
	for i, v := range row {
		s.cols[i].appendVal(v)
	}
	s.dead = append(s.dead, false)
	s.nlive++
	return rid
}

func (s *vecStore) get(rid, col int) Value    { return s.cols[col].get(rid) }
func (s *vecStore) set(rid, col int, v Value) { s.cols[col].set(rid, v) }

func (s *vecStore) delete(rid int) {
	if !s.dead[rid] {
		s.dead[rid] = true
		// Dead cells read as NULL.
		for i := range s.cols {
			s.cols[i].set(rid, Null)
		}
		s.nlive--
	}
}

func (s *vecStore) restore(rid int, row []Value) {
	if s.dead[rid] {
		for i, v := range row {
			s.cols[i].set(rid, v)
		}
		s.dead[rid] = false
		s.nlive++
	}
}

func (s *vecStore) live(rid int) bool { return rid >= 0 && rid < len(s.dead) && !s.dead[rid] }

func (s *vecStore) scan(fn func(rid int) bool) {
	for rid := range s.dead {
		if s.dead[rid] {
			continue
		}
		if !fn(rid) {
			return
		}
	}
}

func (s *vecStore) scanColumn(col int, fn func(rid int, v Value) bool) {
	c := &s.cols[col]
	for rid := range s.dead {
		if s.dead[rid] {
			continue
		}
		if !fn(rid, c.get(rid)) {
			return
		}
	}
}

func (s *vecStore) liveCount() int { return s.nlive }

// --- selection vectors ---

// liveRids returns the full selection: every live rid, ascending.
func (s *vecStore) liveRids() []int {
	out := make([]int, 0, s.nlive)
	for rid, d := range s.dead {
		if !d {
			out = append(out, rid)
		}
	}
	return out
}

// intColumn exposes the raw typed vector of an INT column for the
// vectorized join; ok is false for TEXT columns.
func (s *vecStore) intColumn(col int) (vals []int64, nulls []bool, ok bool) {
	c := &s.cols[col]
	if c.kind != vInt {
		return nil, nil, false
	}
	return c.ints, c.nulls, true
}

// byteMatchTable precomputes, for every possible byte value, whether the
// one-byte string satisfies (op, lit) — evaluated through the reference
// Value.Compare so the vectorized byte filter cannot diverge from the row
// executor's semantics by construction.
func byteMatchTable(op CmpOp, lit Value) (tbl [256]bool) {
	for b := 0; b < 256; b++ {
		tbl[b] = Value{Kind: KindText, S: byteStrings[b]}.Compare(op, lit)
	}
	return tbl
}

// cmpIntLit captures the row executor's int-vs-literal comparison: an int
// literal compares as int64; a text literal compares numerically when it
// parses as a float (XPath's number coercion), and otherwise only !=
// holds. match reports whether a non-null int64 cell satisfies the
// predicate.
type cmpIntLit struct {
	op      CmpOp
	isInt   bool
	litI    int64
	litF    float64
	parsed  bool // text literal parsed as a number
	neaOnly bool // incomparable: only CmpNe matches
}

func newCmpIntLit(op CmpOp, lit Value) cmpIntLit {
	c := cmpIntLit{op: op}
	switch lit.Kind {
	case KindInt:
		c.isInt = true
		c.litI = lit.I
	case KindText:
		if f, err := strconv.ParseFloat(strings.TrimSpace(lit.S), 64); err == nil {
			c.parsed = true
			c.litF = f
		} else {
			c.neaOnly = true
		}
	}
	return c
}

func (c cmpIntLit) match(v int64) bool {
	if c.neaOnly {
		return c.op == CmpNe
	}
	var cmp int
	if c.isInt {
		cmp = cmpInt(v, c.litI)
	} else {
		cmp = cmpFloat(float64(v), c.litF)
	}
	switch c.op {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	case CmpGe:
		return cmp >= 0
	}
	return false
}

// filterColumn runs a full-column predicate over the typed vector and
// returns the matching selection. NULL cells never match (SQL three-valued
// logic collapsed to false, as in Value.Compare); a NULL literal matches
// nothing. rows reports how many cells were examined, for the vector
// metrics.
func (s *vecStore) filterColumn(col int, op CmpOp, lit Value) (selv []int, rows int) {
	c := &s.cols[col]
	n := len(s.dead)
	out := make([]int, 0, n/4)
	if lit.Kind == KindNull {
		return out, n
	}
	switch c.kind {
	case vInt:
		cl := newCmpIntLit(op, lit)
		for base := 0; base < n; base += vectorBatch {
			end := base + vectorBatch
			if end > n {
				end = n
			}
			for rid := base; rid < end; rid++ {
				if s.dead[rid] || c.nulls[rid] {
					continue
				}
				if cl.match(c.ints[rid]) {
					out = append(out, rid)
				}
			}
		}
	case vByte:
		tbl := byteMatchTable(op, lit)
		for base := 0; base < n; base += vectorBatch {
			end := base + vectorBatch
			if end > n {
				end = n
			}
			for rid := base; rid < end; rid++ {
				if s.dead[rid] || c.nulls[rid] {
					continue
				}
				if tbl[c.bytes[rid]] {
					out = append(out, rid)
				}
			}
		}
	default:
		for base := 0; base < n; base += vectorBatch {
			end := base + vectorBatch
			if end > n {
				end = n
			}
			for rid := base; rid < end; rid++ {
				if s.dead[rid] || c.nulls[rid] {
					continue
				}
				if (Value{Kind: KindText, S: c.strs[rid]}).Compare(op, lit) {
					out = append(out, rid)
				}
			}
		}
	}
	return out, n
}

// refineColumn narrows an existing selection by a further predicate,
// in place. The rids must be live.
func (s *vecStore) refineColumn(selv []int, col int, op CmpOp, lit Value) (_ []int, rows int) {
	c := &s.cols[col]
	rows = len(selv)
	out := selv[:0]
	if lit.Kind == KindNull {
		return out, rows
	}
	switch c.kind {
	case vInt:
		cl := newCmpIntLit(op, lit)
		for _, rid := range selv {
			if !c.nulls[rid] && cl.match(c.ints[rid]) {
				out = append(out, rid)
			}
		}
	case vByte:
		tbl := byteMatchTable(op, lit)
		for _, rid := range selv {
			if !c.nulls[rid] && tbl[c.bytes[rid]] {
				out = append(out, rid)
			}
		}
	default:
		for _, rid := range selv {
			if !c.nulls[rid] && (Value{Kind: KindText, S: c.strs[rid]}).Compare(op, lit) {
				out = append(out, rid)
			}
		}
	}
	return out, rows
}

// refineIn narrows a selection by an IN-list predicate (the disjunction of
// equalities the row executor's evalLocal implements).
func (s *vecStore) refineIn(selv []int, col int, in []Value) (_ []int, rows int) {
	c := &s.cols[col]
	rows = len(selv)
	out := selv[:0]
	if c.kind == vByte {
		// One combined match table covers the whole list.
		var tbl [256]bool
		for _, want := range in {
			t := byteMatchTable(CmpEq, want)
			for b := range tbl {
				tbl[b] = tbl[b] || t[b]
			}
		}
		for _, rid := range selv {
			if !c.nulls[rid] && tbl[c.bytes[rid]] {
				out = append(out, rid)
			}
		}
		return out, rows
	}
	for _, rid := range selv {
		v := c.get(rid)
		if v.Kind == KindNull {
			continue
		}
		for _, want := range in {
			if v.Compare(CmpEq, want) {
				out = append(out, rid)
				break
			}
		}
	}
	return out, rows
}

// filterIn runs an IN-list predicate over the full column.
func (s *vecStore) filterIn(col int, in []Value) (selv []int, rows int) {
	return s.refineIn(s.liveRids(), col, in)
}

// --- bulk mutation ---

// fillColumn assigns val to every live row of the column — annotation's
// full sign reset as one tight loop — and returns how many rows changed.
// The caller has already coerced val to the column type and holds the
// write lock; rollback correctness is the caller's concern (the fast path
// runs only outside transactions).
func (s *vecStore) fillColumn(col int, val Value) int {
	c := &s.cols[col]
	if c.kind == vByte && val.Kind == KindText && len(val.S) != 1 {
		c.promote()
	}
	n := len(s.dead)
	switch c.kind {
	case vInt:
		for rid := 0; rid < n; rid++ {
			if !s.dead[rid] {
				c.ints[rid] = val.I
				c.nulls[rid] = val.Kind == KindNull
			}
		}
	case vByte:
		var b byte
		if val.Kind == KindText {
			b = val.S[0]
		}
		for rid := 0; rid < n; rid++ {
			if !s.dead[rid] {
				c.bytes[rid] = b
				c.nulls[rid] = val.Kind == KindNull
			}
		}
	default:
		for rid := 0; rid < n; rid++ {
			if !s.dead[rid] {
				c.strs[rid] = val.S
				c.nulls[rid] = val.Kind == KindNull
			}
		}
	}
	return s.nlive
}

// assignColumn sets col = val for every rid of the selection (the bulk
// sign rewrite: UPDATE … WHERE id IN (…) resolved to rids first). Same
// contract as fillColumn: coerced value, write lock held, no open
// transaction.
func (s *vecStore) assignColumn(selv []int, col int, val Value) {
	c := &s.cols[col]
	if c.kind == vByte && val.Kind == KindText && len(val.S) != 1 {
		c.promote()
	}
	null := val.Kind == KindNull
	switch c.kind {
	case vInt:
		for _, rid := range selv {
			c.ints[rid] = val.I
			c.nulls[rid] = null
		}
	case vByte:
		var b byte
		if !null {
			b = val.S[0]
		}
		for _, rid := range selv {
			c.bytes[rid] = b
			c.nulls[rid] = null
		}
	default:
		for _, rid := range selv {
			c.strs[rid] = val.S
			c.nulls[rid] = null
		}
	}
}

// indexBuckets builds the secondary-index buckets for one column with a
// typed loop (index.go falls back to scanColumn on the row store). The
// bucket keys and rid order match the reference build exactly.
func (s *vecStore) indexBuckets(col int) map[string][]int {
	c := &s.cols[col]
	buckets := map[string][]int{}
	switch c.kind {
	case vByte:
		// At most 257 distinct keys; cache them to skip per-row formatting.
		var keys [256]string
		for rid := range s.dead {
			if s.dead[rid] {
				continue
			}
			if c.nulls[rid] {
				buckets["\x00N"] = append(buckets["\x00N"], rid)
				continue
			}
			b := c.bytes[rid]
			if keys[b] == "" {
				keys[b] = "\x00T" + byteStrings[b]
			}
			buckets[keys[b]] = append(buckets[keys[b]], rid)
		}
	case vInt:
		for rid := range s.dead {
			if s.dead[rid] {
				continue
			}
			if c.nulls[rid] {
				buckets["\x00N"] = append(buckets["\x00N"], rid)
				continue
			}
			k := "\x00I" + strconv.FormatInt(c.ints[rid], 10)
			buckets[k] = append(buckets[k], rid)
		}
	default:
		for rid := range s.dead {
			if s.dead[rid] {
				continue
			}
			k := (Value{Kind: KindText, S: c.strs[rid]}).key()
			if c.nulls[rid] {
				k = "\x00N"
			}
			buckets[k] = append(buckets[k], rid)
		}
	}
	return buckets
}

// vectorBatches converts a processed-row count into the batch count the
// store_vector_batches_total metric reports.
func vectorBatches(rows int) int64 {
	if rows <= 0 {
		return 0
	}
	return int64((rows + vectorBatch - 1) / vectorBatch)
}

// noteVector feeds the vector metrics on the column engine; nil-safe like
// every metrics hook.
func (db *Database) noteVector(rows int) {
	if db.m == nil || rows <= 0 || db.engine != EngineColumn {
		return
	}
	db.m.vectorRows.Add(int64(rows))
	db.m.vectorBatches.Add(vectorBatches(rows))
}
