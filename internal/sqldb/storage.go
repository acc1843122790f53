package sqldb

// store is the physical storage interface shared by the two engines. Row
// ids (rids) are stable across updates and deletes; deleted rows keep their
// rid but are skipped by scans.
type store interface {
	// append adds a row and returns its rid.
	append(row []Value) int
	// get returns the value at (rid, col); the row must be live.
	get(rid, col int) Value
	// set overwrites the value at (rid, col).
	set(rid, col int, v Value)
	// delete marks the row dead.
	delete(rid int)
	// restore resurrects a dead row with the given contents (transaction
	// rollback of a delete).
	restore(rid int, row []Value)
	// live reports whether the rid is a live row.
	live(rid int) bool
	// scan calls fn for every live rid in insertion order; fn returns false
	// to stop.
	scan(fn func(rid int) bool)
	// scanColumn calls fn with (rid, value) for every live row's value of
	// one column: a walk of one column vector on the column store, of
	// whole tuples on the row store.
	scanColumn(col int, fn func(rid int, v Value) bool)
	// liveCount returns the number of live rows.
	liveCount() int
}

// rowStore is the row-major engine: tuples as contiguous []Value slices,
// processed row at a time (the PostgreSQL-like layout).
type rowStore struct {
	ncols int
	rows  [][]Value
	dead  []bool
	nlive int
}

func newRowStore(ncols int) *rowStore { return &rowStore{ncols: ncols} }

func (s *rowStore) append(row []Value) int {
	rid := len(s.rows)
	s.rows = append(s.rows, row)
	s.dead = append(s.dead, false)
	s.nlive++
	return rid
}

func (s *rowStore) get(rid, col int) Value    { return s.rows[rid][col] }
func (s *rowStore) set(rid, col int, v Value) { s.rows[rid][col] = v }

func (s *rowStore) delete(rid int) {
	if !s.dead[rid] {
		s.dead[rid] = true
		s.rows[rid] = nil
		s.nlive--
	}
}

func (s *rowStore) restore(rid int, row []Value) {
	if s.dead[rid] {
		s.rows[rid] = row
		s.dead[rid] = false
		s.nlive++
	}
}

func (s *rowStore) live(rid int) bool { return rid >= 0 && rid < len(s.rows) && !s.dead[rid] }

func (s *rowStore) scan(fn func(rid int) bool) {
	for rid := range s.rows {
		if s.dead[rid] {
			continue
		}
		if !fn(rid) {
			return
		}
	}
}

func (s *rowStore) scanColumn(col int, fn func(rid int, v Value) bool) {
	// Row-major layout: a single-column scan still walks whole tuples.
	for rid, row := range s.rows {
		if s.dead[rid] {
			continue
		}
		if !fn(rid, row[col]) {
			return
		}
	}
}

func (s *rowStore) liveCount() int { return s.nlive }

// hashIndex is the primary-key index: a unique map from a coerced key to
// its rid. Int keys, which every shredded table's id is, go through ints
// without formatting a string; NULL and text keys go through other, keyed
// by the value itself.
type hashIndex struct {
	ints  map[int64]int
	other map[Value]int
}

func newHashIndex() *hashIndex { return &hashIndex{ints: map[int64]int{}, other: map[Value]int{}} }

// otherKey is a NULL or text key as the index stores it: every NULL is
// one key, and a text key is its string alone.
func otherKey(k Value) Value {
	if k.Kind == KindNull {
		return Null
	}
	return Value{Kind: KindText, S: k.S}
}

func (ix *hashIndex) insert(k Value, rid int) {
	if k.Kind == KindInt {
		ix.ints[k.I] = rid
		return
	}
	ix.other[otherKey(k)] = rid
}

func (ix *hashIndex) lookup(k Value) (int, bool) {
	if k.Kind == KindInt {
		rid, ok := ix.ints[k.I]
		return rid, ok
	}
	rid, ok := ix.other[otherKey(k)]
	return rid, ok
}

func (ix *hashIndex) remove(k Value) {
	if k.Kind == KindInt {
		delete(ix.ints, k.I)
	} else {
		delete(ix.other, otherKey(k))
	}
}
