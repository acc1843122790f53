package shred

import "sync"

// Owner routing. Universal identifiers are unique across the whole shredded
// database, so every id belongs to exactly one table — but the id alone does
// not say which. A sign write for a set of ids would therefore scan every
// table of the mapping for its share. The owner index removes that
// cross-product: xmltree allocates identifiers densely from 1, so it keeps
// one slot per id holding the owning table's position plus one (0 for an
// unknown id), and each table name once.

// ownerSlack bounds how far an id may grow the slot table: to at most
// twice its length plus ownerSlack. An id further out (one set by hand on
// a built document, say) stays unknown, and a sign write that meets it
// routes its ids by scanning every table.
const ownerSlack = 1 << 12

// ownerIndex maps universal identifiers to their owning table. The zero
// value is ready to use. All methods are safe for concurrent use.
type ownerIndex struct {
	mu     sync.RWMutex
	tables []string       // position → table name
	pos    map[string]int // table name → position
	slots  []uint32       // id → owning table's position + 1; 0 is unknown
}

// position returns the table's position, registering a new name at the
// end; GroupByOwner reports tables in position order. Caller holds the
// write lock or owns ix.
func (ix *ownerIndex) position(table string) int {
	if p, ok := ix.pos[table]; ok {
		return p
	}
	if ix.pos == nil {
		ix.pos = map[string]int{}
	}
	ix.pos[table] = len(ix.tables)
	ix.tables = append(ix.tables, table)
	return len(ix.tables) - 1
}

// slot returns id's slot, 0 when the id lies outside the table. Caller
// holds at least the read lock.
func (ix *ownerIndex) slot(id int64) uint32 {
	if id < 0 || id >= int64(len(ix.slots)) {
		return 0
	}
	return ix.slots[id]
}

// record notes that id lives in table, overwriting any earlier owner.
func (ix *ownerIndex) record(id int64, table string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := int64(len(ix.slots))
	if id < 0 || id > 2*n+ownerSlack {
		return // stays unknown
	}
	if id >= n {
		ix.slots = append(ix.slots, make([]uint32, id+1-n)...)
	}
	ix.slots[id] = uint32(ix.position(table) + 1)
}

// lookup returns the owning table of id, or "" when the id was never
// recorded (e.g. a database populated outside the shredder).
func (ix *ownerIndex) lookup(id int64) (string, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if s := ix.slot(id); s != 0 {
		return ix.tables[s-1], true
	}
	return "", false
}

// forget removes ids from the index (deleted tuples).
func (ix *ownerIndex) forget(ids ...int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, id := range ids {
		if ix.slot(id) != 0 {
			ix.slots[id] = 0
		}
	}
}

// group splits ids by owning table with one read lock: a counting sort by
// table position, so each group keeps the order ids had and every group
// shares one backing array.
func (ix *ownerIndex) group(ids []int64) (owned []OwnedIDs, unknown []int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// Count the ids of each slot (slot 0 holds the unknown ones), then turn
	// the counts into where each slot's ids go: the unknown ids first, then
	// each table in position order.
	next := make([]int, len(ix.tables)+1)
	for _, id := range ids {
		next[ix.slot(id)]++
	}
	groups, off := 0, 0
	for s, c := range next {
		if s > 0 && c > 0 {
			groups++
		}
		next[s], off = off, off+c
	}
	sorted := make([]int64, len(ids))
	for _, id := range ids {
		s := ix.slot(id)
		sorted[next[s]] = id
		next[s]++
	}
	// next[s] now ends slot s's ids, which begin where slot s-1's end.
	unknown = sorted[:next[0]:next[0]]
	if groups > 0 {
		owned = make([]OwnedIDs, 0, groups)
	}
	for s := 1; s < len(next); s++ {
		if begin, end := next[s-1], next[s]; end > begin {
			owned = append(owned, OwnedIDs{Table: ix.tables[s-1], IDs: sorted[begin:end:end]})
		}
	}
	return owned, unknown
}

// OwnedIDs is one table's share of the ids given to GroupByOwner.
type OwnedIDs struct {
	Table string
	IDs   []int64
}

// RecordOwner notes that the tuple with the given universal identifier was
// shredded into table. The shredder calls this for every inserted node.
func (m *Mapping) RecordOwner(id int64, table string) {
	if m.owners == nil {
		return
	}
	m.owners.record(id, table)
}

// OwnerTable returns the table owning the id, or "" when unknown.
func (m *Mapping) OwnerTable(id int64) string {
	if m.owners == nil {
		return ""
	}
	t, _ := m.owners.lookup(id)
	return t
}

// ForgetOwner drops deleted ids from the routing index.
func (m *Mapping) ForgetOwner(ids ...int64) {
	if m.owners == nil {
		return
	}
	m.owners.forget(ids...)
}

// GroupByOwner splits ids by their owning table, tables in the mapping's
// declaration order, each table's ids in the order given. Ids the index
// does not know (hand-loaded databases, mappings built without shredding)
// are returned in unknown; the caller falls back to scanning every table
// for those.
func (m *Mapping) GroupByOwner(ids []int64) (owned []OwnedIDs, unknown []int64) {
	if m.owners == nil {
		return nil, ids
	}
	return m.owners.group(ids)
}
