package sqldb

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Engine selects the physical storage layout of a database.
type Engine uint8

const (
	// EngineRow is the row-major layout ("pgsim", the PostgreSQL-like
	// configuration of the evaluation), run by the row-at-a-time executor.
	EngineRow Engine = iota
	// EngineColumn is the column-major layout ("monetsim", the MonetDB
	// configuration): typed column vectors scanned, filtered and updated by
	// the vectorized batch operators (see vector.go). Results are
	// byte-identical to EngineRow; only the physical operators differ.
	EngineColumn
)

// String names the engine as the benchmark harness prints it.
func (e Engine) String() string {
	if e == EngineColumn {
		return "monetsim"
	}
	return "pgsim"
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColumnType
	// PrimaryKey marks the (single-column) primary key; it is unique and
	// hash-indexed automatically.
	PrimaryKey bool
}

// ForeignKey is a declarative single-column reference; it is recorded in the
// catalog (the shredded schema uses it for pid → parent id) but not
// enforced, matching how bulk shredding loads data parents-first.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Table is a relation: schema plus storage.
type Table struct {
	Name        string
	Columns     []Column
	ForeignKeys []ForeignKey

	store   store
	colIdx  map[string]int
	pkCol   int // -1 when no primary key
	pkIndex *hashIndex

	// version counts mutations; secondary indexes rebuild lazily when their
	// recorded version falls behind.
	version uint64
	secIdx  []*secIndex
	idxMu   sync.Mutex
}

// bump invalidates lazily-maintained secondary indexes.
func (t *Table) bump() { t.version++ }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		return -1
	}
	return i
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.store.liveCount() }

// Database is an in-memory relational database. All public methods are safe
// for concurrent use; statements execute atomically under a readers-writer
// lock (the autocommit model — the paper's workload is single-statement).
type Database struct {
	mu     sync.RWMutex
	engine Engine
	tables map[string]*Table
	order  []string

	// tx is the open explicit transaction, nil when auto-committing.
	tx *txState

	// stats; atomic so the query path never needs the exclusive lock.
	stmtCount atomic.Uint64

	// cache is the parsed-statement LRU (see plancache.go); nil disables.
	cache *planCache

	// observability (see observe.go); all nil/zero when disabled.
	m          *dbMetrics
	slowLog    io.Writer
	slowThresh time.Duration
}

// Open creates an empty database with the given storage engine.
func Open(engine Engine) *Database {
	return &Database{
		engine: engine,
		tables: map[string]*Table{},
		cache:  newPlanCache(DefaultPlanCacheSize),
	}
}

// Engine returns the database's storage engine.
func (db *Database) Engine() Engine { return db.engine }

// TableNames returns the table names in creation order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Table returns the named table's schema information, or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// StatementCount returns how many statements have been executed; the
// benchmark harness reports it alongside timings.
func (db *Database) StatementCount() uint64 {
	return db.stmtCount.Load()
}

// createTable registers a new table.
func (db *Database) createTable(name string, cols []Column, fks []ForeignKey) error {
	if db.tables[name] != nil {
		return fmt.Errorf("sqldb: table %q already exists", name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("sqldb: table %q has no columns", name)
	}
	t := &Table{Name: name, Columns: cols, ForeignKeys: fks, colIdx: map[string]int{}, pkCol: -1}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return fmt.Errorf("sqldb: table %q: duplicate column %q", name, c.Name)
		}
		t.colIdx[c.Name] = i
		if c.PrimaryKey {
			if t.pkCol >= 0 {
				return fmt.Errorf("sqldb: table %q: multiple primary keys", name)
			}
			t.pkCol = i
		}
	}
	for _, fk := range fks {
		if t.ColumnIndex(fk.Column) < 0 {
			return fmt.Errorf("sqldb: table %q: foreign key on unknown column %q", name, fk.Column)
		}
	}
	if db.engine == EngineColumn {
		t.store = newVecStore(cols)
	} else {
		t.store = newRowStore(len(cols))
	}
	if t.pkCol >= 0 {
		t.pkIndex = newHashIndex()
	}
	db.tables[name] = t
	db.order = append(db.order, name)
	return nil
}

// insertRow appends one tuple, maintaining the primary-key index and its
// uniqueness; it returns the new rid for transaction logging.
func (t *Table) insertRow(vals []Value) (int, error) {
	if len(vals) != len(t.Columns) {
		return 0, fmt.Errorf("sqldb: table %q: %d values for %d columns", t.Name, len(vals), len(t.Columns))
	}
	row := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := coerce(v, t.Columns[i].Type)
		if err != nil {
			return 0, fmt.Errorf("sqldb: table %q column %q: %w", t.Name, t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	t.bump()
	if t.pkCol >= 0 {
		k := row[t.pkCol]
		if _, exists := t.pkIndex.lookup(k); exists {
			return 0, fmt.Errorf("sqldb: table %q: duplicate primary key %s", t.Name, row[t.pkCol])
		}
		rid := t.store.append(row)
		t.pkIndex.insert(k, rid)
		return rid, nil
	}
	return t.store.append(row), nil
}

// Stats summarizes the database contents for diagnostics and the size
// experiment of the evaluation.
type Stats struct {
	Engine Engine
	Tables int
	Rows   int
	// PerTable maps table name to live row count.
	PerTable map[string]int
}

// Stats computes current statistics.
func (db *Database) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Engine: db.engine, Tables: len(db.tables), PerTable: map[string]int{}}
	for name, t := range db.tables {
		n := t.RowCount()
		s.PerTable[name] = n
		s.Rows += n
	}
	return s
}

// String renders the stats compactly with deterministic ordering.
func (s Stats) String() string {
	names := make([]string, 0, len(s.PerTable))
	for n := range s.PerTable {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d tables, %d rows", s.Engine, s.Tables, s.Rows)
	for _, n := range names {
		fmt.Fprintf(&b, "\n  %-16s %d", n, s.PerTable[n])
	}
	return b.String()
}
