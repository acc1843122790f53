package sqldb

import (
	"fmt"
)

// Transactions. The engine supports explicit BEGIN / COMMIT / ROLLBACK with
// an in-memory undo log: every mutation inside a transaction records its
// inverse, and ROLLBACK replays the inverses in reverse order. Outside a
// transaction every statement auto-commits (the paper's workload model).
// Transactions serialize under the database's statement lock, so there is
// no concurrent-writer interleaving to isolate against.
//
// Callers that need multi-statement atomicity (e.g. applying a batch of
// tuple deletions plus per-tuple sign updates as one unit) wrap the work in
// WithTransaction.

// BeginStmt is BEGIN.
type BeginStmt struct{}

// CommitStmt is COMMIT.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

func (*BeginStmt) stmt()    {}
func (*CommitStmt) stmt()   {}
func (*RollbackStmt) stmt() {}

// undoEntry is one inverse operation.
type undoEntry interface {
	undo(db *Database) error
}

// undoInsert removes an inserted row.
type undoInsert struct {
	table string
	rid   int
}

func (u undoInsert) undo(db *Database) error {
	t := db.tables[u.table]
	if t == nil {
		return fmt.Errorf("sqldb: rollback: table %q vanished", u.table)
	}
	if t.pkIndex != nil {
		t.pkIndex.remove(t.store.get(u.rid, t.pkCol))
	}
	t.store.delete(u.rid)
	t.bump()
	return nil
}

// undoUpdate restores one cell.
type undoUpdate struct {
	table string
	rid   int
	col   int
	old   Value
}

func (u undoUpdate) undo(db *Database) error {
	t := db.tables[u.table]
	if t == nil {
		return fmt.Errorf("sqldb: rollback: table %q vanished", u.table)
	}
	if u.col == t.pkCol && t.pkIndex != nil {
		cur := t.store.get(u.rid, u.col)
		if !cur.Equal(u.old) {
			t.pkIndex.remove(cur)
			t.pkIndex.insert(u.old, u.rid)
		}
	}
	t.store.set(u.rid, u.col, u.old)
	t.bump()
	return nil
}

// undoDelete resurrects a deleted row.
type undoDelete struct {
	table string
	rid   int
	row   []Value
}

func (u undoDelete) undo(db *Database) error {
	t := db.tables[u.table]
	if t == nil {
		return fmt.Errorf("sqldb: rollback: table %q vanished", u.table)
	}
	t.store.restore(u.rid, u.row)
	if t.pkIndex != nil {
		t.pkIndex.insert(u.row[t.pkCol], u.rid)
	}
	t.bump()
	return nil
}

// undoCreateTable drops a table created inside the transaction.
type undoCreateTable struct {
	name string
}

func (u undoCreateTable) undo(db *Database) error {
	delete(db.tables, u.name)
	for i, n := range db.order {
		if n == u.name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	return nil
}

// txState is the live transaction, nil when auto-committing.
type txState struct {
	log []undoEntry
}

func (db *Database) record(e undoEntry) {
	if db.tx != nil {
		db.tx.log = append(db.tx.log, e)
	}
}

// Begin starts an explicit transaction. Nested transactions are rejected.
func (db *Database) Begin() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tx != nil {
		return fmt.Errorf("sqldb: transaction already in progress")
	}
	db.tx = &txState{}
	return nil
}

// Commit makes the transaction's changes permanent.
func (db *Database) Commit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tx == nil {
		return fmt.Errorf("sqldb: no transaction in progress")
	}
	db.tx = nil
	return nil
}

// Rollback undoes every change made since Begin.
func (db *Database) Rollback() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.tx == nil {
		return fmt.Errorf("sqldb: no transaction in progress")
	}
	log := db.tx.log
	db.tx = nil // the log below must not record
	for i := len(log) - 1; i >= 0; i-- {
		if err := log[i].undo(db); err != nil {
			return err
		}
	}
	return nil
}

// InTransaction reports whether an explicit transaction is open.
func (db *Database) InTransaction() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tx != nil
}

// WithTransaction runs fn inside a transaction, committing on nil and
// rolling back on error (the rollback error, if any, is attached).
func (db *Database) WithTransaction(fn func() error) error {
	if err := db.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		if rbErr := db.Rollback(); rbErr != nil {
			return fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
		}
		return err
	}
	return db.Commit()
}
