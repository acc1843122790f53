package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xmlac/internal/obs"
)

// Tests for the column engine's typed vectors and operators (vector.go): the typed-vector
// store's own semantics, the byte/int predicate compilers against the
// reference Value.Compare, the planner's EXPLAIN annotation, the bulk
// UPDATE fast path (including its transaction fallback), and the
// store_vector_* metrics.

func openVec(t *testing.T) *Database {
	t.Helper()
	db := Open(EngineColumn)
	mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`)
	mustExec(t, db, `CREATE INDEX n_pid ON n (pid)`)
	mustExec(t, db, `CREATE INDEX n_s ON n (s)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 0, 'root', '+'), (2, 1, 'a', '-'), (3, 1, 'b', '+'), (4, 2, 'a', '-'), (5, 2, NULL, '+')`)
	return db
}

// TestVecStoreKinds: the store picks typed vectors from the declared
// column types, and TEXT columns promote from byte to string vectors
// exactly once, preserving every value.
func TestVecStoreKinds(t *testing.T) {
	db := openVec(t)
	vs := db.Table("n").store.(*vecStore)
	if k := vs.cols[0].kind; k != vInt {
		t.Fatalf("id column kind = %d, want vInt", k)
	}
	if k := vs.cols[3].kind; k != vByte {
		t.Fatalf("s column kind = %d, want vByte (single-byte signs)", k)
	}
	if k := vs.cols[2].kind; k != vStr {
		t.Fatalf("v column kind = %d, want vStr (multi-byte values promote)", k)
	}
	// Promotion preserved the earlier single-byte values and the NULL.
	res := mustExec(t, db, `SELECT v FROM n ORDER BY id`)
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		if row[0].IsNull() {
			got[i] = "<null>"
		} else {
			got[i] = row[0].S
		}
	}
	want := []string{"root", "a", "b", "a", "<null>"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("v column after promotion = %v, want %v", got, want)
		}
	}
	// The sign column stays a byte vector across updates of single-byte
	// values — the property that keeps sign resets memset-like.
	mustExec(t, db, `UPDATE n SET s = '-'`)
	if k := vs.cols[3].kind; k != vByte {
		t.Fatalf("s column promoted to kind %d; single-byte updates must keep the byte vector", k)
	}
}

// TestByteMatchTableAgreesWithCompare: the 256-entry predicate tables are
// computed through Value.Compare, so they agree with it on every byte for
// every operator and literal shape.
func TestByteMatchTableAgreesWithCompare(t *testing.T) {
	lits := []Value{NewText("+"), NewText("m"), NewText("abc"), NewInt(7), NewText("7"), NewText(" 7 "), Null}
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe} {
		for _, lit := range lits {
			tbl := byteMatchTable(op, lit)
			for b := 0; b < 256; b++ {
				v := Value{Kind: KindText, S: byteStrings[b]}
				if tbl[b] != v.Compare(op, lit) {
					t.Fatalf("byteMatchTable(%v, %v)[%d] = %v, Compare = %v", op, lit, b, tbl[b], v.Compare(op, lit))
				}
			}
		}
	}
}

// TestCmpIntLitAgreesWithCompare: the compiled int predicate replicates the
// row executor's comparison, including the float coercion of numeric text
// literals and the only-"<>"-matches rule for unparsable text.
func TestCmpIntLitAgreesWithCompare(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lits := []Value{NewInt(0), NewInt(-3), NewInt(42), NewText("42"), NewText("4.5"), NewText(" 10 "), NewText("x"), NewText("")}
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe} {
		for _, lit := range lits {
			cl := newCmpIntLit(op, lit)
			for i := 0; i < 200; i++ {
				n := int64(r.Intn(101) - 50)
				v := Value{Kind: KindInt, I: n}
				if cl.match(n) != v.Compare(op, lit) {
					t.Fatalf("cmpIntLit(%v, %v).match(%d) = %v, Compare = %v", op, lit, n, cl.match(n), v.Compare(op, lit))
				}
			}
		}
	}
}

// TestVectorExplainAnnotation: the table's store surfaces in EXPLAIN as
// scan=vector on the column engine and scan=row on the row engine, across
// access paths and statement kinds.
func TestVectorExplainAnnotation(t *testing.T) {
	explain := func(db *Database, sql string) string {
		t.Helper()
		res, err := db.Exec("EXPLAIN " + sql)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", sql, err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(row[0].S)
			b.WriteString("\n")
		}
		return b.String()
	}
	for _, sql := range []string{
		`SELECT id FROM n WHERE s = '+'`,
		`SELECT id FROM n WHERE pid > 0 AND v = 'a'`,
		`SELECT id FROM n WHERE id = 3`,
		`SELECT id FROM n`,
		`UPDATE n SET s = '-' WHERE id IN (1, 2)`,
		`DELETE FROM n WHERE v = 'a'`,
	} {
		vecPlan := explain(openVec(t), sql)
		if !strings.Contains(vecPlan, "[scan=vector]") || strings.Contains(vecPlan, "[scan=row]") {
			t.Errorf("column engine plan for %s lacks scan=vector:\n%s", sql, vecPlan)
		}
		rowDB := Open(EngineRow)
		mustExec(t, rowDB, `CREATE TABLE n (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`)
		mustExec(t, rowDB, `INSERT INTO n VALUES (1, 0, 'root', '+')`)
		rowPlan := explain(rowDB, sql)
		if !strings.Contains(rowPlan, "[scan=row]") || strings.Contains(rowPlan, "[scan=vector]") {
			t.Errorf("row engine plan for %s lacks scan=row:\n%s", sql, rowPlan)
		}
	}
}

// TestExplainUncoercibleKey pins the plan of a primary-key equality whose
// literal does not coerce to the key's type, so the point lookup matches
// nothing and leaves its filter to the plan. The row engine lists that
// filter; the column engine lists a named-column SELECT over one table as
// its scan alone and lists the filter only under SELECT *.
func TestExplainUncoercibleKey(t *testing.T) {
	filtered := "scan n (n): pk index point lookup [scan=%s] → 0 rows\nfilter: id = 'x' → 0 tuples\noutput: 0 rows\n"
	scanOnly := "scan n (n): pk index point lookup [scan=vector] → 0 rows\noutput: 0 rows\n"
	for _, c := range []struct {
		engine    Engine
		sql, want string
	}{
		{EngineRow, `SELECT id FROM n WHERE id = 'x'`, fmt.Sprintf(filtered, "row")},
		{EngineColumn, `SELECT id FROM n WHERE id = 'x'`, scanOnly},
		{EngineRow, `SELECT * FROM n WHERE id = 'x'`, fmt.Sprintf(filtered, "row")},
		{EngineColumn, `SELECT * FROM n WHERE id = 'x'`, fmt.Sprintf(filtered, "vector")},
	} {
		db := Open(c.engine)
		mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`)
		mustExec(t, db, `INSERT INTO n VALUES (1, 0, 'root', '+'), (2, 1, 'a', '-')`)
		res := mustExec(t, db, "EXPLAIN "+c.sql)
		var got strings.Builder
		for _, row := range res.Rows {
			got.WriteString(row[0].S + "\n")
		}
		if got.String() != c.want {
			t.Errorf("engine %d, EXPLAIN %s:\n%swant:\n%s", c.engine, c.sql, got.String(), c.want)
		}
	}
}

// TestVectorBulkUpdateAndRollback: the WHERE-less sign reset and the IN
// rewrite take the bulk path outside transactions, and inside a
// transaction the engine falls back to the undo-logged row path so
// ROLLBACK restores the signs.
func TestVectorBulkUpdateAndRollback(t *testing.T) {
	db := openVec(t)
	res := mustExec(t, db, `UPDATE n SET s = '-'`)
	if res.Affected != 5 {
		t.Fatalf("reset affected %d rows, want 5", res.Affected)
	}
	res = mustExec(t, db, `UPDATE n SET s = '+' WHERE id IN (2, 4)`)
	if res.Affected != 2 {
		t.Fatalf("rewrite affected %d rows, want 2", res.Affected)
	}
	count := func() int64 {
		r := mustExec(t, db, `SELECT COUNT(*) FROM n WHERE s = '+'`)
		return r.Rows[0][0].I
	}
	if n := count(); n != 2 {
		t.Fatalf("accessible count = %d, want 2", n)
	}
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `UPDATE n SET s = '+'`)
	if n := count(); n != 5 {
		t.Fatalf("in-transaction count = %d, want 5", n)
	}
	mustExec(t, db, `ROLLBACK`)
	if n := count(); n != 2 {
		t.Fatalf("post-rollback count = %d, want 2 (rollback must undo signs on the column engine)", n)
	}
}

// TestVectorMetrics: the vectorized operators feed the
// store_vector_rows_total / store_vector_batches_total counters with the
// engine label, and the row engine never touches its own.
func TestVectorMetrics(t *testing.T) {
	db := openVec(t)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	mustExec(t, db, `SELECT id FROM n WHERE s = '+'`)
	mustExec(t, db, `UPDATE n SET s = '-'`)
	snap := reg.Snapshot()
	rows := snap.Counters[`store_vector_rows_total{engine="column"}`]
	batches := snap.Counters[`store_vector_batches_total{engine="column"}`]
	if rows == 0 || batches == 0 {
		t.Fatalf("vector counters after vectorized statements: rows=%d batches=%d, want both > 0", rows, batches)
	}

	rowDB := Open(EngineRow)
	mustExec(t, rowDB, `CREATE TABLE n (id INT PRIMARY KEY, s TEXT)`)
	rowReg := obs.NewRegistry()
	rowDB.SetMetrics(rowReg)
	mustExec(t, rowDB, `INSERT INTO n VALUES (1, '+')`)
	mustExec(t, rowDB, `SELECT id FROM n WHERE s = '+'`)
	for name, v := range rowReg.Snapshot().Counters {
		if strings.HasPrefix(name, "store_vector_") && v != 0 {
			t.Fatalf("row engine fed vector counter %s = %d", name, v)
		}
	}
}

// TestVectorBatchesMath: rows→batches conversion for the metrics.
func TestVectorBatchesMath(t *testing.T) {
	for _, c := range []struct {
		rows int
		want int64
	}{{0, 0}, {-3, 0}, {1, 1}, {vectorBatch, 1}, {vectorBatch + 1, 2}, {5 * vectorBatch, 5}} {
		if got := vectorBatches(c.rows); got != c.want {
			t.Errorf("vectorBatches(%d) = %d, want %d", c.rows, got, c.want)
		}
	}
}

// TestVectorPlanCacheReuse: a cached parsed statement stays correct across
// storage changes the plan cannot see — the byte→string promotion happens
// at execution time.
func TestVectorPlanCacheReuse(t *testing.T) {
	db := Open(EngineColumn)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	q := `SELECT id FROM t WHERE v = 'a'`
	if got := len(mustExec(t, db, q).Rows); got != 1 {
		t.Fatalf("pre-promotion rows = %d, want 1", got)
	}
	// Promote the column between two executions of the same cached text.
	mustExec(t, db, `UPDATE t SET v = 'long' WHERE id = 2`)
	if got := len(mustExec(t, db, q).Rows); got != 1 {
		t.Fatalf("post-promotion rows = %d, want 1", got)
	}
	mustExec(t, db, `UPDATE t SET v = 'long' WHERE id = 1`)
	if got := len(mustExec(t, db, q).Rows); got != 0 {
		t.Fatalf("rows after overwriting 'a' = %d, want 0", got)
	}
}

// TestConcurrentReadersDuringBulkSignUpdate is the -race hammer of the
// annotation-vs-request interleaving the worker pool produces: cached
// readers issue sign lookups and joins while a writer loops full sign
// resets and IN-list rewrites on the column store. The statement layer
// must serialize them (readers share the RWMutex; the bulk path runs
// under the write lock), so every read sees a consistent column.
func TestConcurrentReadersDuringBulkSignUpdate(t *testing.T) {
	db := Open(EngineColumn)
	mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, pid INT, s TEXT)`)
	mustExec(t, db, `CREATE INDEX n_s ON n (s)`)
	var ins strings.Builder
	ins.WriteString(`INSERT INTO n VALUES `)
	for i := 0; i < 400; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, '+')", i+1, i/2)
	}
	mustExec(t, db, ins.String())

	iters := 60
	if testing.Short() {
		iters = 15
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := []string{
				`SELECT COUNT(*) FROM n WHERE s = '+'`,
				`SELECT a.id FROM n a, n b WHERE a.pid = b.id AND b.s = '+' AND a.s = '+'`,
				`SELECT id FROM n WHERE s = '+' AND id < 50`,
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The plan cache shares parsed ASTs across these goroutines.
				if _, err := db.Exec(queries[i%len(queries)]); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < iters; i++ {
		sign := "'-'"
		if i%2 == 0 {
			sign = "'+'"
		}
		mustExec(t, db, `UPDATE n SET s = `+sign)
		mustExec(t, db, `UPDATE n SET s = '+' WHERE id IN (1, 7, 30, 199, 400)`)
	}
	close(stop)
	wg.Wait()
	// Writer finished on an IN rewrite after a '-' reset (odd iters end on
	// sign='-'): exactly the five rewritten ids are accessible.
	res := mustExec(t, db, `SELECT COUNT(*) FROM n WHERE s = '+'`)
	if got := res.Rows[0][0].I; got != 5 && got != 400 {
		t.Fatalf("final accessible count = %d, want 5 or 400", got)
	}
}
