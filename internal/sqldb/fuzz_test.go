package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mutateSQL(r *rand.Rand, s string) string {
	b := []byte(s)
	n := 1 + r.Intn(5)
	for i := 0; i < n && len(b) > 0; i++ {
		switch r.Intn(3) {
		case 0:
			b[r.Intn(len(b))] = byte(r.Intn(128))
		case 1:
			pos := r.Intn(len(b) + 1)
			b = append(b[:pos], append([]byte{byte(r.Intn(128))}, b[pos:]...)...)
		case 2:
			pos := r.Intn(len(b))
			b = append(b[:pos], b[pos+1:]...)
		}
	}
	return string(b)
}

var sqlSeeds = []string{
	`CREATE TABLE t (id INT PRIMARY KEY, v TEXT, FOREIGN KEY (id) REFERENCES u (id))`,
	`INSERT INTO t VALUES (1, 'a'), (2, NULL)`,
	`SELECT a.id, b.v FROM t a, u b WHERE a.id = b.pid AND b.v > 10`,
	`(SELECT id FROM t UNION SELECT id FROM u) EXCEPT SELECT id FROM w`,
	`UPDATE t SET v = 'x', w = 2 WHERE id IN (1, 2, 3)`,
	`DELETE FROM t WHERE v <> 'y'`,
	`BEGIN`, `COMMIT`, `ROLLBACK`,
}

// TestQuickSQLParseNeverPanics: arbitrary input never panics the SQL
// parser; on a full Database, executing arbitrary statements never panics
// either (errors are fine).
func TestQuickSQLParseNeverPanics(t *testing.T) {
	db := Open(EngineColumn)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a')`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in string
		if r.Intn(3) == 0 {
			raw := make([]byte, r.Intn(60))
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			in = string(raw)
		} else {
			in = mutateSQL(r, sqlSeeds[r.Intn(len(sqlSeeds))])
		}
		_, _ = db.Exec(in) //nolint:errcheck // only panics matter here
		// Leave no transaction dangling for the next iteration.
		if db.InTransaction() {
			_ = db.Rollback()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// --- differential engine fuzzing ---
//
// The column engine's vectorized operators (vector.go) re-implement
// filters, joins, index rebuilds and bulk updates over typed vectors. Any
// semantic divergence from the row executor must surface as a result difference, so
// the differential fuzzer replays randomly generated statement scripts
// against every engine and requires byte-identical outcomes — rows, column
// headers, affected counts and error messages alike. (Statement results
// are deterministic on every engine: scans emit rids in ascending order,
// index buckets keep insertion order, and joins, set operations and
// DISTINCT preserve probe order.)

// diffScript generates one randomized but mostly-well-formed statement
// script over the shredded-schema shape (id/pid/v/s tables, pid and s
// secondary indexes). It deliberately covers the vectorized operators'
// edge cases: mixed int/text comparisons, NULLs, IN lists, multi-byte TEXT
// values (byte→string promotion), transactions and the occasional invalid
// statement (errors must match too), and UNION chains, which every engine
// evaluates in one pass.
func diffScript(r *rand.Rand) []string {
	stmts := []string{
		`CREATE TABLE t1 (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`,
		`CREATE TABLE t2 (id INT PRIMARY KEY, pid INT, v TEXT, s TEXT)`,
		`CREATE INDEX t1_pid ON t1 (pid)`,
		`CREATE INDEX t1_s ON t1 (s)`,
		`CREATE INDEX t2_pid ON t2 (pid)`,
		`CREATE INDEX t2_s ON t2 (s)`,
	}
	tbl := func() string { return []string{"t1", "t2"}[r.Intn(2)] }
	col := func() string { return []string{"id", "pid", "v", "s"}[r.Intn(4)] }
	op := func() string { return []string{"=", "<>", "<", "<=", ">", ">="}[r.Intn(6)] }
	lit := func() string {
		switch r.Intn(8) {
		case 0:
			return "NULL"
		case 1, 2:
			return fmt.Sprintf("%d", r.Intn(30))
		case 3:
			return "'+'"
		case 4:
			return "'-'"
		case 5:
			return fmt.Sprintf("'%c'", 'a'+rune(r.Intn(4)))
		case 6:
			return fmt.Sprintf("'%d'", r.Intn(30)) // numeric text: float coercion
		default:
			return []string{"'abc'", "'zz'", "''", "' 5 '"}[r.Intn(4)] // promotion fodder
		}
	}
	inList := func() string {
		n := 1 + r.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = lit()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	pred := func(alias string) string {
		c := col()
		if alias != "" {
			c = alias + "." + c
		}
		if r.Intn(5) == 0 {
			return fmt.Sprintf("%s IN %s", c, inList())
		}
		return fmt.Sprintf("%s %s %s", c, op(), lit())
	}
	where := func(alias string) string {
		switch r.Intn(4) {
		case 0:
			return ""
		case 1:
			return " WHERE " + pred(alias)
		default:
			return " WHERE " + pred(alias) + " AND " + pred(alias)
		}
	}
	nextID := 1
	insert := func() string {
		n := 1 + r.Intn(6)
		rows := make([]string, n)
		for i := range rows {
			id := nextID
			nextID++
			if r.Intn(12) == 0 {
				id = 1 + r.Intn(nextID) // occasional duplicate-pk error
			}
			rows[i] = fmt.Sprintf("(%d, %d, %s, %s)", id, r.Intn(20), lit(), []string{"'+'", "'-'"}[r.Intn(2)])
		}
		return fmt.Sprintf("INSERT INTO %s VALUES %s", tbl(), strings.Join(rows, ", "))
	}
	// unionChain is a 3–12-operand UNION chain over one projection: one
	// operand now and then parenthesized with its own ORDER BY and LIMIT,
	// the chain now and then ending in EXCEPT or ordered as a whole.
	unionChain := func() string {
		cols := []string{"id", "pid", "v", "id, s"}[r.Intn(4)]
		operand := func() string { return fmt.Sprintf("SELECT %s FROM %s%s", cols, tbl(), where("")) }
		parts := make([]string, 3+r.Intn(10))
		for i := range parts {
			parts[i] = operand()
		}
		if r.Intn(3) == 0 {
			i := r.Intn(len(parts))
			parts[i] = fmt.Sprintf("(%s ORDER BY 1 DESC LIMIT %d)", parts[i], r.Intn(4))
		}
		chain := strings.Join(parts, " UNION ")
		switch r.Intn(4) {
		case 0:
			chain += " EXCEPT " + operand()
		case 1:
			chain += " ORDER BY 1"
		}
		return chain
	}
	for i := 0; i < 6; i++ {
		stmts = append(stmts, insert())
	}
	for i := 0; i < 40; i++ {
		switch r.Intn(13) {
		case 0, 1:
			stmts = append(stmts, insert())
		case 2:
			stmts = append(stmts, fmt.Sprintf("SELECT id, v FROM %s%s ORDER BY id", tbl(), where("")))
		case 3:
			stmts = append(stmts, fmt.Sprintf("SELECT COUNT(*) FROM %s%s", tbl(), where("")))
		case 4:
			stmts = append(stmts, fmt.Sprintf(
				"SELECT a.id, b.id FROM t1 a, t2 b WHERE a.id = b.pid AND %s ORDER BY 1, 2", pred("a")))
		case 5:
			stmts = append(stmts, fmt.Sprintf(
				"SELECT DISTINCT s FROM %s%s ORDER BY s", tbl(), where("")))
		case 6:
			setOp := []string{"UNION", "EXCEPT", "INTERSECT"}[r.Intn(3)]
			stmts = append(stmts, fmt.Sprintf(
				"SELECT id FROM t1%s %s SELECT id FROM t2%s", where(""), setOp, where("")))
		case 7:
			stmts = append(stmts, fmt.Sprintf("UPDATE %s SET s = %s",
				tbl(), []string{"'+'", "'-'"}[r.Intn(2)]))
		case 8:
			stmts = append(stmts, fmt.Sprintf("UPDATE %s SET s = '+' WHERE id IN %s", tbl(), inList()))
		case 9:
			stmts = append(stmts, fmt.Sprintf("UPDATE %s SET v = %s%s", tbl(), lit(), where("")))
		case 10:
			stmts = append(stmts, fmt.Sprintf("DELETE FROM %s%s", tbl(), where("")))
		case 11:
			stmts = append(stmts, unionChain())
		default:
			if r.Intn(6) == 0 {
				stmts = append(stmts, fmt.Sprintf("SELECT nope FROM %s", tbl())) // identical errors
			} else {
				end := []string{"COMMIT", "ROLLBACK"}[r.Intn(2)]
				stmts = append(stmts, "BEGIN", insert(),
					fmt.Sprintf("UPDATE %s SET s = '-' WHERE pid %s %s", tbl(), op(), lit()), end)
			}
		}
	}
	return stmts
}

// TestDifferentialEngines replays generated scripts against the row and
// the column engine and requires identical results and errors statement
// by statement. Divergence in any vectorized operator —
// filter, selection refinement, join, index rebuild, bulk update — fails
// here with the offending statement. Every SELECT block of a query, set
// operands included, must also match the frozen reference executor
// (ref_exec_test.go) on each engine, rows in order or error.
func TestDifferentialEngines(t *testing.T) {
	scripts := 30
	if testing.Short() {
		scripts = 6
	}
	engines := []Engine{EngineRow, EngineColumn}
	for seed := 0; seed < scripts; seed++ {
		stmts := diffScript(rand.New(rand.NewSource(int64(seed))))
		dbs := make([]*Database, len(engines))
		for i, e := range engines {
			dbs[i] = Open(e)
		}
		for si, sql := range stmts {
			if q, ok := parseQuery(sql); ok {
				for i, db := range dbs {
					if d := refMismatch(db, q); d != "" {
						t.Fatalf("seed %d stmt %d %q on %s: %s", seed, si, sql, engines[i], d)
					}
				}
			}
			ref, refErr := dbs[0].Exec(sql)
			for i := 1; i < len(dbs); i++ {
				res, err := dbs[i].Exec(sql)
				if (err != nil) != (refErr != nil) ||
					(err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("seed %d stmt %d %q:\n%s error = %v\n%s error = %v",
						seed, si, sql, engines[i], err, engines[0], refErr)
				}
				if err == nil && !reflect.DeepEqual(res, ref) {
					t.Fatalf("seed %d stmt %d %q:\n%s = %+v\n%s = %+v",
						seed, si, sql, engines[i], res, engines[0], ref)
				}
			}
		}
	}
}

// parseQuery parses sql and reports whether it is a query.
func parseQuery(sql string) (*Query, bool) {
	st, err := ParseStatement(sql)
	if err != nil {
		return nil, false
	}
	q, ok := st.(*Query)
	return q, ok
}
