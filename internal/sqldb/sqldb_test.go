package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// both runs the subtest under each storage engine; the engines must be
// semantically identical (the column engine's batch operators are a fast
// path, never a semantic fork).
func both(t *testing.T, fn func(t *testing.T, db *Database)) {
	t.Helper()
	for _, e := range []Engine{EngineRow, EngineColumn} {
		t.Run(e.String(), func(t *testing.T) {
			fn(t, Open(e))
		})
	}
}

func mustExec(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func setupPeople(t *testing.T, db *Database) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE people (id INT PRIMARY KEY, name TEXT, age INT)`)
	mustExec(t, db, `INSERT INTO people VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dan', 25)`)
}

func TestCreateInsertSelect(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `SELECT name FROM people WHERE age = 25`)
		got := flatten(r)
		sort.Strings(got)
		if !reflect.DeepEqual(got, []string{"bob", "dan"}) {
			t.Fatalf("rows = %v", got)
		}
	})
}

func flatten(r *Result) []string {
	var out []string
	for _, row := range r.Rows {
		var parts []string
		for _, v := range row {
			if v.Kind == KindText {
				parts = append(parts, v.S)
			} else {
				parts = append(parts, v.String())
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestSelectStar(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `SELECT * FROM people WHERE id = 1`)
		if len(r.Rows) != 1 || len(r.Rows[0]) != 3 {
			t.Fatalf("rows = %v", r.Rows)
		}
		if r.Rows[0][1].S != "alice" {
			t.Fatalf("row = %v", r.Rows[0])
		}
	})
}

func TestSelectComparisons(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		cases := []struct {
			sql string
			n   int
		}{
			{`SELECT id FROM people WHERE age > 25`, 2},
			{`SELECT id FROM people WHERE age >= 25`, 4},
			{`SELECT id FROM people WHERE age < 30`, 2},
			{`SELECT id FROM people WHERE age <= 30`, 3},
			{`SELECT id FROM people WHERE age <> 25`, 2},
			{`SELECT id FROM people WHERE age != 25`, 2},
			{`SELECT id FROM people WHERE name = 'bob'`, 1},
			{`SELECT id FROM people WHERE age > 25 AND age < 35`, 1},
			{`SELECT id FROM people WHERE id IN (1, 3, 99)`, 2},
			{`SELECT id FROM people WHERE name IN ('alice')`, 1},
		}
		for _, c := range cases {
			if r := mustExec(t, db, c.sql); len(r.Rows) != c.n {
				t.Errorf("%s: %d rows, want %d", c.sql, len(r.Rows), c.n)
			}
		}
	})
}

func TestCountStar(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `SELECT COUNT(*) FROM people WHERE age = 25`)
		if r.Rows[0][0].I != 2 {
			t.Fatalf("count = %v", r.Rows[0][0])
		}
	})
}

func TestJoin(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		mustExec(t, db, `CREATE TABLE pets (id INT PRIMARY KEY, owner INT, species TEXT)`)
		mustExec(t, db, `INSERT INTO pets VALUES (10, 1, 'cat'), (11, 1, 'dog'), (12, 3, 'fish')`)
		r := mustExec(t, db, `SELECT p.name, q.species FROM people p, pets q WHERE p.id = q.owner`)
		got := flatten(r)
		sort.Strings(got)
		want := []string{"alice|cat", "alice|dog", "carol|fish"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rows = %v", got)
		}
	})
}

func TestThreeWayJoinChain(t *testing.T) {
	// Models the shredded parent-child chains: patients → patient → treatment.
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE a (id INT PRIMARY KEY)`)
		mustExec(t, db, `CREATE TABLE b (id INT PRIMARY KEY, pid INT)`)
		mustExec(t, db, `CREATE TABLE c (id INT PRIMARY KEY, pid INT, v TEXT)`)
		mustExec(t, db, `INSERT INTO a VALUES (1), (2)`)
		mustExec(t, db, `INSERT INTO b VALUES (10, 1), (11, 1), (12, 2)`)
		mustExec(t, db, `INSERT INTO c VALUES (100, 10, 'x'), (101, 11, 'y'), (102, 12, 'x')`)
		r := mustExec(t, db, `SELECT c.id FROM a, b, c WHERE b.pid = a.id AND c.pid = b.id AND c.v = 'x'`)
		got := ids(r)
		if !reflect.DeepEqual(got, []int64{100, 102}) {
			t.Fatalf("ids = %v", got)
		}
	})
}

func ids(r *Result) []int64 {
	var out []int64
	for _, row := range r.Rows {
		out = append(out, row[0].I)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCrossProduct(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE x (v INT)`)
		mustExec(t, db, `CREATE TABLE y (w INT)`)
		mustExec(t, db, `INSERT INTO x VALUES (1), (2)`)
		mustExec(t, db, `INSERT INTO y VALUES (3), (4), (5)`)
		r := mustExec(t, db, `SELECT v, w FROM x, y`)
		if len(r.Rows) != 6 {
			t.Fatalf("cross product rows = %d", len(r.Rows))
		}
	})
}

func TestSelfJoinAliases(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `SELECT p.name, q.name FROM people p, people q WHERE p.age = q.age AND p.id < q.id`)
		got := flatten(r)
		if !reflect.DeepEqual(got, []string{"bob|dan"}) {
			t.Fatalf("rows = %v", got)
		}
	})
}

func TestUnionExceptIntersect(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		// UNION dedups.
		r := mustExec(t, db, `SELECT age FROM people UNION SELECT age FROM people`)
		if len(r.Rows) != 3 {
			t.Fatalf("UNION rows = %d, want 3 (25, 30, 35 deduped)", len(r.Rows))
		}
		r = mustExec(t, db, `SELECT id FROM people EXCEPT SELECT id FROM people WHERE age = 25`)
		if got := ids(r); !reflect.DeepEqual(got, []int64{1, 3}) {
			t.Fatalf("EXCEPT ids = %v", got)
		}
		r = mustExec(t, db, `SELECT id FROM people WHERE age >= 30 INTERSECT SELECT id FROM people WHERE age <= 30`)
		if got := ids(r); !reflect.DeepEqual(got, []int64{1}) {
			t.Fatalf("INTERSECT ids = %v", got)
		}
	})
}

// TestAnnotationQueryShape exercises the exact compound shape the annotator
// produces: (Q1 UNION Q2 UNION Q6) EXCEPT (Q3 UNION Q5).
func TestAnnotationQueryShape(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, tag TEXT)`)
		mustExec(t, db, `INSERT INTO n VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d'), (5,'e')`)
		r := mustExec(t, db, `(SELECT id FROM n WHERE tag = 'a' UNION SELECT id FROM n WHERE tag = 'b' UNION SELECT id FROM n WHERE tag = 'c') EXCEPT (SELECT id FROM n WHERE tag = 'b' UNION SELECT id FROM n WHERE tag = 'e')`)
		if got := ids(r); !reflect.DeepEqual(got, []int64{1, 3}) {
			t.Fatalf("ids = %v", got)
		}
	})
}

func TestUnionColumnMismatch(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		if _, err := db.Exec(`SELECT id FROM people UNION SELECT id, name FROM people`); err == nil {
			t.Fatal("expected column-count mismatch error")
		}
	})
}

func TestUpdate(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `UPDATE people SET age = 26 WHERE name = 'bob'`)
		if r.Affected != 1 {
			t.Fatalf("affected = %d", r.Affected)
		}
		r = mustExec(t, db, `SELECT age FROM people WHERE id = 2`)
		if r.Rows[0][0].I != 26 {
			t.Fatalf("age = %v", r.Rows[0][0])
		}
		// Point update by primary key (the annotation loop's statement).
		mustExec(t, db, `UPDATE people SET name = 'bobby' WHERE id = 2`)
		r = mustExec(t, db, `SELECT name FROM people WHERE id = 2`)
		if r.Rows[0][0].S != "bobby" {
			t.Fatalf("name = %v", r.Rows[0][0])
		}
	})
}

func TestUpdatePrimaryKeyMaintainsIndex(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		mustExec(t, db, `UPDATE people SET id = 99 WHERE id = 1`)
		if r := mustExec(t, db, `SELECT name FROM people WHERE id = 99`); len(r.Rows) != 1 {
			t.Fatalf("index lookup after pk update failed")
		}
		if r := mustExec(t, db, `SELECT name FROM people WHERE id = 1`); len(r.Rows) != 0 {
			t.Fatalf("stale pk entry")
		}
		// Duplicate pk rejected.
		if _, err := db.Exec(`UPDATE people SET id = 2 WHERE id = 3`); err == nil {
			t.Fatal("expected duplicate pk error")
		}
	})
}

func TestDelete(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `DELETE FROM people WHERE age = 25`)
		if r.Affected != 2 {
			t.Fatalf("affected = %d", r.Affected)
		}
		if db.Table("people").RowCount() != 2 {
			t.Fatalf("rows = %d", db.Table("people").RowCount())
		}
		// Deleted pk can be reinserted.
		mustExec(t, db, `INSERT INTO people VALUES (2, 'bob2', 40)`)
		r = mustExec(t, db, `SELECT name FROM people WHERE id = 2`)
		if len(r.Rows) != 1 || r.Rows[0][0].S != "bob2" {
			t.Fatalf("reinsert failed: %v", r.Rows)
		}
	})
}

func TestDuplicatePrimaryKeyRejected(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		if _, err := db.Exec(`INSERT INTO people VALUES (1, 'dup', 1)`); err == nil {
			t.Fatal("expected duplicate pk error")
		}
	})
}

// TestPrimaryKeyTextAndNullKeys: a text primary key and a NULL key go
// through the index by value, with every lookup, the uniqueness check
// (one NULL key per table), UPDATE, DELETE and rollback working as for
// int keys, on every engine.
func TestPrimaryKeyTextAndNullKeys(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE k (name TEXT PRIMARY KEY, v INT)`)
		mustExec(t, db, `INSERT INTO k VALUES ('a', 1), ('b', 2), ('7', 3), (NULL, 4)`)
		for _, dup := range []string{`INSERT INTO k VALUES ('a', 9)`, `INSERT INTO k VALUES (NULL, 9)`, `INSERT INTO k VALUES (7, 9)`} {
			if _, err := db.Exec(dup); err == nil {
				t.Errorf("%s: expected duplicate pk error", dup)
			}
		}
		ints := func(sql string) []int64 {
			t.Helper()
			var out []int64
			for _, row := range mustExec(t, db, sql).Rows {
				out = append(out, row[0].I)
			}
			return out
		}
		if got := ints(`SELECT v FROM k WHERE name IN ('b', 'zz', 'a', 'b', 7)`); !slices.Equal(got, []int64{2, 1, 3}) {
			t.Errorf("IN lookup = %v, want [2 1 3] in IN-list order", got)
		}
		mustExec(t, db, `UPDATE k SET name = 'c' WHERE name = 'a'`)
		if _, err := db.Exec(`UPDATE k SET name = 'b' WHERE name = 'c'`); err == nil {
			t.Error("UPDATE onto an existing text key: expected duplicate pk error")
		}
		if got := ints(`SELECT v FROM k WHERE name = 'c'`); !slices.Equal(got, []int64{1}) {
			t.Errorf("lookup after pk update = %v, want [1]", got)
		}
		if got := ints(`SELECT v FROM k WHERE name = 'a'`); len(got) != 0 {
			t.Errorf("stale pk entry: %v", got)
		}
		mustExec(t, db, `BEGIN`)
		mustExec(t, db, `DELETE FROM k WHERE name IN ('b', 'c')`)
		mustExec(t, db, `INSERT INTO k VALUES ('b', 5)`)
		mustExec(t, db, `ROLLBACK`)
		if got := ints(`SELECT v FROM k WHERE name IN ('c', 'b')`); !slices.Equal(got, []int64{1, 2}) {
			t.Errorf("after rollback = %v, want [1 2]", got)
		}
		mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, v INT)`)
		mustExec(t, db, `INSERT INTO n VALUES (NULL, 1), (5, 2)`)
		if _, err := db.Exec(`INSERT INTO n VALUES (NULL, 3)`); err == nil {
			t.Error("second NULL in an INT key: expected duplicate pk error")
		}
		if got := ints(`SELECT v FROM n WHERE id IN ('5', 'x', 6)`); !slices.Equal(got, []int64{2}) {
			t.Errorf("coerced IN lookup = %v, want [2]", got)
		}
	})
}

func TestNullSemantics(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
		mustExec(t, db, `INSERT INTO t VALUES (1, NULL), (2, 5)`)
		// NULL never compares true, not even to itself.
		if r := mustExec(t, db, `SELECT id FROM t WHERE v = 5`); len(r.Rows) != 1 {
			t.Fatalf("v=5 rows = %d", len(r.Rows))
		}
		if r := mustExec(t, db, `SELECT id FROM t WHERE v <> 5`); len(r.Rows) != 0 {
			t.Fatalf("v<>5 should not match NULL")
		}
		// NULL join keys never join.
		mustExec(t, db, `CREATE TABLE u (w INT)`)
		mustExec(t, db, `INSERT INTO u VALUES (NULL), (5)`)
		r := mustExec(t, db, `SELECT t.id FROM t, u WHERE t.v = u.w`)
		if len(r.Rows) != 1 {
			t.Fatalf("null join rows = %d", len(r.Rows))
		}
	})
}

func TestTextIntCoercion(t *testing.T) {
	// The shredder stores XML values as TEXT; queries compare with ints.
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE bill (id INT PRIMARY KEY, v TEXT)`)
		mustExec(t, db, `INSERT INTO bill VALUES (1, '700'), (2, '1600'), (3, 'n/a')`)
		r := mustExec(t, db, `SELECT id FROM bill WHERE v > 1000`)
		if got := ids(r); !reflect.DeepEqual(got, []int64{2}) {
			t.Fatalf("ids = %v", got)
		}
	})
}

func TestDistinct(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, `SELECT DISTINCT age FROM people`)
		if len(r.Rows) != 3 {
			t.Fatalf("distinct rows = %d", len(r.Rows))
		}
		// A single int column with repeats and NULLs: each value once, NULL
		// included, in first-occurrence order.
		mustExec(t, db, `CREATE TABLE ages (id INT PRIMARY KEY, age INT)`)
		mustExec(t, db, `INSERT INTO ages VALUES (1, 30), (2, NULL), (3, 25), (4, 30), (5, NULL), (6, 25), (7, 41)`)
		r = mustExec(t, db, `SELECT DISTINCT age FROM ages`)
		want := [][]Value{{NewInt(30)}, {Null}, {NewInt(25)}, {NewInt(41)}}
		if !reflect.DeepEqual(r.Rows, want) {
			t.Fatalf("distinct ages = %v, want %v", r.Rows, want)
		}
	})
}

func TestParseErrors(t *testing.T) {
	db := Open(EngineRow)
	cases := []string{
		``,
		`SELEC 1`,
		`CREATE TABLE`,
		`CREATE TABLE t`,
		`CREATE TABLE t (x BLOB)`,
		`CREATE TABLE t (x INT PRIMARY)`,
		`INSERT INTO t`,
		`INSERT INTO t VALUES`,
		`INSERT INTO t VALUES (1`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t WHERE x ~ 1`,
		`UPDATE t`,
		`DELETE t`,
		`SELECT * FROM t extra`,
		`SELECT 1 IN (2) FROM t`,
	}
	for _, c := range cases {
		if _, err := db.Exec(c); err == nil {
			t.Errorf("Exec(%q): expected error", c)
		}
	}
}

func TestExecErrors(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		cases := []string{
			`SELECT * FROM missing`,
			`SELECT bogus FROM people`,
			`SELECT p.bogus FROM people p`,
			`SELECT z.id FROM people p`,
			`INSERT INTO people VALUES (9)`,                  // arity
			`INSERT INTO people VALUES (9, 'x', 'notanint')`, // type
			`INSERT INTO missing VALUES (1)`,
			`UPDATE people SET bogus = 1`,
			`UPDATE missing SET x = 1`,
			`DELETE FROM missing`,
			`CREATE TABLE people (id INT)`,        // duplicate
			`SELECT p.id FROM people p, people p`, // dup alias
			`SELECT name FROM people, pets2`,      // unknown in list
		}
		for _, c := range cases {
			if _, err := db.Exec(c); err == nil {
				t.Errorf("Exec(%q): expected error", c)
			}
		}
	})
}

func TestAmbiguousColumn(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE a (id INT)`)
		mustExec(t, db, `CREATE TABLE b (id INT)`)
		mustExec(t, db, `INSERT INTO a VALUES (1)`)
		mustExec(t, db, `INSERT INTO b VALUES (1)`)
		if _, err := db.Exec(`SELECT id FROM a, b`); err == nil {
			t.Fatal("expected ambiguity error")
		}
	})
}

func TestExecScript(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		script := `
-- schema
CREATE TABLE t (id INT PRIMARY KEY, v TEXT);
INSERT INTO t VALUES (1, 'semi;colon');
INSERT INTO t VALUES (2, 'it''s');
`
		n, err := db.ExecScript(script)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("statements = %d", n)
		}
		r := mustExec(t, db, `SELECT v FROM t WHERE id = 1`)
		if r.Rows[0][0].S != "semi;colon" {
			t.Fatalf("v = %q", r.Rows[0][0].S)
		}
		r = mustExec(t, db, `SELECT v FROM t WHERE id = 2`)
		if r.Rows[0][0].S != "it's" {
			t.Fatalf("v = %q", r.Rows[0][0].S)
		}
	})
}

func TestSplitStatements(t *testing.T) {
	got := SplitStatements(`A; B 'x;y'; -- c; comment
 C;;`)
	want := []string{"A", "B 'x;y'", "C"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split = %q", got)
	}
}

func TestForeignKeyRecorded(t *testing.T) {
	db := Open(EngineRow)
	mustExec(t, db, `CREATE TABLE parent (id INT PRIMARY KEY)`)
	mustExec(t, db, `CREATE TABLE child (id INT PRIMARY KEY, pid INT, FOREIGN KEY (pid) REFERENCES parent (id))`)
	fks := db.Table("child").ForeignKeys
	if len(fks) != 1 || fks[0].RefTable != "parent" || fks[0].Column != "pid" {
		t.Fatalf("fks = %+v", fks)
	}
}

func TestStats(t *testing.T) {
	db := Open(EngineColumn)
	setupPeople(t, db)
	s := db.Stats()
	if s.Tables != 1 || s.Rows != 4 || s.PerTable["people"] != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "monetsim") {
		t.Fatalf("stats string = %q", s.String())
	}
	if db.StatementCount() == 0 {
		t.Fatal("statement count not tracked")
	}
}

func TestNegativeNumbers(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE t (v INT)`)
		mustExec(t, db, `INSERT INTO t VALUES (-5), (5)`)
		r := mustExec(t, db, `SELECT v FROM t WHERE v < -1`)
		if len(r.Rows) != 1 || r.Rows[0][0].I != -5 {
			t.Fatalf("rows = %v", r.Rows)
		}
	})
}

// --- property test: executor vs brute-force reference ---

// refJoin computes the same query by unoptimized nested loops.
func refJoin(db *Database, tables []string, join [][4]string, filter func(map[string][]Value) bool, project func(map[string][]Value) []Value) [][]Value {
	var out [][]Value
	var rec func(i int, env map[string][]Value)
	rec = func(i int, env map[string][]Value) {
		if i == len(tables) {
			for _, j := range join {
				l := env[j[0]][colOf(db, j[0], j[1])]
				r := env[j[2]][colOf(db, j[2], j[3])]
				if !l.Equal(r) {
					return
				}
			}
			if filter != nil && !filter(env) {
				return
			}
			out = append(out, project(env))
			return
		}
		t := db.Table(tables[i])
		t.store.scan(func(rid int) bool {
			row := make([]Value, len(t.Columns))
			for c := range t.Columns {
				row[c] = t.store.get(rid, c)
			}
			env[tables[i]] = row
			rec(i+1, env)
			return true
		})
		delete(env, tables[i])
	}
	rec(0, map[string][]Value{})
	return out
}

func colOf(db *Database, table, col string) int {
	return db.Table(table).ColumnIndex(col)
}

func TestQuickJoinMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, eng := range []Engine{EngineRow, EngineColumn} {
			db := Open(eng)
			mustQ := func(s string) *Result {
				res, err := db.Exec(s)
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				return res
			}
			mustQ(`CREATE TABLE ta (id INT PRIMARY KEY, k INT, v INT)`)
			mustQ(`CREATE TABLE tb (id INT PRIMARY KEY, k INT, w INT)`)
			na, nb := 1+r.Intn(12), 1+r.Intn(12)
			for i := 0; i < na; i++ {
				mustQ(fmt.Sprintf(`INSERT INTO ta VALUES (%d, %d, %d)`, i, r.Intn(4), r.Intn(10)))
			}
			for i := 0; i < nb; i++ {
				mustQ(fmt.Sprintf(`INSERT INTO tb VALUES (%d, %d, %d)`, i, r.Intn(4), r.Intn(10)))
			}
			vmax := r.Intn(10)
			res := mustQ(fmt.Sprintf(
				`SELECT ta.id, tb.id FROM ta, tb WHERE ta.k = tb.k AND ta.v <= %d`, vmax))
			ref := refJoin(db, []string{"ta", "tb"},
				[][4]string{{"ta", "k", "tb", "k"}},
				func(env map[string][]Value) bool {
					return env["ta"][2].Compare(CmpLe, NewInt(int64(vmax)))
				},
				func(env map[string][]Value) []Value {
					return []Value{env["ta"][0], env["tb"][0]}
				})
			if !sameRows(res.Rows, ref) {
				t.Logf("engine %v seed %d: exec=%v ref=%v", eng, seed, res.Rows, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sameRows(a, b [][]Value) bool {
	ka := rowKeys(a)
	kb := rowKeys(b)
	return reflect.DeepEqual(ka, kb)
}

func rowKeys(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.key())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// TestQuickSetOpsMatchSets: UNION/EXCEPT/INTERSECT implement exact set
// algebra over the id column.
func TestQuickSetOpsMatchSets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := Open(Engine(r.Intn(2)))
		if _, err := db.Exec(`CREATE TABLE s (id INT PRIMARY KEY, a INT, b INT)`); err != nil {
			return false
		}
		n := 1 + r.Intn(20)
		setA := map[int64]bool{}
		setB := map[int64]bool{}
		for i := 0; i < n; i++ {
			av, bv := r.Intn(2), r.Intn(2)
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO s VALUES (%d, %d, %d)`, i, av, bv)); err != nil {
				return false
			}
			if av == 1 {
				setA[int64(i)] = true
			}
			if bv == 1 {
				setB[int64(i)] = true
			}
		}
		check := func(sql string, want map[int64]bool) bool {
			res, err := db.Exec(sql)
			if err != nil {
				return false
			}
			got := map[int64]bool{}
			for _, row := range res.Rows {
				if got[row[0].I] {
					return false // duplicate violates set semantics
				}
				got[row[0].I] = true
			}
			return reflect.DeepEqual(got, want)
		}
		union := map[int64]bool{}
		except := map[int64]bool{}
		intersect := map[int64]bool{}
		for k := range setA {
			union[k] = true
			if !setB[k] {
				except[k] = true
			} else {
				intersect[k] = true
			}
		}
		for k := range setB {
			union[k] = true
		}
		return check(`SELECT id FROM s WHERE a = 1 UNION SELECT id FROM s WHERE b = 1`, union) &&
			check(`SELECT id FROM s WHERE a = 1 EXCEPT SELECT id FROM s WHERE b = 1`, except) &&
			check(`SELECT id FROM s WHERE a = 1 INTERSECT SELECT id FROM s WHERE b = 1`, intersect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnginesAgree: both storage engines give identical answers to the
// same random workload.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dbs := []*Database{Open(EngineRow), Open(EngineColumn)}
		stmts := []string{`CREATE TABLE t (id INT PRIMARY KEY, k INT, v TEXT)`}
		n := 1 + r.Intn(15)
		for i := 0; i < n; i++ {
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, 'v%d')`, i, r.Intn(5), r.Intn(3)))
		}
		stmts = append(stmts,
			fmt.Sprintf(`UPDATE t SET v = 'z' WHERE k = %d`, r.Intn(5)),
			fmt.Sprintf(`DELETE FROM t WHERE k = %d`, r.Intn(5)),
		)
		for _, db := range dbs {
			for _, s := range stmts {
				if _, err := db.Exec(s); err != nil {
					return false
				}
			}
		}
		q := `SELECT id, k, v FROM t WHERE k >= 1`
		r0, err0 := dbs[0].Exec(q)
		r1, err1 := dbs[1].Exec(q)
		if err0 != nil || err1 != nil {
			return false
		}
		return sameRows(r0.Rows, r1.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
