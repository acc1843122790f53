package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// allocSlack is how many more allocations a SELECT may make over 10,000
// rows than over 100: growth that no per-tuple or per-row allocation fits
// into.
const allocSlack = 32

// TestSelectAllocsPerJoinStep: a SELECT allocates per statement and per
// join step, not per tuple or per result row. On each engine, over a
// parent/child table pair, the pid = id join projecting two columns and
// the unfiltered one-table scan make at most allocSlack more allocations
// at 10,000 rows than at 100.
func TestSelectAllocsPerJoinStep(t *testing.T) {
	shapes := []struct{ name, sql string }{
		{"join", `SELECT c.id, p.v FROM parent p, child c WHERE c.pid = p.id`},
		{"scan", `SELECT id FROM child`},
	}
	for _, e := range []Engine{EngineRow, EngineColumn} {
		t.Run(e.String(), func(t *testing.T) {
			small, large := allocDB(t, e, 100), allocDB(t, e, 10000)
			for _, sh := range shapes {
				a, b := selectAllocs(t, small, sh.sql, 100), selectAllocs(t, large, sh.sql, 10000)
				t.Logf("%s: %.0f allocations at 100 rows, %.0f at 10,000", sh.name, a, b)
				if b > a+allocSlack {
					t.Errorf("%s: %.0f allocations at 10,000 rows, %.0f at 100; at most %d more allowed",
						sh.name, b, a, allocSlack)
				}
			}
		})
	}
}

// allocDB loads n parent rows and n child rows, child i under parent i/2.
func allocDB(t *testing.T, e Engine, n int) *Database {
	t.Helper()
	db := Open(e)
	mustExec(t, db, `CREATE TABLE parent (id INT PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE TABLE child (id INT PRIMARY KEY, pid INT, v TEXT)`)
	for _, table := range []string{"parent", "child"} {
		for lo := 0; lo < n; lo += 500 {
			var b strings.Builder
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
			for i := lo; i < min(lo+500, n); i++ {
				if i > lo {
					b.WriteString(", ")
				}
				if table == "parent" {
					fmt.Fprintf(&b, "(%d, 'p%d')", i, i)
				} else {
					fmt.Fprintf(&b, "(%d, %d, 'c%d')", i, i/2, i)
				}
			}
			mustExec(t, db, b.String())
		}
	}
	return db
}

// selectAllocs is the allocations of one execution of sql, which must
// return rows rows.
func selectAllocs(t *testing.T, db *Database, sql string, rows int) float64 {
	t.Helper()
	if got := len(mustExec(t, db, sql).Rows); got != rows {
		t.Fatalf("%s returned %d rows, want %d", sql, got, rows)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	})
}
