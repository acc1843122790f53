package sqldb

import (
	"fmt"
	"sync"
	"testing"

	"xmlac/internal/obs"
)

// Statement/plan cache tests: hit/miss accounting, LRU eviction, the
// non-cacheable statement classes, metrics export, and concurrent readers
// sharing cached ASTs (the latter is the -race payload).

func TestPlanCacheHitsAndMisses(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		if st := db.PlanCacheStats(); st.Hits != 0 {
			t.Fatalf("hits before any repeated statement = %d", st.Hits)
		}
		const q = `SELECT name FROM people WHERE age = 25`
		for i := 0; i < 4; i++ {
			r := mustExec(t, db, q)
			if len(r.Rows) != 2 {
				t.Fatalf("run %d: rows = %d", i, len(r.Rows))
			}
		}
		st := db.PlanCacheStats()
		if st.Hits != 3 {
			t.Fatalf("hits = %d, want 3 (first run misses, three repeats hit)", st.Hits)
		}
		if st.Misses < 1 {
			t.Fatalf("misses = %d, want at least the first run", st.Misses)
		}
		if st.Size < 1 || st.Capacity != DefaultPlanCacheSize {
			t.Fatalf("size/capacity = %d/%d", st.Size, st.Capacity)
		}

		// UPDATE and DELETE are cacheable too; the cached plan must still
		// mutate correctly on re-execution.
		const u = `UPDATE people SET age = 26 WHERE id IN (2, 4)`
		before := db.PlanCacheStats()
		mustExec(t, db, u)
		mustExec(t, db, u)
		after := db.PlanCacheStats()
		if after.Hits != before.Hits+1 {
			t.Fatalf("repeated UPDATE did not hit the cache: hits %d → %d", before.Hits, after.Hits)
		}
		r := mustExec(t, db, `SELECT name FROM people WHERE age = 26`)
		if len(r.Rows) != 2 {
			t.Fatalf("cached UPDATE applied to %d rows", len(r.Rows))
		}
	})
}

func TestPlanCacheSkipsOneShotStatements(t *testing.T) {
	db := Open(EngineRow)
	mustExec(t, db, `CREATE TABLE x (id INT PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO x VALUES (1, 'a')`)
	mustExec(t, db, `INSERT INTO x VALUES (2, 'b'), (3, 'c')`)
	st := db.PlanCacheStats()
	if st.Size != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("DDL/INSERT polluted the cache: %+v", st)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db := Open(EngineColumn)
	setupPeople(t, db)
	db.SetPlanCacheSize(2)
	q := func(id int) string { return fmt.Sprintf(`SELECT name FROM people WHERE id = %d`, id) }
	mustExec(t, db, q(1)) // cache: {1}
	mustExec(t, db, q(2)) // cache: {2,1}
	mustExec(t, db, q(3)) // evicts 1 → {3,2}
	st := db.PlanCacheStats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("size/capacity after eviction = %d/%d, want 2/2", st.Size, st.Capacity)
	}
	mustExec(t, db, q(2)) // hit, promotes 2 → {2,3}
	mustExec(t, db, q(1)) // miss again (was evicted), evicts 3
	after := db.PlanCacheStats()
	if after.Hits != 1 {
		t.Fatalf("hits = %d, want exactly the repeated id=2 lookup", after.Hits)
	}
	if after.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (three distinct + one re-parse after eviction)", after.Misses)
	}
}

func TestPlanCacheDisable(t *testing.T) {
	db := Open(EngineRow)
	setupPeople(t, db)
	db.SetPlanCacheSize(0)
	const q = `SELECT name FROM people WHERE age = 30`
	mustExec(t, db, q)
	mustExec(t, db, q)
	st := db.PlanCacheStats()
	if st != (PlanCacheStats{}) {
		t.Fatalf("disabled cache still accounting: %+v", st)
	}
}

func TestPlanCacheMetrics(t *testing.T) {
	db := Open(EngineRow)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	setupPeople(t, db)
	const q = `SELECT name FROM people WHERE age = 25`
	mustExec(t, db, q)
	mustExec(t, db, q)
	mustExec(t, db, q)
	snap := reg.Snapshot()
	if got := snap.Counters["sqldb_plan_cache_hits_total"]; got != 2 {
		t.Fatalf("sqldb_plan_cache_hits_total = %d, want 2", got)
	}
	if got := snap.Counters["sqldb_plan_cache_misses_total"]; got < 1 {
		t.Fatalf("sqldb_plan_cache_misses_total = %d, want ≥ 1", got)
	}
	if got := snap.Gauges["sqldb_plan_cache_size"]; got < 1 {
		t.Fatalf("sqldb_plan_cache_size = %v, want ≥ 1", got)
	}
}

// TestConcurrentReaders hammers one database from many goroutines issuing
// the same SELECTs (shared cached ASTs) interleaved with UPDATE writers.
// The point is the -race run: readers share the RWMutex and the cached
// statement, writers serialize.
func TestConcurrentReaders(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		mustExec(t, db, `CREATE INDEX people_age ON people (age)`)
		var wg sync.WaitGroup
		errCh := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					var err error
					switch (g + i) % 4 {
					case 0:
						_, err = db.Exec(`SELECT name FROM people WHERE age = 25`)
					case 1:
						_, err = db.Exec(`SELECT id FROM people WHERE id IN (1, 3)`)
					case 2:
						_, err = db.Exec(`EXPLAIN SELECT name FROM people WHERE id = 2`)
					case 3:
						_, err = db.Exec(fmt.Sprintf(`UPDATE people SET age = %d WHERE id = 4`, 20+i%10))
					}
					if err != nil {
						errCh <- err
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		st := db.PlanCacheStats()
		if st.Hits == 0 {
			t.Fatal("concurrent repeated statements never hit the plan cache")
		}
		if r := mustExec(t, db, `SELECT id FROM people`); len(r.Rows) != 4 {
			t.Fatalf("table corrupted: %d rows", len(r.Rows))
		}
	})
}

// EXPLAIN on DML is a dry run and must report the IN-lookup fast path.
func TestExplainUpdateInLookup(t *testing.T) {
	db := Open(EngineRow)
	setupPeople(t, db)
	res := mustExec(t, db, `EXPLAIN UPDATE people SET age = 99 WHERE id IN (1, 3, 7)`)
	if len(res.Rows) != 1 {
		t.Fatalf("plan rows = %d", len(res.Rows))
	}
	want := "update people: pk index IN-lookup (3 keys) [scan=row] → 2 rows (dry run)"
	if got := res.Rows[0][0].S; got != want {
		t.Fatalf("plan = %q, want %q", got, want)
	}
	if r := mustExec(t, db, `SELECT id FROM people WHERE age = 99`); len(r.Rows) != 0 {
		t.Fatal("EXPLAIN UPDATE mutated the table")
	}
}
