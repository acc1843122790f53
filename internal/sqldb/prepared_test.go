package sqldb

import (
	"fmt"
	"reflect"
	"testing"
)

// Prepared IN-list tests: result equivalence between textual and bound
// execution for SELECT, UPDATE and DELETE templates, the refusal of a
// template without a placeholder, and concurrent binding of one shared
// template.

func TestPrepareIn(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		probe, err := db.PrepareIn("SELECT name FROM people WHERE id IN (?)")
		if err != nil {
			t.Fatal(err)
		}
		got, err := probe.ExecInts([]int64{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		want := mustExec(t, db, "SELECT name FROM people WHERE id IN (1, 3)")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("prepared result %v, want %v", got, want)
		}

		upd, err := db.PrepareIn("UPDATE people SET age = 99 WHERE id IN (?)")
		if err != nil {
			t.Fatal(err)
		}
		res, err := upd.ExecInts([]int64{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 2 {
			t.Fatalf("affected = %d, want 2", res.Affected)
		}
		aged := mustExec(t, db, "SELECT id FROM people WHERE age = 99")
		if len(aged.Rows) != 2 {
			t.Fatalf("rows at age 99 = %d, want 2", len(aged.Rows))
		}

		del, err := db.PrepareIn("DELETE FROM people WHERE id IN (?)")
		if err != nil {
			t.Fatal(err)
		}
		if res, err := del.ExecInts([]int64{1, 4, 99}); err != nil || res.Affected != 2 {
			t.Fatalf("prepared delete: res = %+v, err = %v, want 2 affected", res, err)
		}
		left := mustExec(t, db, "SELECT id FROM people WHERE age = 99")
		if len(left.Rows) != 1 || left.Rows[0][0].I != 2 {
			t.Fatalf("rows at age 99 after the delete = %v, want only id 2", left.Rows)
		}

		if _, err := db.PrepareIn("SELECT name FROM people"); err == nil {
			t.Fatal("PrepareIn accepted a statement without an IN placeholder")
		}
	})
}

// TestInPlaceholderDirectExec: executing a template without binding is the
// empty IN list — it matches nothing rather than failing.
func TestInPlaceholderDirectExec(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		r := mustExec(t, db, "SELECT name FROM people WHERE id IN (?)")
		if len(r.Rows) != 0 {
			t.Fatalf("unbound placeholder matched %d rows, want 0", len(r.Rows))
		}
	})
}

// TestAutoParamConcurrentBind hammers one shared prepared template from
// many goroutines with distinct id lists; under -race this proves bound
// clones never share or mutate the cached AST.
func TestAutoParamConcurrentBind(t *testing.T) {
	both(t, func(t *testing.T, db *Database) {
		setupPeople(t, db)
		probe, err := db.PrepareIn("SELECT name FROM people WHERE id IN (?)")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				id := int64(g%4 + 1)
				for i := 0; i < 200; i++ {
					r, err := probe.ExecInts([]int64{id, id})
					if err == nil && len(r.Rows) != 1 {
						err = fmt.Errorf("goroutine %d: rows = %d, want 1", g, len(r.Rows))
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
}
