package sqldb_test

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/xmark"
)

// execFuzzInputCap bounds FuzzExec's inputs: longer statements only slow
// the fuzzer down.
const execFuzzInputCap = 4 << 10

// execFuzzMaxTuples bounds the cross product of a SELECT block's FROM
// tables; a block over more tuples (a many-table join without join
// predicates) is skipped, as it would run out of memory, not into a bug.
const execFuzzMaxTuples = 10000

// FuzzExec executes arbitrary SQL against a shredded XMark f = 0.0001
// document on the row and the column engine. Only queries
// and EXPLAIN of a query execute, so the databases stay as loaded; every
// other statement is only parsed. It requires no panic, the same result
// or error from every engine for a query, the rows, in order, or the error
// of the frozen reference executor (ref_exec_test.go) for every SELECT
// block, set-operation operands included, and, for every UNION chain in
// the query, the rows, in order, of refUnion's pairwise fold. The seed
// corpus (testdata/fuzz/FuzzExec) is the root-chain SQL translation of the
// 55 benchmark queries and the c3 rules, UNION chains of up to 15 join
// branches.
func FuzzExec(f *testing.F) {
	f.Add(`(SELECT id FROM item ORDER BY id DESC LIMIT 2) UNION SELECT id FROM person UNION SELECT pid FROM name EXCEPT SELECT id FROM item`)
	f.Add(`SELECT id, v FROM name UNION SELECT id, v FROM city UNION SELECT id, s FROM person ORDER BY 2 LIMIT 5`)
	f.Add(`EXPLAIN SELECT id FROM site UNION SELECT id FROM regions UNION SELECT id FROM people`)
	engines := []sqldb.Engine{sqldb.EngineRow, sqldb.EngineColumn}
	doc := xmark.Generate(xmark.Options{Factor: 0.0001, Seed: 1})
	dbs := make([]*sqldb.Database, len(engines))
	for i, e := range engines {
		m, err := shred.BuildMapping(xmark.Schema())
		if err != nil {
			f.Fatal(err)
		}
		dbs[i] = sqldb.Open(e)
		if err := shred.NewShredder(m).IntoDB(dbs[i], doc); err != nil {
			f.Fatal(err)
		}
	}
	rows := map[string]int{}
	for _, name := range dbs[0].TableNames() {
		res, err := dbs[0].Exec("SELECT COUNT(*) FROM " + name)
		if err != nil {
			f.Fatal(err)
		}
		rows[name] = int(res.Rows[0][0].I)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > execFuzzInputCap {
			return
		}
		st, err := sqldb.ParseStatement(src)
		if err != nil {
			return
		}
		q, isQuery := st.(*sqldb.Query)
		explain, isExplain := st.(*sqldb.ExplainStmt)
		if isExplain {
			q, isQuery = explain.Stmt.(*sqldb.Query)
		}
		if !isQuery || crossProduct(q, rows) > execFuzzMaxTuples {
			return
		}
		var first *sqldb.Result
		var firstErr error
		for i, db := range dbs {
			res, err := db.ExecStmt(st)
			if i == 0 {
				first, firstErr = res, err
			} else if !isExplain && (!sameError(err, firstErr) || (err == nil && !reflect.DeepEqual(res, first))) {
				t.Fatalf("%s = %+v (%v), %s = %+v (%v)", engines[i], res, err, engines[0], first, firstErr)
			}
			if d := sqldb.RefMismatch(db, q); d != "" {
				t.Fatalf("%s: %s", engines[i], d)
			}
			unionChains(q, false, func(u *sqldb.Query) {
				body := *u
				body.OrderBy, body.Limit = nil, -1
				got, err := db.ExecStmt(&body)
				want, refErr := refUnion(db, &body)
				if (err == nil) != (refErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: UNION chain %+v (%v), pairwise fold %+v (%v)", engines[i], got, err, want, refErr)
				}
			})
		}
	})
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// crossProduct is the largest product of FROM-table row counts over the
// query's SELECT blocks.
func crossProduct(q *sqldb.Query, rows map[string]int) int {
	if q.Simple != nil {
		n := 1
		for _, from := range q.Simple.From {
			n *= max(rows[from.Table], 1)
			if n > execFuzzMaxTuples {
				break
			}
		}
		return n
	}
	return max(crossProduct(q.Left, rows), crossProduct(q.Right, rows))
}

// unionChains calls visit on the head of every UNION chain in q: a UNION
// node that is not a bare (no ORDER BY, no LIMIT) operand of a parent
// UNION.
func unionChains(q *sqldb.Query, parentUnion bool, visit func(*sqldb.Query)) {
	if q.Simple != nil {
		return
	}
	bare := len(q.OrderBy) == 0 && q.Limit < 0
	if q.Op == sqldb.OpUnion && !(parentUnion && bare) {
		visit(q)
	}
	unionChains(q.Left, q.Op == sqldb.OpUnion, visit)
	unionChains(q.Right, q.Op == sqldb.OpUnion, visit)
}

// refUnion is the pairwise evaluation of a UNION tree, frozen from the
// executor before it ran a chain in one pass: every binary UNION node
// keeps its left rows, then its right rows, whose string key it has not
// seen. Any other operand (a SELECT, an EXCEPT or INTERSECT, a sub-query
// with its own ORDER BY or LIMIT) runs through ExecStmt.
func refUnion(db *sqldb.Database, q *sqldb.Query) (*sqldb.Result, error) {
	if q.Simple != nil || q.Op != sqldb.OpUnion || len(q.OrderBy) > 0 || q.Limit >= 0 {
		return db.ExecStmt(q)
	}
	left, err := refUnion(db, q.Left)
	if err != nil {
		return nil, err
	}
	right, err := refUnion(db, q.Right)
	if err != nil {
		return nil, err
	}
	if len(left.Columns) != len(right.Columns) {
		return nil, fmt.Errorf("UNION operands have %d and %d columns", len(left.Columns), len(right.Columns))
	}
	out := &sqldb.Result{Columns: left.Columns}
	seen := map[string]bool{}
	for _, rows := range [][][]sqldb.Value{left.Rows, right.Rows} {
		for _, r := range rows {
			if k := refRowKey(r); !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, r)
			}
		}
	}
	return out, nil
}

// refRowKey is the string key the pairwise fold dedups on.
func refRowKey(row []sqldb.Value) string {
	k := ""
	for _, v := range row {
		switch v.Kind {
		case sqldb.KindNull:
			k += "\x00N"
		case sqldb.KindInt:
			k += "\x00I" + strconv.FormatInt(v.I, 10)
		default:
			k += "\x00T" + v.S
		}
	}
	return k
}
