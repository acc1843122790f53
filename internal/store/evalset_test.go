package store_test

import (
	"math/rand"
	"reflect"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/pool"
	"xmlac/internal/store"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// openScope opens one registered engine on a document for EvalScope
// probes.
func openScope(t *testing.T, name string, doc *xmltree.Document, pl *pool.Pool) store.Engine {
	t.Helper()
	eng, err := store.Open(name, store.Options{Schema: hospital.Schema(), Default: xmltree.SignMinus, Pool: pl})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(doc); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCombine(t *testing.T) {
	a := store.PathLeaf(xpath.MustParse("//a"))
	b := store.PathLeaf(xpath.MustParse("//b"))
	c := store.PathLeaf(xpath.MustParse("//c"))
	if e := store.Combine(store.OpUnion, a, b, c); e.String() != "((//a union //b) union //c)" {
		t.Fatalf("combined = %s", e)
	}
	if e := store.Combine(store.OpExcept, a, b); e.String() != "(//a except //b)" {
		t.Fatalf("combined = %s", e)
	}
	if store.Combine(store.OpUnion) != nil {
		t.Fatal("empty combine should be nil")
	}
	if store.Combine(store.OpUnion, a) != a {
		t.Fatal("singleton combine should be identity")
	}
	if store.Combine(store.OpUnion, nil, a, nil) != a {
		t.Fatal("nil entries should be skipped")
	}
}

// TestEvalSetAlgebra: on the Figure 2 document every engine evaluates a
// leaf, a union, an except and the nil expression to sets of the same
// size.
func TestEvalSetAlgebra(t *testing.T) {
	pat := store.PathLeaf(xpath.MustParse("//patient"))
	withTr := store.PathLeaf(xpath.MustParse("//patient[treatment]"))
	cases := []struct {
		e *store.SetExpr
		n int
	}{
		{pat, 3},
		{withTr, 2},
		{&store.SetExpr{Op: store.OpUnion, Left: pat, Right: withTr}, 3},
		{&store.SetExpr{Op: store.OpExcept, Left: pat, Right: withTr}, 1},
		{&store.SetExpr{Op: store.OpExcept, Left: withTr, Right: pat}, 0},
		{nil, 0},
	}
	for _, name := range store.Engines() {
		eng := openScope(t, name, hospital.Document(), nil)
		for _, c := range cases {
			ids, err := eng.EvalScope(c.e)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, c.e, err)
			}
			if ids == nil || len(ids) != c.n {
				t.Errorf("%s: %v: %d ids (nil %v), want %d", name, c.e, len(ids), ids == nil, c.n)
			}
		}
	}
}

// treeFold is the reference evaluator: union and except over xpath.Eval
// results on the tree, each step building a fresh set.
func treeFold(t *testing.T, e *store.SetExpr, doc *xmltree.Document) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	if e.Path != nil {
		nodes, err := xpath.Eval(e.Path, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			out[n.ID] = true
		}
		return out
	}
	l, r := treeFold(t, e.Left, doc), treeFold(t, e.Right, doc)
	for id := range l {
		if e.Op == store.OpUnion || !r[id] {
			out[id] = true
		}
	}
	if e.Op == store.OpUnion {
		for id := range r {
			out[id] = true
		}
	}
	return out
}

// TestEvalScopeMatchesTreeFold holds every engine's EvalScope, with and
// without a worker pool, to the reference fold over the Table 1 rule
// paths: each ordered pair under union and except, both Figure 5 forms
// (grants except denys, and denys except grants), and random nested
// expressions that repeat leaves.
func TestEvalScopeMatchesTreeFold(t *testing.T) {
	var leaves, grants, denys []*store.SetExpr
	for _, r := range policy.MustParse(hospitalPolicy).Rules {
		l := store.PathLeaf(r.Resource)
		leaves = append(leaves, l)
		if r.Effect == policy.Allow {
			grants = append(grants, l)
		} else {
			denys = append(denys, l)
		}
	}
	g, d := store.Combine(store.OpUnion, grants...), store.Combine(store.OpUnion, denys...)
	exprs := []*store.SetExpr{
		{Op: store.OpExcept, Left: g, Right: d},
		{Op: store.OpExcept, Left: d, Right: g},
	}
	for _, a := range leaves {
		for _, b := range leaves {
			for _, op := range []store.SetOp{store.OpUnion, store.OpExcept} {
				exprs = append(exprs, &store.SetExpr{Op: op, Left: a, Right: b})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var random func(depth int) *store.SetExpr
	random = func(depth int) *store.SetExpr {
		if depth == 0 || rng.Intn(4) == 0 {
			return leaves[rng.Intn(len(leaves))]
		}
		return &store.SetExpr{Op: store.SetOp(rng.Intn(2)), Left: random(depth - 1), Right: random(depth - 1)}
	}
	for i := 0; i < 40; i++ {
		exprs = append(exprs, random(4))
	}

	gen := func() *xmltree.Document {
		return hospital.Generate(hospital.GenOptions{Seed: 9, Departments: 2, PatientsPerDept: 10, StaffPerDept: 4})
	}
	tree := gen()
	want := make([]map[int64]bool, len(exprs))
	for i, e := range exprs {
		want[i] = treeFold(t, e, tree)
	}
	// The fixture must tell an except from its swapped form.
	if reflect.DeepEqual(want[0], treeFold(t, &store.SetExpr{Op: store.OpExcept, Left: d, Right: g}, tree)) {
		t.Fatal("grants except denys equals denys except grants on the fixture")
	}
	for _, name := range store.Engines() {
		for _, pl := range []*pool.Pool{nil, pool.New(3)} {
			eng := openScope(t, name, gen(), pl)
			for i, e := range exprs {
				got, err := eng.EvalScope(e)
				if err != nil {
					t.Fatalf("%s (pool %d): %v: %v", name, pl.Size(), e, err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s (pool %d): %v: %d ids, want %d", name, pl.Size(), e, len(got), len(want[i]))
				}
			}
		}
	}
}
