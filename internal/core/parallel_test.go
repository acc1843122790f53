package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlac/internal/dtd"
	"xmlac/internal/hospital"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// Parallel annotation engine tests: the pool-backed phases must produce
// byte-identical sign columns to the sequential reference path, and shared
// System/MultiUser instances must survive concurrent hammering (run with
// -race).

// xmarkTestPolicy covers several regions of the XMark site with interacting
// grant and deny rules, so the annotation query has enough independent
// grant/deny leaves for the pool to fan out.
const xmarkTestPolicy = `
default deny
conflict deny
rule g1 allow //closed_auction
rule g2 allow //closed_auction//*
rule g3 allow //open_auction/*
rule g4 allow //person
rule g5 allow //person//*
rule g6 allow //item/name
rule d1 deny //closed_auction[price > 400]
rule d2 deny //creditcard
rule d3 deny //person[creditcard]
`

// signDump serializes the complete sign state of a system's backend: every
// (table, id, sign) tuple for relational backends, every (id, sign) pair for
// the native tree. Two runs annotated identically produce identical dumps.
func signDump(t *testing.T, sys *System) string {
	t.Helper()
	var b strings.Builder
	if rel, ok := sys.Engine().(store.Relational); ok {
		for _, ti := range rel.Mapping().Tables() {
			res, err := rel.DB().Exec("SELECT id, s FROM " + ti.Table + " ORDER BY id")
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				fmt.Fprintf(&b, "%s:%d:%s\n", ti.Table, row[0].I, row[1].S)
			}
		}
		return b.String()
	}
	sys.Document().Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			fmt.Fprintf(&b, "%d:%s\n", n.ID, n.Sign.String())
		}
		return true
	})
	return b.String()
}

// TestParallelAnnotationMatchesSequential is the golden determinism test:
// on the hospital and XMark documents, every backend annotated with the
// worker pool produces exactly the sign columns of the sequential run.
func TestParallelAnnotationMatchesSequential(t *testing.T) {
	fixtures := []struct {
		name   string
		schema *dtd.Schema
		pol    string
		doc    *xmltree.Document
	}{
		{"hospital", hospital.Schema(), table1Policy,
			hospital.Generate(hospital.GenOptions{Seed: 5, Departments: 3, PatientsPerDept: 25, StaffPerDept: 8})},
		{"xmark", xmark.Schema(), xmarkTestPolicy,
			xmark.Generate(xmark.Options{Factor: 0.002, Seed: 7})},
	}
	for _, fx := range fixtures {
		for _, b := range allBackends {
			t.Run(fx.name+"/"+b.String(), func(t *testing.T) {
				run := func(parallelism int) (*System, AnnotateStats) {
					sys, err := NewSystem(Config{
						Schema: fx.schema, Policy: policy.MustParse(fx.pol),
						Backend: b, Optimize: true,
					}.WithParallelism(parallelism))
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.Load(fx.doc.Clone()); err != nil {
						t.Fatal(err)
					}
					stats, err := sys.Annotate()
					if err != nil {
						t.Fatal(err)
					}
					return sys, stats
				}
				seqSys, seqStats := run(1) // sequential reference (pool disabled)
				parSys, parStats := run(8)
				if seqStats.Updated != parStats.Updated || seqStats.Reset != parStats.Reset {
					t.Fatalf("stats diverge: sequential updated=%d reset=%d, parallel updated=%d reset=%d",
						seqStats.Updated, seqStats.Reset, parStats.Updated, parStats.Reset)
				}
				seq, par := signDump(t, seqSys), signDump(t, parSys)
				if seq != par {
					t.Fatalf("sign columns diverge between sequential and parallel annotation (%d vs %d bytes)",
						len(seq), len(par))
				}
				if seqStats.Updated == 0 {
					t.Fatal("degenerate fixture: annotation updated nothing")
				}
			})
		}
	}
}

// TestRepeatedParallelAnnotationIsStable re-annotates the same system many
// times with the pool on; every run must land in the same sign state (the
// plan cache serves the repeated statements, so this also exercises cached
// AST re-execution).
func TestRepeatedParallelAnnotationIsStable(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			sys := newHospitalSystem(t, b, hospital.Generate(hospital.GenOptions{
				Seed: 11, Departments: 2, PatientsPerDept: 20, StaffPerDept: 5}))
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			want := signDump(t, sys)
			for i := 0; i < 5; i++ {
				if _, err := sys.Annotate(); err != nil {
					t.Fatal(err)
				}
				if got := signDump(t, sys); got != want {
					t.Fatalf("run %d diverged from first annotation", i+2)
				}
			}
		})
	}
}

// TestConcurrentSystemHammer drives one shared System from many goroutines
// mixing full annotation, requests, coverage reads, inserts and deletes,
// on every backend under each enforcement mode. It exists for the -race
// run: the System-level lock must serialize writers against the readers,
// whichever enforcer keeps the decisions.
func TestConcurrentSystemHammer(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			for _, mode := range []EnforceMode{EnforceSigns, EnforceRewrite} {
				t.Run(mode.String(), func(t *testing.T) { hammerSystem(t, b, mode) })
			}
		})
	}
}

func hammerSystem(t *testing.T, b Backend, mode EnforceMode) {
	sys, err := NewSystem(Config{
		Schema: hospital.Schema(), Policy: policy.MustParse(table1Policy),
		Backend: b, Optimize: true, Enforce: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(hospital.Generate(hospital.GenOptions{
		Seed: 17, Departments: 2, PatientsPerDept: 12, StaffPerDept: 4})); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("//patient/name")
	del := xpath.MustParse(`//patient[.//experimental]`)
	parent := xpath.MustParse(`//patient[psn = "003"]`)
	tmpl := xmltree.NewSubtree("treatment")
	xmltree.AddTemplateChild(tmpl, "experimental")
	const goroutines, ops = 8, 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*ops) // one slot per operation: no send blocks
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				var err error
				switch (g + i) % 6 {
				case 0:
					_, err = sys.Annotate()
				case 1:
					if _, err = sys.Request(q); errors.Is(err, ErrAccessDenied) {
						err = nil
					}
				case 2:
					_, err = sys.AccessibleIDs()
				case 3:
					_, err = sys.Coverage()
				case 4:
					_, err = sys.DeleteAndReannotate(del)
				case 5:
					_, err = sys.InsertAndReannotate(parent, tmpl)
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
	// The store must still be coherent after the hammering.
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.AccessibleIDs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Policy().Semantics(sys.Document())
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("%d accessible after the hammering, the Table 2 semantics give %d", len(got), len(want))
	}
}

// TestConcurrentMultiUserHammer hammers a shared MultiUser: concurrent
// requests and map reads race against delete-updates whose per-user rebuilds
// fan out on the pool.
func TestConcurrentMultiUserHammer(t *testing.T) {
	m := newMultiUser(t)
	users := m.Users()
	q := xpath.MustParse("//patient/name")
	deletes := []*xpath.Path{
		xpath.MustParse(`//experimental`),
		xpath.MustParse(`//treatment`),
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := users[g%len(users)]
			for i := 0; i < 10; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, _, err := m.RequestFiltered(user, q); err != nil {
						errCh <- err
					}
				case 1:
					if _, err := m.AccessibleIDs(user); err != nil {
						errCh <- err
					}
				case 2:
					if _, err := m.MapSize(user); err != nil {
						errCh <- err
					}
				case 3:
					if _, err := m.Delete(deletes[i%len(deletes)]); err != nil {
						errCh <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestMultiUserParallelDeleteMatchesSequential: the pool-backed per-user
// rebuilds in Delete leave every user with exactly the accessibility map a
// sequential MultiUser computes.
func TestMultiUserParallelDeleteMatchesSequential(t *testing.T) {
	build := func(parallelism int) *MultiUser {
		doc := hospital.Generate(hospital.GenOptions{Seed: 23, Departments: 2, PatientsPerDept: 15, StaffPerDept: 6})
		m, err := NewMultiUser(hospital.Schema(), doc)
		if err != nil {
			t.Fatal(err)
		}
		m.SetParallelism(parallelism)
		for name, text := range userPolicies {
			if err := m.AddUser(name, policy.MustParse(text)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Delete(xpath.MustParse(`//patient[.//experimental]`)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	seq, par := build(1), build(8)
	for _, user := range seq.Users() {
		a, err := seq.AccessibleIDs(user)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.AccessibleIDs(user)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("user %s: sequential %d accessible, parallel %d", user, len(a), len(b))
		}
		for id := range a {
			if !b[id] {
				t.Fatalf("user %s: id %d accessible sequentially but not in parallel", user, id)
			}
		}
	}
}
