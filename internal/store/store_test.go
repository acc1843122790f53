package store

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/pool"
	"xmlac/internal/xmltree"
)

// TestApplySignsWithinWithoutOwnerIndex: a database whose owner index
// knows none of its ids — as if loaded without one — takes the per-table
// id scan on every sign write, and must end with exactly the signs and
// counts of the owner-routed path.
func TestApplySignsWithinWithoutOwnerIndex(t *testing.T) {
	doc := hospital.Generate(hospital.GenOptions{Seed: 4, Departments: 2, PatientsPerDept: 6, StaffPerDept: 2})
	affected, update := map[int64]bool{}, map[int64]bool{}
	var all []int64
	for i, n := range doc.Elements() {
		all = append(all, n.ID)
		if i%3 != 0 {
			affected[n.ID] = true
		}
		if i%2 == 0 {
			update[n.ID] = true
		}
	}
	for _, name := range []string{"postgres", "monetsql", "monetcol"} {
		t.Run(name, func(t *testing.T) {
			var dumps [2]string
			var counts [2][2]int
			for k := range dumps {
				eng, err := Open(name, Options{Schema: hospital.Schema(), Default: xmltree.SignMinus})
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Load(doc.Clone()); err != nil {
					t.Fatal(err)
				}
				rel := eng.(Relational)
				if k == 1 {
					rel.Mapping().ForgetOwner(all...)
					if owned, _ := rel.Mapping().GroupByOwner(all); len(owned) != 0 {
						t.Fatalf("owner index still routes %d tables", len(owned))
					}
				}
				counts[k][0], counts[k][1], err = eng.ApplySignsWithin(affected, update, xmltree.SignPlus, xmltree.SignMinus)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, ti := range rel.Mapping().Tables() {
					res, err := rel.DB().Exec("SELECT id, s FROM " + ti.Table + " ORDER BY id")
					if err != nil {
						t.Fatal(err)
					}
					for _, row := range res.Rows {
						fmt.Fprintf(&b, "%s %d %s\n", ti.Table, row[0].I, row[1].S)
					}
				}
				dumps[k] = b.String()
			}
			if counts[0] != counts[1] {
				t.Fatalf("routed wrote (updated, reset) = %v, scanned %v", counts[0], counts[1])
			}
			if counts[0][0]+counts[0][1] != len(affected) {
				t.Fatalf("wrote %d signs, want %d", counts[0][0]+counts[0][1], len(affected))
			}
			if !strings.Contains(dumps[0], " +\n") || !strings.Contains(dumps[0], " -\n") {
				t.Fatalf("sign dump lacks a written sign:\n%s", dumps[0])
			}
			if dumps[0] != dumps[1] {
				t.Fatalf("sign columns differ:\nrouted:\n%s\nscanned:\n%s", dumps[0], dumps[1])
			}
		})
	}
}

// Registry tests: the seam's name resolution must cover every backend
// name the evaluation figures use, including the aliases.

func TestRegistryNamesAndAliases(t *testing.T) {
	want := []string{"monetcol", "monetsql", "native", "postgres"}
	got := Engines()
	if len(got) != len(want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Engines() = %v, want %v", got, want)
		}
	}
	for alias, canonical := range map[string]string{
		"xquery":   "native",
		"native":   "native",
		"monetcol": "monetcol",
		"monetsql": "monetsql",
		"postgres": "postgres",
	} {
		e, err := Open(alias, Options{Schema: hospital.Schema()})
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != canonical {
			t.Errorf("Open(%q).Name() = %q, want %q", alias, e.Name(), canonical)
		}
	}
}

func TestOpenUnknownEngine(t *testing.T) {
	_, err := Open("oracle", Options{})
	if err == nil || !strings.Contains(err.Error(), `unknown engine "oracle"`) {
		t.Fatalf("err = %v", err)
	}
	// The error lists what is registered, so typos are self-diagnosing.
	if !strings.Contains(err.Error(), "native") {
		t.Fatalf("err does not list registered engines: %v", err)
	}
}

func TestOpenNativeByAlias(t *testing.T) {
	eng, err := Open("xquery", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "native" || eng.Relational() {
		t.Fatalf("Name = %q, Relational = %v", eng.Name(), eng.Relational())
	}
}

func TestRelationalEnginesRequireSchema(t *testing.T) {
	for _, name := range []string{"postgres", "monetsql", "monetcol"} {
		if _, err := Open(name, Options{}); err == nil {
			t.Errorf("Open(%q) without schema succeeded", name)
		}
	}
}

// Catalog tests: routing must be deterministic, add/remove must remap
// only the documents whose winning shard changed, and explicit placement
// must override the hash.

func catalogDocs(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = "doc" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	return docs
}

func TestCatalogRoutingDeterministic(t *testing.T) {
	c1, c2 := NewCatalog(4, nil), NewCatalog(4, nil)
	for _, d := range catalogDocs(40) {
		if c1.ShardOf(d) != c2.ShardOf(d) {
			t.Fatalf("routing of %q differs between identical catalogs", d)
		}
		if got, again := c1.ShardOf(d), c1.ShardOf(d); got != again {
			t.Fatalf("routing of %q not stable: %q then %q", d, got, again)
		}
	}
}

func TestCatalogRoutingSpreads(t *testing.T) {
	c := NewCatalog(4, nil)
	used := map[string]int{}
	for _, d := range catalogDocs(80) {
		used[c.ShardOf(d)]++
	}
	if len(used) != 4 {
		t.Fatalf("80 documents landed on %d of 4 shards: %v", len(used), used)
	}
}

// TestCatalogMinimalRemapOnAdd: rendezvous hashing moves only the
// documents the new shard wins; every other document keeps its shard.
func TestCatalogMinimalRemapOnAdd(t *testing.T) {
	c := NewCatalog(3, nil)
	docs := catalogDocs(60)
	before := map[string]string{}
	for _, d := range docs {
		before[d] = c.ShardOf(d)
	}
	if err := c.AddShard("shard9"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, d := range docs {
		after := c.ShardOf(d)
		if after != before[d] {
			if after != "shard9" {
				t.Fatalf("%q moved %q → %q, not to the new shard", d, before[d], after)
			}
			moved++
		}
	}
	// Expect roughly 1/4 of the documents to move; anything at all moving
	// to an old shard is the bug this test pins down.
	if moved == 0 || moved == len(docs) {
		t.Fatalf("moved = %d of %d", moved, len(docs))
	}
}

// TestCatalogMinimalRemapOnRemove: only the removed shard's documents
// re-route.
func TestCatalogMinimalRemapOnRemove(t *testing.T) {
	c := NewCatalog(4, nil)
	docs := catalogDocs(60)
	before := map[string]string{}
	for _, d := range docs {
		before[d] = c.ShardOf(d)
	}
	if err := c.RemoveShard("shard2"); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		after := c.ShardOf(d)
		if before[d] == "shard2" {
			if after == "shard2" {
				t.Fatalf("%q still routes to the removed shard", d)
			}
		} else if after != before[d] {
			t.Fatalf("%q moved %q → %q although its shard survived", d, before[d], after)
		}
	}
}

func TestCatalogShardGuards(t *testing.T) {
	c := NewCatalog(1, nil)
	if err := c.RemoveShard("shard0"); err == nil {
		t.Fatal("removed the last shard")
	}
	if err := c.AddShard("shard0"); err == nil {
		t.Fatal("added a duplicate shard")
	}
	if err := c.RemoveShard("nope"); err == nil {
		t.Fatal("removed an unknown shard")
	}
	if err := c.Place("doc", "nope"); err == nil {
		t.Fatal("placed onto an unknown shard")
	}
}

func TestCatalogExplicitPlacement(t *testing.T) {
	c := NewCatalog(3, nil)
	hashed := c.ShardOf("pinned")
	target := "shard0"
	if hashed == target {
		target = "shard1"
	}
	if err := c.Place("pinned", target); err != nil {
		t.Fatal(err)
	}
	if got := c.ShardOf("pinned"); got != target {
		t.Fatalf("ShardOf(pinned) = %q, want pinned %q", got, target)
	}
	// Removing the pinned shard forgets the placement and falls back to
	// the hash winner among the survivors.
	if err := c.RemoveShard(target); err != nil {
		t.Fatal(err)
	}
	if got := c.ShardOf("pinned"); got == target {
		t.Fatalf("ShardOf(pinned) still %q after shard removal", got)
	}
}

func TestCatalogAttachDetach(t *testing.T) {
	c := NewCatalog(2, nil)
	if err := c.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach("a"); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
	if docs := c.Docs(); len(docs) != 1 || docs[0] != "a" {
		t.Fatalf("Docs = %v", docs)
	}
	c.Detach("a")
	if docs := c.Docs(); len(docs) != 0 {
		t.Fatalf("Docs after detach = %v", docs)
	}
}

func TestCatalogForEachShard(t *testing.T) {
	for _, pl := range []*pool.Pool{nil, pool.New(4)} {
		c := NewCatalog(4, pl)
		for _, d := range catalogDocs(12) {
			if err := c.Attach(d); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[string]bool{}
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		err := c.ForEachShard(context.Background(), func(_ context.Context, shard string, docs []string) error {
			<-mu
			for _, d := range docs {
				seen[d] = true
			}
			mu <- struct{}{}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 12 {
			t.Fatalf("ForEachShard visited %d of 12 documents", len(seen))
		}
	}
}
