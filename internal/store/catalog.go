package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"xmlac/internal/obs"
	"xmlac/internal/pool"
)

// Catalog is the multi-document layer over the engine seam: it routes
// document names to one of N shards and fans shard-wise work out on a
// worker pool; the caller keeps one engine per document. Placement is
// rendezvous (highest-random-weight) hashing by default — deterministic,
// and adding or removing a shard only remaps the documents whose winning
// shard changed — with explicit per-document placement as an override. This is the ROADMAP's "sharding, batching,
// multi-backend" scaling path: one engine per document keeps shards
// fully isolated (a sign update in one document can never touch
// another), while shared metrics and audit sinks merge the per-shard
// observability streams.
type Catalog struct {
	mu     sync.RWMutex
	shards []string          // shard names, sorted
	placed map[string]string // doc → shard, explicit placement overrides
	docs   map[string]bool   // attached document names
	pl     *pool.Pool        // bounds the cross-shard fan-out; nil = sequential

	docsGauge, shardsGauge *obs.Gauge
	ops                    *obs.Counter
	reg                    *obs.Registry // per-shard latency histograms
}

// NewCatalog creates a catalog with n shards (named "shard0"…"shardN-1";
// n is clamped to at least 1) fanning cross-shard work out on pl (nil
// runs shards sequentially).
func NewCatalog(n int, pl *pool.Pool) *Catalog {
	if n < 1 {
		n = 1
	}
	c := &Catalog{placed: map[string]string{}, docs: map[string]bool{}, pl: pl}
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, fmt.Sprintf("shard%d", i))
	}
	sort.Strings(c.shards)
	return c
}

// SetMetrics attaches a registry: catalog_docs and catalog_shards gauges,
// a catalog_shard_ops_total counter of per-shard work units, and
// per-shard catalog_shard_seconds{shard=...} latency histograms recorded
// by ForEachShard (the dashboard's shard-heat source).
func (c *Catalog) SetMetrics(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = r
	if r == nil {
		c.docsGauge, c.shardsGauge, c.ops = nil, nil, nil
		return
	}
	c.docsGauge = r.Gauge("catalog_docs")
	c.shardsGauge = r.Gauge("catalog_shards")
	c.ops = r.Counter("catalog_shard_ops_total")
	c.updateGaugesLocked()
}

func (c *Catalog) updateGaugesLocked() {
	c.docsGauge.Set(float64(len(c.docs)))
	c.shardsGauge.Set(float64(len(c.shards)))
}

// AddShard registers a new shard name. Routing is re-evaluated lazily:
// rendezvous hashing moves only the documents the new shard now wins.
func (c *Catalog) AddShard(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s == name {
			return fmt.Errorf("store: shard %q already exists", name)
		}
	}
	c.shards = append(c.shards, name)
	sort.Strings(c.shards)
	c.updateGaugesLocked()
	return nil
}

// RemoveShard drops a shard name; its documents re-route to the
// remaining shards (rendezvous hashing touches only those documents).
// Explicit placements onto the shard are forgotten. The last shard
// cannot be removed.
func (c *Catalog) RemoveShard(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.shards) <= 1 {
		return fmt.Errorf("store: cannot remove the last shard")
	}
	i := sort.SearchStrings(c.shards, name)
	if i >= len(c.shards) || c.shards[i] != name {
		return fmt.Errorf("store: unknown shard %q", name)
	}
	c.shards = append(c.shards[:i], c.shards[i+1:]...)
	for doc, s := range c.placed {
		if s == name {
			delete(c.placed, doc)
		}
	}
	c.updateGaugesLocked()
	return nil
}

// Shards lists the shard names, sorted.
func (c *Catalog) Shards() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.shards...)
}

// Place pins a document to a shard, overriding the hash routing.
func (c *Catalog) Place(doc, shard string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.SearchStrings(c.shards, shard)
	if i >= len(c.shards) || c.shards[i] != shard {
		return fmt.Errorf("store: unknown shard %q", shard)
	}
	c.placed[doc] = shard
	return nil
}

// ShardOf returns the shard a document routes to: its explicit placement
// when pinned, the rendezvous-hash winner otherwise.
func (c *Catalog) ShardOf(doc string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shardOfLocked(doc)
}

func (c *Catalog) shardOfLocked(doc string) string {
	if s, ok := c.placed[doc]; ok {
		return s
	}
	// Rendezvous hashing: score every (doc, shard) pair, highest wins.
	// Each document's scores are independent of the shard set, so adding
	// or removing a shard only remaps documents whose winner changed.
	best, bestScore := "", uint64(0)
	for _, s := range c.shards {
		h := fnv.New64a()
		h.Write([]byte(doc))
		h.Write([]byte{0})
		h.Write([]byte(s))
		if score := h.Sum64(); best == "" || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// Attach registers a document name in the catalog.
func (c *Catalog) Attach(doc string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.docs[doc] {
		return fmt.Errorf("store: document %q already attached", doc)
	}
	c.docs[doc] = true
	c.updateGaugesLocked()
	return nil
}

// Detach removes a document (and any explicit placement).
func (c *Catalog) Detach(doc string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.docs, doc)
	delete(c.placed, doc)
	c.updateGaugesLocked()
}

// Docs lists the attached document names, sorted.
func (c *Catalog) Docs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.docs))
	for d := range c.docs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Placement groups the attached documents by the shard they route to
// (shards without documents are omitted); document lists are sorted.
func (c *Catalog) Placement() map[string][]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string][]string{}
	for d := range c.docs {
		s := c.shardOfLocked(d)
		out[s] = append(out[s], d)
	}
	for _, docs := range out {
		sort.Strings(docs)
	}
	return out
}

// ForEachShard fans fn out across the shards holding documents: one call
// per non-empty shard, concurrent up to the pool bound, each receiving
// the shard name and its sorted document list. Documents within a shard
// are processed by one worker — the shard is the unit of parallelism.
// The first error (by shard order) is returned.
//
// A span carried in ctx (obs.ContextWithSpan) parents one "shard" child
// span per fan-out unit — carrying the shard name and document count —
// and each unit's context hands that child to fn, so a catalog-wide
// operation renders as a single connected tree no matter how the pool
// schedules the shards. Each unit's wall time also feeds the shard's
// catalog_shard_seconds histogram when metrics are attached.
func (c *Catalog) ForEachShard(ctx context.Context, fn func(ctx context.Context, shard string, docs []string) error) error {
	placement := c.Placement()
	shards := make([]string, 0, len(placement))
	for s := range placement {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	c.mu.RLock()
	pl, ops, reg := c.pl, c.ops, c.reg
	c.mu.RUnlock()
	return pl.ForEachCtx(ctx, len(shards), func(ctx context.Context, i int) error {
		ops.Inc()
		shard := shards[i]
		sp, ctx := obs.StartCtx(ctx, "shard")
		sp.SetAttr("shard", shard).SetAttr("docs", len(placement[shard]))
		start := time.Now()
		err := fn(ctx, shard, placement[shard])
		reg.Histogram(fmt.Sprintf("catalog_shard_seconds{shard=%q}", shard)).
			ObserveDuration(time.Since(start))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.Finish()
		return err
	})
}
