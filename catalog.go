package xmlac

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"xmlac/internal/core"
	"xmlac/internal/obs"
	"xmlac/internal/pool"
	"xmlac/internal/store"
)

// Catalog serves many named documents under one policy, sharded across
// independent store engines. Every document gets its own System (and with
// it its own engine — shards are fully isolated: a sign update in one
// document can never touch another), routed to a shard by rendezvous
// hashing of its name; catalog-wide operations such as AnnotateAll fan
// out shard-by-shard on a worker pool. The per-document systems share the
// catalog Config's Tracer, Metrics and Audit sinks, so the observability
// streams of all shards merge into one view (audit events carry the
// document name to tell them apart).
type Catalog struct {
	mu      sync.RWMutex
	cfg     Config
	shards  *store.Catalog
	systems map[string]*core.System
	pl      *pool.Pool
}

// OpenCatalog builds an empty catalog of n shards (clamped to at least 1)
// from a template configuration. cfg is used for every document the
// catalog opens — Schema, Policy, Backend, optimizer switches and the
// shared observability sinks; cfg.DocName is ignored (each document is
// named at AddDocument time). cfg.Parallelism bounds each document's own
// annotation pool; the cross-shard fan-out pool runs one worker per
// shard (the shard is the unit of catalog parallelism).
func OpenCatalog(cfg Config, n int) (*Catalog, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("xmlac: Config.Schema is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("xmlac: Config.Policy is required")
	}
	if n < 1 {
		n = 1
	}
	pl := pool.New(n)
	if cfg.Metrics != nil {
		pl.SetMetrics(cfg.Metrics)
	}
	c := &Catalog{
		cfg:     cfg,
		shards:  store.NewCatalog(n, pl),
		systems: map[string]*core.System{},
		pl:      pl,
	}
	if cfg.Metrics != nil {
		c.shards.SetMetrics(cfg.Metrics)
	}
	return c, nil
}

// AddDocument opens a new document under the catalog's policy: a fresh
// System (with its own engine) is built with the document's name, the
// document is loaded into it, and its name is attached to the shard
// router. The document is not yet annotated; run AnnotateAll (or
// Annotate on its System) before serving requests.
func (c *Catalog) AddDocument(name string, doc *Document) error {
	if name == "" {
		return fmt.Errorf("xmlac: document name must not be empty")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.systems[name]; dup {
		return fmt.Errorf("xmlac: document %q already in catalog", name)
	}
	cfg := c.cfg
	cfg.DocName = name
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	if err := sys.Load(doc); err != nil {
		return err
	}
	if err := c.shards.Attach(name); err != nil {
		return err
	}
	c.systems[name] = sys
	return nil
}

// RemoveDocument drops a document from the catalog (a no-op for unknown
// names).
func (c *Catalog) RemoveDocument(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards.Detach(name)
	delete(c.systems, name)
}

// System returns the named document's System, or an error naming the
// known documents.
func (c *Catalog) System(name string) (*core.System, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sys := c.systems[name]
	if sys == nil {
		return nil, fmt.Errorf("xmlac: no document %q in catalog (have: %v)", name, c.docsLocked())
	}
	return sys, nil
}

func (c *Catalog) docsLocked() []string {
	out := make([]string, 0, len(c.systems))
	for d := range c.systems {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Docs lists the catalog's document names, sorted.
func (c *Catalog) Docs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.docsLocked()
}

// Shards lists the shard names, sorted.
func (c *Catalog) Shards() []string { return c.shards.Shards() }

// ShardOf returns the shard the named document routes to.
func (c *Catalog) ShardOf(doc string) string { return c.shards.ShardOf(doc) }

// Placement groups the documents by the shard they route to.
func (c *Catalog) Placement() map[string][]string { return c.shards.Placement() }

// AddShard grows the shard set; rendezvous routing moves only the
// documents the new shard wins.
func (c *Catalog) AddShard(name string) error { return c.shards.AddShard(name) }

// RemoveShard shrinks the shard set; only the removed shard's documents
// re-route. The last shard cannot be removed.
func (c *Catalog) RemoveShard(name string) error { return c.shards.RemoveShard(name) }

// Place pins a document to a shard, overriding the hash routing.
func (c *Catalog) Place(doc, shard string) error { return c.shards.Place(doc, shard) }

// ForEach runs fn for every document, fanned out shard-by-shard on the
// catalog pool: documents on different shards run concurrently, documents
// sharing a shard run on one worker in name order. The first error (by
// shard order) is returned.
func (c *Catalog) ForEach(fn func(name string, sys *core.System) error) error {
	return c.forEachCtx(context.Background(),
		func(_ context.Context, name string, sys *core.System) error { return fn(name, sys) })
}

// forEachCtx is the ctx-threaded fan-out behind every catalog-wide
// operation: the shard router creates one "shard" child span per
// fan-out unit under the span carried in ctx, and each document callback
// receives that unit's context, so per-document spans nest under their
// shard.
func (c *Catalog) forEachCtx(ctx context.Context, fn func(ctx context.Context, name string, sys *core.System) error) error {
	c.mu.RLock()
	systems := make(map[string]*core.System, len(c.systems))
	for d, s := range c.systems {
		systems[d] = s
	}
	c.mu.RUnlock()
	return c.shards.ForEachShard(ctx, func(ctx context.Context, _ string, docs []string) error {
		for _, d := range docs {
			if sys := systems[d]; sys != nil {
				if err := fn(ctx, d, sys); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// startSpan roots a catalog-wide operation: under the span carried in
// ctx when the caller is itself traced, as a fresh root on the catalog's
// tracer otherwise.
func (c *Catalog) startSpan(ctx context.Context, name string) *Span {
	if parent := obs.FromContext(ctx); parent != nil {
		return obs.Start(parent, name)
	}
	return c.cfg.Tracer.Start(name)
}

// AnnotateAll annotates every document, shards in parallel, and returns
// the per-document statistics. The run traces as one "catalog-annotate"
// tree: one shard child per fan-out unit, one annotate span per document.
func (c *Catalog) AnnotateAll() (map[string]AnnotateStats, error) {
	return c.AnnotateAllCtx(context.Background())
}

// AnnotateAllCtx is AnnotateAll under a caller's context (see RequestAllCtx).
func (c *Catalog) AnnotateAllCtx(ctx context.Context) (map[string]AnnotateStats, error) {
	sp := c.startSpan(ctx, "catalog-annotate")
	defer sp.Finish()
	ctx = obs.ContextWithSpan(ctx, sp)
	var mu sync.Mutex
	out := map[string]AnnotateStats{}
	err := c.forEachCtx(ctx, func(ctx context.Context, name string, sys *core.System) error {
		stats, err := sys.AnnotateCtx(ctx)
		if err != nil {
			return fmt.Errorf("xmlac: annotate %q: %w", name, err)
		}
		mu.Lock()
		out[name] = stats
		mu.Unlock()
		return nil
	})
	sp.SetAttr("docs", len(out))
	return out, err
}

// Request routes a user query to the named document.
func (c *Catalog) Request(doc string, q *Path) (*RequestResult, error) {
	sys, err := c.System(doc)
	if err != nil {
		return nil, err
	}
	return sys.Request(q)
}

// RequestAll broadcasts one user query to every document of the catalog,
// fanned out shard-by-shard. It returns the granted results and the
// per-document failures (including policy denials) keyed by document
// name; a denial in one document does not stop the broadcast. The whole
// broadcast traces as a single "catalog-request" tree — one root, one
// shard child per fan-out unit, one request span per document, all
// sharing the root's trace id — and every per-document audit event
// carries that trace id.
func (c *Catalog) RequestAll(q *Path) (map[string]*RequestResult, map[string]error) {
	return c.RequestAllCtx(context.Background(), q)
}

// RequestAllCtx is RequestAll under a caller's context: a span carried
// in ctx (xmlac.ContextWithSpan) parents the broadcast root instead of a
// fresh trace being started.
func (c *Catalog) RequestAllCtx(ctx context.Context, q *Path) (map[string]*RequestResult, map[string]error) {
	sp := c.startSpan(ctx, "catalog-request").SetAttr("query", q.String())
	defer sp.Finish()
	ctx = obs.ContextWithSpan(ctx, sp)
	var mu sync.Mutex
	results := map[string]*RequestResult{}
	errs := map[string]error{}
	_ = c.forEachCtx(ctx, func(ctx context.Context, name string, sys *core.System) error {
		res, err := sys.RequestCtx(ctx, q)
		mu.Lock()
		if err != nil {
			errs[name] = err
		} else {
			results[name] = res
		}
		mu.Unlock()
		return nil // per-document outcomes are reported, not propagated
	})
	sp.SetAttr("granted", len(results)).SetAttr("denied-or-failed", len(errs))
	return results, errs
}

// Why explains the accessibility of every node the query matches in the
// named document.
func (c *Catalog) Why(doc string, q *Path) ([]WhyDecision, error) {
	sys, err := c.System(doc)
	if err != nil {
		return nil, err
	}
	return sys.Why(q)
}

// Coverage returns the accessible element fraction of the named document.
func (c *Catalog) Coverage(doc string) (float64, error) {
	sys, err := c.System(doc)
	if err != nil {
		return 0, err
	}
	return sys.Coverage()
}

// DeleteAndReannotate routes a delete update to the named document and
// re-annotates only its affected region. Other documents are untouched —
// shard isolation is per document.
func (c *Catalog) DeleteAndReannotate(doc string, u *Path) (*UpdateReport, error) {
	sys, err := c.System(doc)
	if err != nil {
		return nil, err
	}
	return sys.DeleteAndReannotate(u)
}
