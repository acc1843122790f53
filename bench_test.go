package xmlac_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section 7), over the reproduction's three backends:
//
//	Table 5  → BenchmarkTable5_*      (document generation + shredding size)
//	Figure 9 → BenchmarkFig9_*        (loading time)
//	Figure 10 → BenchmarkFig10_*      (all-or-nothing response time, 55 queries)
//	Figure 11 → BenchmarkFig11_*      (annotation time across the coverage dataset)
//	Figure 12 → BenchmarkFig12_*      (re-annotation vs full annotation)
//
// plus ablation benchmarks for the design choices DESIGN.md calls out
// (policy optimization, trigger cost, containment cost). cmd/acbench prints
// the same experiments as figure-shaped series; EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xmlac"
	"xmlac/internal/audit"
	"xmlac/internal/bench"
	"xmlac/internal/cam"
	"xmlac/internal/core"
	"xmlac/internal/obs"
	"xmlac/internal/observatory"
	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/store"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
)

// benchFactor keeps `go test -bench=.` fast; cmd/acbench sweeps factors.
const benchFactor = 0.002

func benchDoc(b *testing.B) *xmltree.Document {
	b.Helper()
	return xmark.Generate(xmark.Options{Factor: benchFactor, Seed: 1})
}

func benchSystem(b *testing.B, backend xmlac.Backend, pol *xmlac.Policy, doc *xmltree.Document) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.Config{
		Schema:   xmark.Schema(),
		Policy:   pol.Clone(),
		Backend:  backend,
		Optimize: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Load(doc.Clone()); err != nil {
		b.Fatal(err)
	}
	return sys
}

// ---- Table 5 ----

func BenchmarkTable5_GenerateAndShred(b *testing.B) {
	m, err := shred.BuildMapping(xmark.Schema())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		doc := xmark.Generate(xmark.Options{Factor: benchFactor, Seed: 1})
		var xw, sw strings.Builder
		if err := doc.Write(&xw, xmltree.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := shred.NewShredder(m).ToSQL(&sw, doc); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(xw.Len() + sw.Len()))
	}
}

// ---- Figure 9: loading ----

func BenchmarkFig9_LoadingXQuery(b *testing.B) {
	doc := benchDoc(b)
	var sb strings.Builder
	if err := doc.Write(&sb, xmltree.WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := store.Open(xmlac.BackendNative.String(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		doc, err := xmltree.Parse(strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Load(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLoadingRelational(b *testing.B, eng sqldb.Engine) {
	doc := benchDoc(b)
	m, err := shred.BuildMapping(xmark.Schema())
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := shred.NewShredder(m).ToSQL(&sb, doc); err != nil {
		b.Fatal(err)
	}
	script := sb.String()
	b.SetBytes(int64(len(script)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := sqldb.Open(eng)
		if _, err := db.ExecScript(script); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_LoadingMonetSQL(b *testing.B) { benchLoadingRelational(b, sqldb.EngineColumn) }

func BenchmarkFig9_LoadingMonetCol(b *testing.B) {
	benchLoadingRelational(b, sqldb.EngineColumnVector)
}

func BenchmarkFig9_LoadingPostgres(b *testing.B) { benchLoadingRelational(b, sqldb.EngineRow) }

// ---- Figure 10: response ----

func benchResponse(b *testing.B, backend xmlac.Backend) {
	sys := benchSystem(b, backend, bench.MidPolicy(), benchDoc(b))
	if _, err := sys.Annotate(); err != nil {
		b.Fatal(err)
	}
	queries := bench.Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_, _ = sys.Request(q) // denials are expected outcomes, not errors
	}
}

func BenchmarkFig10_ResponseXQuery(b *testing.B)   { benchResponse(b, xmlac.BackendNative) }
func BenchmarkFig10_ResponseMonetSQL(b *testing.B) { benchResponse(b, xmlac.BackendColumn) }
func BenchmarkFig10_ResponseMonetCol(b *testing.B) { benchResponse(b, xmlac.BackendVector) }
func BenchmarkFig10_ResponsePostgres(b *testing.B) { benchResponse(b, xmlac.BackendRow) }

// ---- Figure 10: request-path before/after (scripts/bench.sh) ----

// requestBenchFactor is the document scale of the request-path comparison:
// large enough (f = 0.1) for the access-check cost to dominate; -short
// drops back to the smoke-test scale.
func requestBenchFactor() float64 {
	if testing.Short() {
		return benchFactor
	}
	return 0.1
}

// benchRequest measures the all-or-nothing request path over the 55-query
// workload under one enforcement mode: signs checks the matches against
// the signs in the store (routed probes, or the folded sign predicate on
// monetcol), the engine's default read path; rewrite decides them against
// the rewriting enforcer's decision set over the unannotated store, which
// Annotate builds.
func benchRequest(b *testing.B, backend xmlac.Backend, mode core.EnforceMode) {
	cfg := core.Config{
		Schema:   xmark.Schema(),
		Policy:   bench.MidPolicy().Clone(),
		Backend:  backend,
		Optimize: true,
		Enforce:  mode,
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	doc := xmark.Generate(xmark.Options{Factor: requestBenchFactor(), Seed: 1})
	if err := sys.Load(doc); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		b.Fatal(err)
	}
	queries := bench.Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_, _ = sys.Request(q) // denials are expected outcomes, not errors
	}
}

func benchRequestPair(b *testing.B, backend xmlac.Backend) {
	b.Run("signs", func(b *testing.B) { benchRequest(b, backend, core.EnforceSigns) })
	b.Run("rewrite", func(b *testing.B) { benchRequest(b, backend, core.EnforceRewrite) })
}

func BenchmarkFig10_RequestMonetSQL(b *testing.B) { benchRequestPair(b, xmlac.BackendColumn) }
func BenchmarkFig10_RequestMonetCol(b *testing.B) { benchRequestPair(b, xmlac.BackendVector) }
func BenchmarkFig10_RequestPostgres(b *testing.B) { benchRequestPair(b, xmlac.BackendRow) }

// BenchmarkHotWrite_SignsVsRewrite measures the same read-after-write
// cycle under each enforcement mode: one delete plus the next request, on
// a system whose read path is warm. The signs run pays Trigger plus
// partial re-annotation in the write; the rewrite run pays whatever the
// write leaves its decision set to — a patch at write time, or a rebuild
// in the read. The reannotated_nodes/op metric records the re-annotation work
// and must be exactly zero in rewrite mode (EXPERIMENTS.md keeps the
// before/after table).
func BenchmarkHotWrite_SignsVsRewrite(b *testing.B) {
	run := func(b *testing.B, mode core.EnforceMode) {
		doc := benchDoc(b)
		updates := bench.Updates()
		queries := bench.Queries()
		var reannotated int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Fresh system per iteration: updates are destructive.
			sys, err := core.NewSystem(core.Config{
				Schema:   xmark.Schema(),
				Policy:   bench.MidPolicy().Clone(),
				Backend:  xmlac.BackendColumn,
				Optimize: true,
				Enforce:  mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Load(doc.Clone()); err != nil {
				b.Fatal(err)
			}
			if mode == core.EnforceSigns {
				if _, err := sys.Annotate(); err != nil {
					b.Fatal(err)
				}
			}
			q := queries[i%len(queries)]
			_, _ = sys.Request(q) // warm the read path; denials are expected outcomes
			u := updates[i%len(updates)]
			b.StartTimer()
			rep, err := sys.DeleteAndReannotate(u)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = sys.Request(q)
			reannotated += rep.Stats.Updated + rep.Stats.Reset
		}
		if mode == core.EnforceRewrite && reannotated != 0 {
			b.Fatalf("rewrite mode re-annotated %d nodes, want 0", reannotated)
		}
		b.ReportMetric(float64(reannotated)/float64(b.N), "reannotated_nodes/op")
	}
	b.Run("signs", func(b *testing.B) { run(b, core.EnforceSigns) })
	b.Run("rewrite", func(b *testing.B) { run(b, core.EnforceRewrite) })
}

// BenchmarkRequest_AuditOverhead measures what the audit trail costs the
// Figure 10 request path: the same MonetSQL signs workload with no
// audit log versus a ring-only log (the default deployment; the JSONL
// sink is asynchronous and drops rather than blocks, so the ring is the
// hot-path cost). EXPERIMENTS.md records the acceptance bound (<10%).
func BenchmarkRequest_AuditOverhead(b *testing.B) {
	run := func(b *testing.B, log *audit.Log) {
		cfg := core.Config{
			Schema:   xmark.Schema(),
			Policy:   bench.MidPolicy().Clone(),
			Backend:  xmlac.BackendColumn,
			Optimize: true,
			Audit:    log,
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		doc := xmark.Generate(xmark.Options{Factor: requestBenchFactor(), Seed: 1})
		if err := sys.Load(doc); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			b.Fatal(err)
		}
		queries := bench.Queries()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			_, _ = sys.Request(q) // denials are expected outcomes, not errors
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("ring", func(b *testing.B) { run(b, audit.NewLog(0)) })
}

// BenchmarkRequest_ObservatoryOverhead measures what the access
// observatory adds on top of the ring log: the same Figure 10 workload
// with the ring alone versus the ring with the observatory listening —
// outcome counters, denial-forensics windows and the live-stream
// publish (no subscribers, the serving steady state). The SLO engine
// ticks off the hot path, so its cost is not request-borne.
// EXPERIMENTS.md records the acceptance bound (<2% over ring-only).
func BenchmarkRequest_ObservatoryOverhead(b *testing.B) {
	run := func(b *testing.B, attach bool) {
		log := audit.NewLog(0)
		if attach {
			o := observatory.New(observatory.Options{Metrics: obs.NewRegistry()})
			if err := o.EnableSLOs("request_p99<5ms,error_rate<1%", 0, 0); err != nil {
				b.Fatal(err)
			}
			o.Attach(log)
		}
		cfg := core.Config{
			Schema:   xmark.Schema(),
			Policy:   bench.MidPolicy().Clone(),
			Backend:  xmlac.BackendColumn,
			Optimize: true,
			Audit:    log,
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		doc := xmark.Generate(xmark.Options{Factor: requestBenchFactor(), Seed: 1})
		if err := sys.Load(doc); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Annotate(); err != nil {
			b.Fatal(err)
		}
		queries := bench.Queries()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			_, _ = sys.Request(q) // denials are expected outcomes, not errors
		}
	}
	b.Run("ring", func(b *testing.B) { run(b, false) })
	b.Run("observatory", func(b *testing.B) { run(b, true) })
}

// ---- Figure 11: annotation across the coverage dataset ----

func benchAnnotation(b *testing.B, backend xmlac.Backend) {
	doc := benchDoc(b)
	for _, np := range bench.CoveragePolicies() {
		np := np
		b.Run(np.Name, func(b *testing.B) {
			sys := benchSystem(b, backend, np.Policy, doc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Annotate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig11_AnnotationXQuery(b *testing.B)   { benchAnnotation(b, xmlac.BackendNative) }
func BenchmarkFig11_AnnotationMonetSQL(b *testing.B) { benchAnnotation(b, xmlac.BackendColumn) }
func BenchmarkFig11_AnnotationMonetCol(b *testing.B) { benchAnnotation(b, xmlac.BackendVector) }
func BenchmarkFig11_AnnotationPostgres(b *testing.B) { benchAnnotation(b, xmlac.BackendRow) }

// ---- Figure 12: re-annotation vs full annotation ----

func benchReannotation(b *testing.B, backend xmlac.Backend, full bool) {
	doc := benchDoc(b)
	updates := bench.Updates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh system per iteration: updates are destructive.
		sys := benchSystem(b, backend, bench.MidPolicy(), doc)
		if _, err := sys.Annotate(); err != nil {
			b.Fatal(err)
		}
		u := updates[i%len(updates)]
		b.StartTimer()
		var err error
		if full {
			_, err = sys.DeleteAndFullAnnotate(u)
		} else {
			_, err = sys.DeleteAndReannotate(u)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_ReannotXQuery(b *testing.B)   { benchReannotation(b, xmlac.BackendNative, false) }
func BenchmarkFig12_FannotXQuery(b *testing.B)    { benchReannotation(b, xmlac.BackendNative, true) }
func BenchmarkFig12_ReannotMonetSQL(b *testing.B) { benchReannotation(b, xmlac.BackendColumn, false) }
func BenchmarkFig12_FannotMonetSQL(b *testing.B)  { benchReannotation(b, xmlac.BackendColumn, true) }
func BenchmarkFig12_ReannotMonetCol(b *testing.B) { benchReannotation(b, xmlac.BackendVector, false) }
func BenchmarkFig12_FannotMonetCol(b *testing.B)  { benchReannotation(b, xmlac.BackendVector, true) }
func BenchmarkFig12_ReannotPostgres(b *testing.B) { benchReannotation(b, xmlac.BackendRow, false) }
func BenchmarkFig12_FannotPostgres(b *testing.B)  { benchReannotation(b, xmlac.BackendRow, true) }

// ---- Ablations ----

// BenchmarkAblation_OptimizerTable3 measures redundancy elimination on the
// hospital policy (the Table 3 computation).
func BenchmarkAblation_OptimizerTable3(b *testing.B) {
	pol := xmlac.HospitalPolicy()
	for i := 0; i < b.N; i++ {
		if reduced, _ := xmlac.RemoveRedundant(pol); len(reduced.Rules) != 5 {
			b.Fatal("optimizer broke")
		}
	}
}

// BenchmarkAblation_TriggerCost measures the Trigger algorithm alone — the
// O(n·h) rule-selection step of every re-annotation.
func BenchmarkAblation_TriggerCost(b *testing.B) {
	sys := benchSystem(b, xmlac.BackendNative, bench.MidPolicy(), benchDoc(b))
	updates := bench.Updates()
	r := sys.Reannotator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Trigger(updates[i%len(updates)])
	}
}

// BenchmarkAblation_Containment measures one homomorphism containment test
// on the paper's most complex rule pair.
func BenchmarkAblation_Containment(b *testing.B) {
	p := xmlac.MustParseXPath("//patient[.//experimental]/name")
	q := xmlac.MustParseXPath("//patient[treatment]/name")
	for i := 0; i < b.N; i++ {
		xmlac.Contains(p, q)
	}
}

// BenchmarkAblation_AnnotateWithoutOptimizer quantifies what redundancy
// elimination buys: annotating with the raw 8-rule hospital policy vs the
// reduced 5-rule one.
func BenchmarkAblation_AnnotateWithoutOptimizer(b *testing.B) {
	for _, optimize := range []bool{false, true} {
		name := "raw"
		if optimize {
			name = "optimized"
		}
		b.Run(name, func(b *testing.B) {
			doc := xmlac.GenerateHospital(xmlac.HospitalGenOptions{
				Seed: 3, Departments: 4, PatientsPerDept: 200, StaffPerDept: 40,
			})
			sys, err := core.NewSystem(core.Config{
				Schema:   xmlac.HospitalSchema(),
				Policy:   xmlac.HospitalPolicy(),
				Backend:  xmlac.BackendNative,
				Optimize: optimize,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Load(doc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Annotate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_XPathToSQL measures translating the heaviest coverage
// rule into SQL.
func BenchmarkAblation_XPathToSQL(b *testing.B) {
	m, err := shred.BuildMapping(xmark.Schema())
	if err != nil {
		b.Fatal(err)
	}
	p := xmlac.MustParseXPath("//item//*")
	for i := 0; i < b.N; i++ {
		if _, err := shred.Translate(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CAM compares the compressed accessibility map (the
// related-work representation of [26]) against the paper's direct per-node
// signs: build cost, lookup cost, and the size ratio (reported as
// marks_per_1k_elements).
func BenchmarkAblation_CAM(b *testing.B) {
	doc := benchDoc(b)
	pol := bench.MidPolicy()
	acc, err := pol.Semantics(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		var m *cam.Map
		for i := 0; i < b.N; i++ {
			m = cam.Build(doc, acc, false)
		}
		b.ReportMetric(float64(m.Size())*1000/float64(doc.ElementCount()), "marks_per_1k_elements")
	})
	m := cam.Build(doc, acc, false)
	nodes := doc.Elements()
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Accessible(nodes[i%len(nodes)])
		}
	})
	b.Run("lookup-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = acc[nodes[i%len(nodes)].ID]
		}
	})
}

// ---- Catalog: multi-document annotation scaling across shards ----

// benchCatalog annotates 8 documents through a catalog of n shards.
// Per-document annotation runs with Parallelism 1 so all observed
// speedup comes from the catalog's cross-shard fan-out; near-linear
// scaling from 1 to 4 shards is the acceptance bar.
func benchCatalog(b *testing.B, shards int) {
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := xmlac.OpenCatalog(xmlac.Config{
		Schema:      schema,
		Policy:      xmlac.HospitalPolicy(),
		Backend:     xmlac.BackendColumn,
		Optimize:    true,
		Parallelism: 1,
	}, shards)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		doc := xmlac.GenerateHospital(xmlac.HospitalGenOptions{
			Seed: uint64(i + 1), Departments: 4, PatientsPerDept: 60, StaffPerDept: 12,
		})
		name := fmt.Sprintf("doc%d", i)
		if err := cat.AddDocument(name, doc); err != nil {
			b.Fatal(err)
		}
		// Spread the documents evenly so every shard carries 8/shards of
		// the load regardless of what the hash would pick.
		if err := cat.Place(name, cat.Shards()[i%shards]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.AnnotateAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCatalogAnnotate1Shard(b *testing.B)  { benchCatalog(b, 1) }
func BenchmarkCatalogAnnotate2Shards(b *testing.B) { benchCatalog(b, 2) }
func BenchmarkCatalogAnnotate4Shards(b *testing.B) { benchCatalog(b, 4) }

// ---- Multi-user scale: policy-cohort compression ----

// multiUserScale is the subject population of the cohort benchmarks: 10k
// users sharing 100 distinct policies (the acceptance point of the cohort
// layer); -short drops to a smoke-test population.
func multiUserScale() (users, policies int) {
	if testing.Short() {
		return 200, 10
	}
	return 10000, 100
}

var multiUserVariants = []struct {
	name    string
	cohorts bool
}{
	{"peruser", false}, // pre-cohort O(users) layout
	{"cohort", true},
}

// BenchmarkMultiUserRebuild measures a full accessibility-map rebuild
// across the whole population — the cost a Delete-triggered reannotation
// pays. Per-user it is O(users) semantics sweeps; with cohorts it is
// O(distinct policies).
func BenchmarkMultiUserRebuild(b *testing.B) {
	users, k := multiUserScale()
	for _, v := range multiUserVariants {
		b.Run(v.name, func(b *testing.B) {
			m, err := bench.BuildMultiUser(users, k, v.cohorts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.RebuildAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiUserMemory reports live heap bytes per registered subject
// after building the full population.
func BenchmarkMultiUserMemory(b *testing.B) {
	users, k := multiUserScale()
	for _, v := range multiUserVariants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				m, err := bench.BuildMultiUser(users, k, v.cohorts)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				grew := float64(0)
				if after.HeapAlloc > before.HeapAlloc {
					grew = float64(after.HeapAlloc - before.HeapAlloc)
				}
				b.ReportMetric(grew/float64(users), "bytes/user")
				runtime.KeepAlive(m)
			}
		})
	}
}

// BenchmarkMultiUserRequest measures request latency under concurrent load
// over the full population; p99 is attached as a custom metric.
func BenchmarkMultiUserRequest(b *testing.B) {
	users, k := multiUserScale()
	queries := bench.MultiUserQueries()
	total := 4096
	if testing.Short() {
		total = 512
	}
	for _, v := range multiUserVariants {
		b.Run(v.name, func(b *testing.B) {
			m, err := bench.BuildMultiUser(users, k, v.cohorts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var p99 int64
			for i := 0; i < b.N; i++ {
				p99 = bench.MultiUserP99(m, users, queries, 16, total)
			}
			b.ReportMetric(float64(p99), "p99_ns")
		})
	}
}

// BenchmarkMultiUserMillion is the million-subject register: 1M users over
// 100 distinct policies, cohort compression on (the per-user baseline at
// this scale is exactly the O(users) blowup the layer removes). Reports
// bytes/user and the resulting cohort count.
func BenchmarkMultiUserMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("million-subject register skipped in -short mode")
	}
	const users, k = 1_000_000, 100
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := bench.BuildMultiUser(users, k, true)
		if err != nil {
			b.Fatal(err)
		}
		if got := m.CohortCount(); got != k {
			b.Fatalf("cohorts = %d, want %d", got, k)
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		grew := float64(0)
		if after.HeapAlloc > before.HeapAlloc {
			grew = float64(after.HeapAlloc - before.HeapAlloc)
		}
		b.ReportMetric(grew/float64(users), "bytes/user")
		b.ReportMetric(float64(m.CohortCount()), "cohorts")
		runtime.KeepAlive(m)
	}
}
