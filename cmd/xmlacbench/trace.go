package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlac"
	"xmlac/internal/shred"
	"xmlac/internal/store"
)

// span is one timed region the benchmark records around a call into one
// layer's public entry point. Spans of one operation share Op; a root
// span has Parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps finished spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced phases run.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) open(op, parent int64, name string) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.next.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) close(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// selfTime sums, per span name, the time spans took and the part of it
// their children did not cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func selfTimes(spans []span) map[string]*selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*selfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalMS += s.ms()
		st.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// dumpTrace writes both tracers' spans and their self times as JSON.
func dumpTrace(path, workload string, seed int64, load, replay *tracer) error {
	phase := func(t *tracer) map[string]any {
		return map[string]any{"spans": t.spans, "self_time": selfTimes(t.spans)}
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload,
		"seed":     seed,
		"load":     phase(load),
		"replay":   phase(replay),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const (
	// replayWriteEvery makes every such replayed operation a write.
	replayWriteEvery = 10
	// fullAnnotations is how many full annotations the replay of a signs
	// workload times at its end, the Fig. 12 baseline.
	fullAnnotations = 3
)

// tally counts what the replay observed besides span times.
type tally struct {
	reads, decided, granted int
	planHits, planMisses    int64
	statements              uint64
	httpReads, respBytes    int
	reports                 []*xmlac.UpdateReport
	ops                     []sample
}

// httpRead issues query qi over HTTP, returning the response size.
type httpRead func(qi int) (bytes int, failed, wrong bool)

// replay re-issues the workload's operations one at a time for d, timing
// each layer's public entry point as a span of its own, in the order a
// request crosses them. Every replayWriteEvery-th operation is a write.
// Run alone, the calls cannot race the writer.
func (b *bench) replay(d time.Duration, http httpRead) (*tally, error) {
	t := &tally{}
	tr := b.tr
	ctx := context.Background()
	eng := b.sys.Engine()
	rel, _ := eng.(store.Relational)
	raw, _ := eng.(store.RawQuerier)
	rewrite := b.sys.ActiveMode() == xmlac.EnforceRewrite
	sqlStats := func() (hits, misses int64, stmts uint64) {
		if rel == nil {
			return 0, 0, 0
		}
		p := rel.DB().PlanCacheStats()
		return p.Hits, p.Misses, rel.DB().StatementCount()
	}
	deadline := time.Now().Add(d)
	for i := 1; time.Now().Before(deadline); i++ {
		op := tr.newOp()
		if i%replayWriteEvery == 0 {
			if err := b.replayWrite(op, b.query(i), rewrite, t); err != nil {
				return nil, err
			}
			continue
		}
		qi := b.query(i)
		root := tr.open(op, 0, "read")
		if http != nil {
			s := tr.open(op, root.id(), "http.request")
			n, failed, wrong := http(qi)
			tr.close(s)
			t.httpReads++
			t.respBytes += n
			t.ops = append(t.ops, sample{failed: failed, wrong: wrong})
		}
		s := tr.open(op, root.id(), "xpath.parse")
		q, err := xmlac.ParseXPath(b.in.texts[qi])
		tr.close(s)
		if err != nil {
			return nil, err
		}
		s = tr.open(op, root.id(), "pattern.classify")
		if b.sys.ClassifyQuery(q) != xmlac.StaticUnknown {
			t.decided++
		}
		tr.close(s)

		h0, m0, st0 := sqlStats()
		s = tr.open(op, root.id(), "core.request")
		res, err := b.sys.RequestCtx(ctx, q)
		tr.close(s)
		h1, m1, st1 := sqlStats()
		t.planHits += h1 - h0
		t.planMisses += m1 - m0
		t.statements += st1 - st0
		t.reads++
		if err == nil {
			t.granted++
		}
		failed, wrong := judge(res, err, b.state()[qi])
		t.ops = append(t.ops, sample{failed: failed, wrong: wrong})

		s = tr.open(op, root.id(), "store.request")
		if rewrite {
			_, err = raw.RawQuery(ctx, q)
		} else {
			_, err = eng.Request(ctx, q)
		}
		tr.close(s)
		if err != nil && !errors.Is(err, xmlac.ErrAccessDenied) {
			return nil, fmt.Errorf("store request %s: %w", q, err)
		}
		// Every backend keeps the tree, and updates locate their targets on
		// it, so tree evaluation is timed on the relational workloads too.
		s = tr.open(op, root.id(), "xpath.eval")
		_, err = xmlac.EvalXPath(q, b.sys.Document())
		tr.close(s)
		if err != nil {
			return nil, err
		}
		if rel != nil {
			s = tr.open(op, root.id(), "shred.translate")
			sql, err := shred.Translate(rel.Mapping(), q)
			tr.close(s)
			if err != nil {
				return nil, fmt.Errorf("translate %s: %w", q, err)
			}
			s = tr.open(op, root.id(), "sqldb.exec")
			_, err = rel.DB().Exec(sql)
			tr.close(s)
			if err != nil {
				return nil, fmt.Errorf("exec %s: %w", q, err)
			}
		}
		tr.close(root)
	}
	if !rewrite {
		for i := 0; i < fullAnnotations; i++ {
			s := tr.open(tr.newOp(), 0, "annot.full")
			_, err := b.sys.Annotate()
			tr.close(s)
			if err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// replayWrite applies the next write; under rewriting enforcement it then
// reads twice, so the first read pays the scope rebuild and the second
// finds it warm.
func (b *bench) replayWrite(op int64, qi int, rewrite bool, t *tally) error {
	tr := b.tr
	apply, err := b.nextWrite()
	if err != nil {
		return err
	}
	root := tr.open(op, 0, "write")
	s := tr.open(op, root.id(), "core.write")
	rep, err := apply()
	tr.close(s)
	t.ops = append(t.ops, sample{failed: err != nil})
	if err == nil {
		t.reports = append(t.reports, rep)
	}
	if rewrite {
		for _, name := range []string{"rewrite.first_read", "rewrite.warm_read"} {
			s := tr.open(op, root.id(), name)
			res, err := b.sys.Request(b.in.queries[qi])
			tr.close(s)
			failed, wrong := judge(res, err, b.state()[qi])
			t.ops = append(t.ops, sample{failed: failed, wrong: wrong})
		}
	}
	tr.close(root)
	return nil
}

// traced is the --trace 1 run. The workload's load runs untraced and then
// traced for a third of the time each — the throughput gap is the tracing
// overhead — and a replay takes the last third. The per-layer metrics come
// from the replay's spans and tallies and from the untraced load's
// timestamps; http is the served side of serve-native (nil in process).
func (b *bench) traced(d time.Duration, o options, rep *report, load func(time.Duration) (*loadResult, error), http httpRead) (*report, error) {
	third := d / 3
	a, err := load(third)
	if err != nil {
		return nil, err
	}
	loadTr := newTracer()
	b.tr = loadTr
	traced, err := load(third)
	if err != nil {
		return nil, err
	}
	replayTr := newTracer()
	b.tr = replayTr
	t, err := b.replay(third, http)
	b.tr = nil
	if err != nil {
		return nil, err
	}
	a.countInto(rep)
	traced.countInto(rep)
	rep.count(t.ops)

	byName := map[string][]float64{}
	byOp := map[int64]map[string]float64{}
	for _, s := range replayTr.spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string]float64{}
		}
		byOp[s.Op][s.Name] = s.ms()
	}
	p50 := func(name string) float64 { return median(byName[name]) }
	// gap is the per-operation difference of two spans of the same read.
	gap := func(outer, inner string) float64 {
		var ds []float64
		for _, m := range byOp {
			x, okx := m[outer]
			y, oky := m[inner]
			if okx && oky {
				ds = append(ds, x-y)
			}
		}
		return median(ds)
	}
	ratio := func(n, of float64) float64 {
		if of == 0 {
			return 0
		}
		return n / of
	}
	eval := "xpath.eval"
	if _, ok := b.sys.Engine().(store.Relational); ok {
		eval = "sqldb.exec"
	}
	var trigger, prepare, apply, complete, work, rules, perChanged []float64
	for _, r := range t.reports {
		tg, _ := r.Stats.Phases.Get("trigger-selection")
		trigger = append(trigger, float64(tg)/1e3)
		prepare = append(prepare, float64(r.PrepareTime)/1e6)
		apply = append(apply, float64(r.UpdateTime)/1e6)
		complete = append(complete, float64(r.ReannotateTime)/1e6)
		work = append(work, float64(r.PrepareTime+r.ReannotateTime)/1e6)
		rules = append(rules, float64(len(r.Triggered)))
		perChanged = append(perChanged, float64(r.Stats.Updated+r.Stats.Reset)/bidderChanged)
	}
	waitMS, blocked := readWait(a.reads, a.wr.held)
	tputA, tputB := throughput(a.reads, a.dur), throughput(traced.reads, traced.dur)

	rep.add("xpath.parse_us", p50("xpath.parse")*1e3, "us")
	rep.add("xpath.eval_ms", p50("xpath.eval"), "ms")
	rep.add("pattern.classify_us", p50("pattern.classify")*1e3, "us")
	rep.add("pattern.static_decided_ratio", ratio(float64(t.decided), float64(t.reads)), "ratio")
	rep.add("core.request_ms", p50("core.request"), "ms")
	rep.add("core.overhead_ms", gap("core.request", "store.request"), "ms")
	rep.add("core.read_wait_ms", waitMS, "ms")
	rep.add("core.reads_blocked_ratio", blocked, "ratio")
	rep.add("core.grant_ratio", ratio(float64(t.granted), float64(t.reads)), "ratio")
	rep.add("store.request_ms", p50("store.request"), "ms")
	rep.add("store.check_ms", gap("store.request", eval), "ms")
	rep.add("shred.translate_us", p50("shred.translate")*1e3, "us")
	rep.add("sqldb.exec_ms", p50("sqldb.exec"), "ms")
	rep.add("sqldb.plan_cache_hit_ratio", ratio(float64(t.planHits), float64(t.planHits+t.planMisses)), "ratio")
	rep.add("sqldb.statements_per_request", ratio(float64(t.statements), float64(t.reads)), "count")
	rep.add("reannot.trigger_us", median(trigger), "us")
	rep.add("reannot.prepare_ms", median(prepare), "ms")
	rep.add("reannot.apply_ms", median(apply), "ms")
	rep.add("reannot.complete_ms", median(complete), "ms")
	rep.add("reannot.triggered_rules", mean(rules), "count")
	rep.add("reannot.signs_per_changed_node", mean(perChanged), "ratio")
	rep.add("reannot.vs_full", ratio(p50("annot.full"), median(work)), "ratio")
	rep.add("annot.full_ms", p50("annot.full"), "ms")
	rep.add("rewrite.first_read_ms", p50("rewrite.first_read"), "ms")
	rep.add("rewrite.warm_read_ms", p50("rewrite.warm_read"), "ms")
	httpOverhead := 0.0
	if t.httpReads > 0 {
		httpOverhead = p50("http.request") - p50("core.request")
	}
	rep.add("http.overhead_ms", httpOverhead, "ms")
	rep.add("http.resp_bytes", ratio(float64(t.respBytes), float64(t.httpReads)), "bytes")
	rep.add("loadgen.timer_lag_p99_ms", percentile(sortedCopy(a.lags), 99), "ms")
	rep.add("trace.overhead_pct", ratio(tputA-tputB, tputA)*100, "%")
	rep.add("tput_untraced_ops_s", tputA, "1/s")
	rep.add("tput_traced_ops_s", tputB, "1/s")
	rep.add("replay_reads", float64(t.reads), "count")
	rep.add("replay_writes", float64(len(t.reports)), "count")
	rep.addTotals()

	path := filepath.Join(o.workDir, "trace-"+b.w.name+".json")
	if err := dumpTrace(path, b.w.name, o.seed, loadTr, replayTr); err != nil {
		return nil, err
	}
	rep.add("trace_spans", float64(len(loadTr.spans)+len(replayTr.spans)), "count")
	return rep, nil
}
