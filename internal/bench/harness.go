package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"xmlac/internal/core"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/shred"
	"xmlac/internal/sqldb"
	"xmlac/internal/store"
	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// AllBackends are the three stores of the evaluation, in the order the
// paper's figure legends list them.
var AllBackends = []core.Backend{core.BackendNative, core.BackendColumn, core.BackendRow}

// DefaultFactors are the xmlgen scale factors the harness sweeps by
// default. The paper ran 0.0001–10; the substrate here is an in-process
// simulator, so the default sweep stops earlier and larger factors are
// opt-in via cmd/acbench -factors.
var DefaultFactors = []float64{0.0001, 0.001, 0.01}

// docCache avoids regenerating the same document repeatedly inside one
// harness run.
type docCache struct {
	seed uint64
	docs map[float64]*xmltree.Document
}

func newDocCache(seed uint64) *docCache {
	return &docCache{seed: seed, docs: map[float64]*xmltree.Document{}}
}

func (c *docCache) get(f float64) *xmltree.Document {
	if d, ok := c.docs[f]; ok {
		return d.Clone()
	}
	d := xmark.Generate(xmark.Options{Factor: f, Seed: c.seed})
	c.docs[f] = d
	return d.Clone()
}

// countingWriter counts bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// ---- Table 5: document sizes ----

// SizeRow is one row of Table 5: the XML text size and the shredded SQL
// script size for one scale factor.
type SizeRow struct {
	Factor   float64
	Elements int
	XMLBytes int64
	SQLBytes int64
}

// Table5 generates a document per factor and measures both representations.
func Table5(factors []float64, seed uint64) ([]SizeRow, error) {
	m, err := shred.BuildMapping(xmark.Schema())
	if err != nil {
		return nil, err
	}
	cache := newDocCache(seed)
	var rows []SizeRow
	for _, f := range factors {
		doc := cache.get(f)
		var xw countingWriter
		if err := doc.Write(&xw, xmltree.WriteOptions{}); err != nil {
			return nil, err
		}
		var sw countingWriter
		if err := shred.NewShredder(m).ToSQL(&sw, doc); err != nil {
			return nil, err
		}
		rows = append(rows, SizeRow{Factor: f, Elements: doc.ElementCount(), XMLBytes: xw.n, SQLBytes: sw.n})
	}
	return rows, nil
}

// PrintTable5 renders the rows like the paper's Table 5.
func PrintTable5(w io.Writer, rows []SizeRow) {
	fmt.Fprintf(w, "Table 5: documents generated with xmlgen and their sizes\n")
	fmt.Fprintf(w, "%10s %10s %12s %12s\n", "factor", "elements", "XML", "SQL")
	for _, r := range rows {
		fmt.Fprintf(w, "%10g %10d %12s %12s\n", r.Factor, r.Elements, human(r.XMLBytes), human(r.SQLBytes))
	}
}

func human(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d", n)
	}
}

// ---- Figure 9: loading time ----

// LoadRow is one x-position of Figure 9: loading time per backend.
type LoadRow struct {
	Factor float64
	Times  map[string]time.Duration // backend label → duration
}

// Fig9 measures loading: the native store parses the XML text; each
// relational engine executes the shredded INSERT script statement by
// statement, exactly the paper's setup ("loading time is the time needed to
// run these SQL files on a relational database").
func Fig9(factors []float64, seed uint64) ([]LoadRow, error) {
	m, err := shred.BuildMapping(xmark.Schema())
	if err != nil {
		return nil, err
	}
	cache := newDocCache(seed)
	var rows []LoadRow
	for _, f := range factors {
		doc := cache.get(f)
		var xmlText strings.Builder
		if err := doc.Write(&xmlText, xmltree.WriteOptions{}); err != nil {
			return nil, err
		}
		var sqlText strings.Builder
		if err := shred.NewShredder(m).ToSQL(&sqlText, doc); err != nil {
			return nil, err
		}
		row := LoadRow{Factor: f, Times: map[string]time.Duration{}}

		// Warm up the XML decoder's process-wide lazy state, then take the
		// best of three trials so one-off GC pauses don't skew tiny inputs.
		if _, err := xmltree.Parse(strings.NewReader("<a/>")); err != nil {
			return nil, err
		}
		best, err := bestOfTrials(3, func() error {
			eng, err := store.Open(core.BackendNative.String(), store.Options{Metrics: Metrics})
			if err != nil {
				return err
			}
			doc, err := xmltree.Parse(strings.NewReader(xmlText.String()))
			if err != nil {
				return err
			}
			return eng.Load(doc)
		})
		if err != nil {
			return nil, err
		}
		row.Times[core.BackendNative.String()] = best

		for _, eng := range []sqldb.Engine{sqldb.EngineColumn, sqldb.EngineRow} {
			label := core.BackendColumn.String()
			if eng == sqldb.EngineRow {
				label = core.BackendRow.String()
			}
			best, err := bestOfTrials(3, func() error {
				db := sqldb.Open(eng)
				db.SetMetrics(Metrics)
				_, err := db.ExecScript(sqlText.String())
				return err
			})
			if err != nil {
				return nil, err
			}
			row.Times[label] = best
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig9 renders the series of Figure 9.
func PrintFig9(w io.Writer, rows []LoadRow) {
	printTimeSeries(w, "Figure 9: avg loading time (seconds) vs document size", rows,
		func(r LoadRow) (float64, map[string]time.Duration) { return r.Factor, r.Times })
}

// bestOfTrials times fn several times and returns the fastest run.
func bestOfTrials(n int, fn func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// ---- Figure 10: response time ----

// RespRow is one x-position of Figure 10: average all-or-nothing response
// time over the 55-query workload.
type RespRow struct {
	Factor  float64
	Avg     map[string]time.Duration
	Granted map[string]int // how many of the 55 requests were granted
}

// Fig10 loads and annotates each document under the mid-coverage policy and
// measures the average response time of the 55-query workload per backend.
func Fig10(factors []float64, seed uint64) ([]RespRow, error) {
	queries := Queries()
	cache := newDocCache(seed)
	var rows []RespRow
	for _, f := range factors {
		row := RespRow{Factor: f, Avg: map[string]time.Duration{}, Granted: map[string]int{}}
		for _, b := range AllBackends {
			sys, err := newSystem(b, MidPolicy())
			if err != nil {
				return nil, err
			}
			if err := sys.Load(cache.get(f)); err != nil {
				return nil, err
			}
			if _, err := sys.Annotate(); err != nil {
				return nil, err
			}
			start := time.Now()
			granted := 0
			for _, q := range queries {
				if _, err := sys.Request(q); err == nil {
					granted++
				}
			}
			row.Avg[b.String()] = time.Since(start) / time.Duration(len(queries))
			row.Granted[b.String()] = granted
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig10 renders the series of Figure 10.
func PrintFig10(w io.Writer, rows []RespRow) {
	printTimeSeries(w, "Figure 10: avg response time (per query) vs document size", rows,
		func(r RespRow) (float64, map[string]time.Duration) { return r.Factor, r.Avg })
}

// ---- Figure 11: annotation time vs coverage ----

// CoverageRow is one point of Figure 11: annotation time at a measured
// coverage, for one backend and document factor.
type CoverageRow struct {
	Backend  string
	Factor   float64
	Policy   string
	Coverage float64 // measured accessible fraction, 0..1
	Annotate time.Duration
}

// Fig11 runs the coverage policy dataset over every backend and factor.
func Fig11(factors []float64, seed uint64) ([]CoverageRow, error) {
	cache := newDocCache(seed)
	policies := CoveragePolicies()
	var rows []CoverageRow
	for _, b := range AllBackends {
		for _, f := range factors {
			for _, np := range policies {
				sys, err := newSystem(b, np.Policy)
				if err != nil {
					return nil, err
				}
				if err := sys.Load(cache.get(f)); err != nil {
					return nil, err
				}
				st, err := sys.Annotate()
				d := st.Duration
				if err != nil {
					return nil, err
				}
				cov, err := sys.Coverage()
				if err != nil {
					return nil, err
				}
				rows = append(rows, CoverageRow{
					Backend: b.String(), Factor: f, Policy: np.Name,
					Coverage: cov, Annotate: d,
				})
			}
		}
	}
	return rows, nil
}

// PrintFig11 renders one sub-figure per backend, series per factor, points
// (coverage%, seconds) — the shape of Figure 11.
func PrintFig11(w io.Writer, rows []CoverageRow) {
	byBackend := map[string][]CoverageRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byBackend[r.Backend]; !ok {
			order = append(order, r.Backend)
		}
		byBackend[r.Backend] = append(byBackend[r.Backend], r)
	}
	fmt.Fprintf(w, "Figure 11: avg annotation time vs doc coverage\n")
	for _, b := range order {
		fmt.Fprintf(w, "  (%s)\n", b)
		fmt.Fprintf(w, "  %8s %8s %12s %14s\n", "factor", "policy", "coverage(%)", "annot time")
		for _, r := range byBackend[b] {
			fmt.Fprintf(w, "  %8g %8s %12.1f %14s\n", r.Factor, r.Policy, r.Coverage*100, fmtDur(r.Annotate))
		}
	}
}

// ---- Figure 12: re-annotation vs full annotation ----

// ReannotRow is one x-position of Figure 12 for one backend: average
// re-annotation and full-annotation time over the update workload.
type ReannotRow struct {
	Backend string
	Factor  float64
	Reannot time.Duration
	Fannot  time.Duration
	Updates int
}

// Speedup is the full/partial ratio — the paper's headline metric.
func (r ReannotRow) Speedup() float64 {
	if r.Reannot == 0 {
		return 0
	}
	return float64(r.Fannot) / float64(r.Reannot)
}

// Fig12 applies the delete-update workload to two identically loaded and
// annotated systems per backend: one re-annotates partially
// (Section 5.3), the other re-annotates from scratch. Updates are applied
// sequentially to both (the same document evolution), and the per-update
// times are averaged. maxUpdates caps the workload (0 = all).
func Fig12(factors []float64, seed uint64, maxUpdates int) ([]ReannotRow, error) {
	updates := Updates()
	if maxUpdates > 0 && maxUpdates < len(updates) {
		updates = updates[:maxUpdates]
	}
	pol := MidPolicy()
	cache := newDocCache(seed)
	var rows []ReannotRow
	for _, b := range AllBackends {
		for _, f := range factors {
			partial, err := newSystem(b, pol)
			if err != nil {
				return nil, err
			}
			full, err := newSystem(b, pol)
			if err != nil {
				return nil, err
			}
			if err := partial.Load(cache.get(f)); err != nil {
				return nil, err
			}
			if err := full.Load(cache.get(f)); err != nil {
				return nil, err
			}
			if _, err := partial.Annotate(); err != nil {
				return nil, err
			}
			if _, err := full.Annotate(); err != nil {
				return nil, err
			}
			var reannotTotal, fannotTotal time.Duration
			for _, u := range updates {
				rep, err := partial.DeleteAndReannotate(u)
				if err != nil {
					return nil, err
				}
				reannotTotal += rep.PrepareTime + rep.ReannotateTime
				rep, err = full.DeleteAndFullAnnotate(u)
				if err != nil {
					return nil, err
				}
				fannotTotal += rep.ReannotateTime
			}
			n := time.Duration(len(updates))
			rows = append(rows, ReannotRow{
				Backend: b.String(), Factor: f,
				Reannot: reannotTotal / n, Fannot: fannotTotal / n,
				Updates: len(updates),
			})
		}
	}
	return rows, nil
}

// PrintFig12 renders one sub-figure per backend with the reannot and fannot
// series — the shape of Figure 12 — plus the speedup column the paper
// quotes (≈5× XQuery, ≈9× MonetDB/SQL, ≈7× PostgreSQL).
func PrintFig12(w io.Writer, rows []ReannotRow) {
	byBackend := map[string][]ReannotRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byBackend[r.Backend]; !ok {
			order = append(order, r.Backend)
		}
		byBackend[r.Backend] = append(byBackend[r.Backend], r)
	}
	fmt.Fprintf(w, "Figure 12: avg reannotation vs full annotation per update\n")
	for _, b := range order {
		fmt.Fprintf(w, "  (%s)\n", b)
		fmt.Fprintf(w, "  %8s %14s %14s %9s\n", "factor", "reannot", "fannot", "speedup")
		for _, r := range byBackend[b] {
			fmt.Fprintf(w, "  %8g %14s %14s %8.1fx\n", r.Factor, fmtDur(r.Reannot), fmtDur(r.Fannot), r.Speedup())
		}
	}
}

// ---- shared helpers ----

// Metrics, when set, is attached to every system the harness builds, so
// cmd/acbench -metrics can dump the backend execution counters of a whole
// benchmark run.
var Metrics *obs.Registry

// Parallelism is the worker-pool bound for every system the harness builds:
// 0 selects GOMAXPROCS, 1 runs every unit in the caller, one after another
// (cmd/acbench -parallel, scripts/bench.sh's before/after comparison).
var Parallelism int

func newSystem(b core.Backend, pol *policy.Policy) (*core.System, error) {
	return core.NewSystem(core.Config{
		Schema:   xmark.Schema(),
		Policy:   pol.Clone(),
		Backend:  b,
		Optimize: true,
		Metrics:  Metrics,
	}.WithParallelism(Parallelism))
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// printTimeSeries renders rows of (x, per-backend duration) in figure form.
func printTimeSeries[T any](w io.Writer, title string, rows []T, get func(T) (float64, map[string]time.Duration)) {
	fmt.Fprintln(w, title)
	labels := []string{core.BackendNative.String(), core.BackendColumn.String(), core.BackendRow.String()}
	fmt.Fprintf(w, "%10s", "factor")
	for _, l := range labels {
		fmt.Fprintf(w, " %12s", l)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		x, times := get(r)
		fmt.Fprintf(w, "%10g", x)
		for _, l := range labels {
			fmt.Fprintf(w, " %12s", fmtDur(times[l]))
		}
		fmt.Fprintln(w)
	}
}

// Queries55 re-exports the workload size for reporting.
const Queries55 = 55

// ValidateWorkload checks that the query and update workloads parse and
// are absolute; used by tests and at harness start-up.
func ValidateWorkload() error {
	for _, q := range Queries() {
		if !q.Absolute {
			return fmt.Errorf("bench: query %q is not absolute", q)
		}
	}
	for _, u := range Updates() {
		if !u.Absolute {
			return fmt.Errorf("bench: update %q is not absolute", u)
		}
	}
	if len(queryTexts) != Queries55 {
		return fmt.Errorf("bench: workload has %d queries, want %d", len(queryTexts), Queries55)
	}
	_ = xpath.Wildcard
	return nil
}
