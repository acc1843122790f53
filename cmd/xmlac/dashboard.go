// The /dashboard route: a single self-contained HTML page summarizing a
// running deployment at a glance — request latency quantiles per engine,
// per-shard heat, the busiest policy rules, the slowest recent traces
// (with trace ids that join the /audit stream), and the latest denials.
// Everything is computed server-side from the same registry, collector
// and audit ring the JSON endpoints expose; the page carries no scripts
// and refreshes itself via a meta tag.
package main

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"xmlac"
)

// latRow is one latency-quantile table row.
type latRow struct {
	Series string // engine / outcome labels, human form
	Count  uint64
	P50    string
	P95    string
	P99    string
}

// shardRow is one shard-heat table row.
type shardRow struct {
	Shard   string
	Docs    int
	Ops     uint64
	P95     string
	Total   string
	HeatPct int // bar width, share of the busiest shard's total time
}

// vecRow is one vectorized-executor table row.
type vecRow struct {
	Engine  string
	Rows    int64
	Batches int64
}

// cohortRow is one multi-user cohort table row.
type cohortRow struct {
	ID       string
	Members  int
	Rules    int
	Default  string
	Conflict string
	Marks    int
}

// traceRow is one slow-traces table row.
type traceRow struct {
	Trace    string
	Name     string
	Duration string
	Spans    int
}

// alertRow is one SLO burn-rate table row.
type alertRow struct {
	SLO      string
	Raw      string
	State    string
	Firing   bool
	FastBurn string
	SlowBurn string
}

// forensicRow is one denial-forensics window row.
type forensicRow struct {
	Window  string
	Count   int64
	Prev    int64
	Rate    string
	TopUser string
	TopRule string
	TopDoc  string
}

// denialRow is one recent-denials table row.
type denialRow struct {
	Time  string
	Doc   string
	Query string
	Rules string
	Trace string
}

type dashData struct {
	Version    string
	Mode       string // "document" or "catalog"
	Backend    string
	Semantics  string
	Docs       []string
	Shards     []string
	Latency    []latRow
	Vector     []vecRow
	ShardHeat  []shardRow
	Slow       []traceRow
	Denials    []denialRow
	MultiUser  bool // the -users layer is active
	MUUsers    int
	MUCohorts  int
	MUDedup    string // users per cohort, e.g. "3.0x"
	MUHits     int64  // registrations that joined an existing cohort
	MUCohortTb []cohortRow
	SLOOn      bool // the burn-rate engine is installed
	Alerts     []alertRow
	Forensics  []forensicRow
	StreamSubs int
}

// parseLabels reads the inline label set of a registry metric name:
// `store_request_seconds{engine="row",outcome="grant"}` →
// ("store_request_seconds", {engine: row, outcome: grant}). The names are
// generated with %q on plain identifiers, so a quote-aware split suffices.
func parseLabels(name string) (base string, labels map[string]string) {
	labels = map[string]string{}
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, labels
	}
	base = name[:i]
	for _, pair := range strings.Split(name[i+1:len(name)-1], ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		labels[k] = strings.Trim(v, `"`)
	}
	return base, labels
}

// fmtSeconds renders a duration in seconds as a human latency figure.
func fmtSeconds(s float64) string {
	return fmtDur(time.Duration(s * float64(time.Second)))
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

// countSpans sizes a span tree (the root included).
func countSpans(s *xmlac.Span) int {
	n := 1
	for _, c := range s.Children() {
		n += countSpans(c)
	}
	return n
}

// dashboardData assembles the page model from the live observability
// stores. Exactly one of sys and cat is non-nil, as in newOpsMux; mu is
// the optional multi-user layer.
func dashboardData(sys *xmlac.System, cat *xmlac.Catalog, mu *xmlac.MultiUser, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) dashData {
	d := dashData{Version: xmlac.Version}
	if cat != nil {
		d.Mode = "catalog"
		d.Docs = cat.Docs()
		d.Shards = cat.Shards()
	} else {
		d.Mode = "document"
		d.Backend = sys.Backend().String()
		d.Semantics = sys.SemanticsLabel()
	}

	snap := reg.Snapshot()

	// Request/annotate latency quantiles per engine (and outcome).
	for _, name := range sortedNames(snap.Histograms) {
		base, labels := parseLabels(name)
		if base != "store_request_seconds" && base != "store_annotate_seconds" {
			continue
		}
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		series := labels["engine"]
		if o := labels["outcome"]; o != "" {
			series += " / " + o
		}
		if base == "store_annotate_seconds" {
			series += " (annotate)"
		}
		d.Latency = append(d.Latency, latRow{
			Series: series, Count: h.Count,
			P50: fmtSeconds(h.P50), P95: fmtSeconds(h.P95), P99: fmtSeconds(h.P99),
		})
	}

	// Vectorized-executor throughput: rows and batches the column engine's
	// batch operators processed, per engine (zero rows means the row store
	// served everything).
	for _, name := range sortedNames(snap.Counters) {
		base, labels := parseLabels(name)
		if base != "store_vector_rows_total" {
			continue
		}
		batches := snap.Counters[fmt.Sprintf("store_vector_batches_total{engine=%q}", labels["engine"])]
		d.Vector = append(d.Vector, vecRow{Engine: labels["engine"], Rows: snap.Counters[name], Batches: batches})
	}

	// Shard heat: catalog_shard_seconds{shard=...} against the placement.
	if cat != nil {
		placement := cat.Placement()
		maxSum := 0.0
		rows := []shardRow{}
		sums := []float64{}
		for _, name := range sortedNames(snap.Histograms) {
			base, labels := parseLabels(name)
			if base != "catalog_shard_seconds" {
				continue
			}
			h := snap.Histograms[name]
			shard := labels["shard"]
			rows = append(rows, shardRow{
				Shard: shard,
				Docs:  len(placement[shard]),
				Ops:   h.Count,
				P95:   fmtSeconds(h.P95),
				Total: fmtSeconds(h.Sum),
			})
			sums = append(sums, h.Sum)
			if h.Sum > maxSum {
				maxSum = h.Sum
			}
		}
		for i := range rows {
			if maxSum > 0 {
				rows[i].HeatPct = int(sums[i] / maxSum * 100)
			}
		}
		d.ShardHeat = rows
	}

	// Multi-user cohort compression: population, distinct policies, and
	// how many registrations the shared maps absorbed.
	if mu != nil {
		st := mu.Stats()
		d.MultiUser = true
		d.MUUsers = st.Users
		d.MUCohorts = st.Cohorts
		d.MUDedup = fmt.Sprintf("%.1fx", st.DedupRatio)
		d.MUHits = snap.Counters["core_multiuser_cohort_hits_total"]
		for _, c := range st.CohortList {
			d.MUCohortTb = append(d.MUCohortTb, cohortRow{
				ID: c.ID, Members: c.Members, Rules: c.Rules,
				Default: c.Default, Conflict: c.Conflict, Marks: c.Marks,
			})
		}
		if len(d.MUCohortTb) > 10 {
			d.MUCohortTb = d.MUCohortTb[:10]
		}
	}

	// SLO burn-rate alerts and denial forensics from the observatory.
	if obsy != nil {
		if slo := obsy.SLO(); slo != nil {
			d.SLOOn = true
			for _, a := range slo.Alerts() {
				d.Alerts = append(d.Alerts, alertRow{
					SLO: a.SLO, Raw: a.Raw, State: a.State, Firing: a.State == "firing",
					FastBurn: fmt.Sprintf("%.2f", a.FastBurn),
					SlowBurn: fmt.Sprintf("%.2f", a.SlowBurn),
				})
			}
		}
		for _, w := range obsy.Forensics().Report() {
			row := forensicRow{Window: w.Window, Count: w.Count, Prev: w.Prev, Rate: fmt.Sprintf("%.3f/s", w.Rate)}
			top := func(dim string) string {
				if es := w.Top[dim]; len(es) > 0 {
					return fmt.Sprintf("%s (%d)", es[0].Key, es[0].Count)
				}
				return ""
			}
			row.TopUser, row.TopRule, row.TopDoc = top("user"), top("rule"), top("doc")
			d.Forensics = append(d.Forensics, row)
		}
		d.StreamSubs = obsy.Stream().Subscribers()
	}

	// Slowest recent traces, with ids joining the audit stream.
	roots := col.Roots()
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Duration() > roots[j].Duration() })
	for _, root := range roots {
		if len(d.Slow) == 10 {
			break
		}
		d.Slow = append(d.Slow, traceRow{
			Trace:    root.TraceID().String(),
			Name:     root.Name(),
			Duration: fmtDur(root.Duration()),
			Spans:    countSpans(root),
		})
	}

	// Latest denials.
	denials := aud.Filter(10, func(e xmlac.AuditEvent) bool { return e.Outcome == xmlac.AuditDeny })
	for i := len(denials) - 1; i >= 0; i-- { // newest first
		e := denials[i]
		d.Denials = append(d.Denials, denialRow{
			Time:  e.Time.Format("15:04:05"),
			Doc:   e.Doc,
			Query: e.Query,
			Rules: strings.Join(e.Rules, ", "),
			Trace: e.Trace,
		})
	}
	return d
}

// sortedNames returns the map's keys sorted, for stable table order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var dashTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>xmlac dashboard</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 64em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 0.25em 0.8em 0.25em 0; border-bottom: 1px solid #e4e4e4; }
th { font-weight: 600; color: #555; }
td.num, th.num { text-align: right; }
.muted { color: #888; }
.heat { display: inline-block; height: 0.7em; background: #e2574c; vertical-align: baseline; }
.firing { color: #fff; background: #c0392b; padding: 0 0.4em; border-radius: 2px; font-weight: 600; }
code { background: #f4f4f4; padding: 0 0.25em; }
</style>
</head>
<body>
<h1>xmlac {{.Version}} — {{.Mode}} mode</h1>
<p class="muted">
{{- if eq .Mode "catalog" -}}
{{len .Docs}} documents over {{len .Shards}} shards
{{- else -}}
backend {{.Backend}}, semantics {{.Semantics}}
{{- end -}}
 · refreshes every 5s · <a href="/metrics">/metrics</a> <a href="/audit">/audit</a> <a href="/traces">/traces</a></p>

<h2>Request latency</h2>
{{if .Latency}}<table>
<tr><th>engine / outcome</th><th class="num">count</th><th class="num">p50</th><th class="num">p95</th><th class="num">p99</th></tr>
{{range .Latency}}<tr><td>{{.Series}}</td><td class="num">{{.Count}}</td><td class="num">{{.P50}}</td><td class="num">{{.P95}}</td><td class="num">{{.P99}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no requests observed yet</p>{{end}}

<h2>Vectorized executor</h2>
{{if .Vector}}<table>
<tr><th>engine</th><th class="num">rows</th><th class="num">batches</th></tr>
{{range .Vector}}<tr><td>{{.Engine}}</td><td class="num">{{.Rows}}</td><td class="num">{{.Batches}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no vectorized operators ran (row store only)</p>{{end}}

{{if eq .Mode "catalog"}}<h2>Shard heat</h2>
{{if .ShardHeat}}<table>
<tr><th>shard</th><th class="num">docs</th><th class="num">fan-outs</th><th class="num">p95</th><th class="num">total</th><th>heat</th></tr>
{{range .ShardHeat}}<tr><td>{{.Shard}}</td><td class="num">{{.Docs}}</td><td class="num">{{.Ops}}</td><td class="num">{{.P95}}</td><td class="num">{{.Total}}</td><td><span class="heat" style="width:{{.HeatPct}}px"></span></td></tr>
{{end}}</table>{{else}}<p class="muted">no fan-outs observed yet</p>{{end}}{{end}}

{{if .MultiUser}}<h2>Multi-user cohorts</h2>
<p class="muted">{{.MUUsers}} users share {{.MUCohorts}} cohorts ({{.MUDedup}} dedup) · {{.MUHits}} registrations joined an existing cohort</p>
{{if .MUCohortTb}}<table>
<tr><th>cohort</th><th class="num">members</th><th class="num">rules</th><th>default</th><th>conflict</th><th class="num">CAM marks</th></tr>
{{range .MUCohortTb}}<tr><td><code>{{.ID}}</code></td><td class="num">{{.Members}}</td><td class="num">{{.Rules}}</td><td>{{.Default}}</td><td>{{.Conflict}}</td><td class="num">{{.Marks}}</td></tr>
{{end}}</table>{{end}}{{end}}

{{if .SLOOn}}<h2>SLO burn-rate alerts</h2>
{{if .Alerts}}<table>
<tr><th>objective</th><th>state</th><th class="num">fast burn</th><th class="num">slow burn</th></tr>
{{range .Alerts}}<tr><td><code>{{.Raw}}</code></td><td>{{if .Firing}}<span class="firing">firing</span>{{else}}{{.State}}{{end}}</td><td class="num">{{.FastBurn}}</td><td class="num">{{.SlowBurn}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no objectives configured</p>{{end}}{{end}}

<h2>Denial forensics</h2>
{{if .Forensics}}<table>
<tr><th>window</th><th class="num">denials</th><th class="num">prev</th><th class="num">rate</th><th>top subject</th><th>top rule</th><th>top doc</th></tr>
{{range .Forensics}}<tr><td>{{.Window}}</td><td class="num">{{.Count}}</td><td class="num">{{.Prev}}</td><td class="num">{{.Rate}}</td><td>{{.TopUser}}</td><td><code>{{.TopRule}}</code></td><td>{{.TopDoc}}</td></tr>
{{end}}</table>
<p class="muted">{{.StreamSubs}} live <a href="/stream">/stream</a> subscriber(s) · details at <a href="/forensics">/forensics</a> and <a href="/alerts">/alerts</a></p>
{{else}}<p class="muted">observatory not attached</p>{{end}}

<h2>Slow traces</h2>
{{if .Slow}}<table>
<tr><th>trace</th><th>root</th><th class="num">duration</th><th class="num">spans</th></tr>
{{range .Slow}}<tr><td><code>{{.Trace}}</code></td><td>{{.Name}}</td><td class="num">{{.Duration}}</td><td class="num">{{.Spans}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no traces collected yet</p>{{end}}

<h2>Recent denials</h2>
{{if .Denials}}<table>
<tr><th>time</th><th>doc</th><th>query</th><th>rules</th><th>trace</th></tr>
{{range .Denials}}<tr><td>{{.Time}}</td><td>{{.Doc}}</td><td><code>{{.Query}}</code></td><td>{{.Rules}}</td><td><code>{{.Trace}}</code></td></tr>
{{end}}</table>{{else}}<p class="muted">no denials recorded</p>{{end}}
</body>
</html>
`))

// dashboardHandler serves the HTML dashboard.
func dashboardHandler(sys *xmlac.System, cat *xmlac.Catalog, mu *xmlac.MultiUser, obsy *xmlac.Observatory, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := dashTmpl.Execute(w, dashboardData(sys, cat, mu, obsy, reg, aud, col)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
