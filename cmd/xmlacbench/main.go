// Command xmlacbench is the repository benchmark. It drives the
// access-control system only through package xmlac's public API and the
// `xmlac -serve` binary, on one of four workloads; it checks every access
// decision against a brute-force oracle (the policy's Table 2 semantics
// evaluated directly on the document) and prints the end-to-end metrics —
// or, with --trace 1, the per-layer metrics — one per line, followed by a
// one-line JSON result.
//
// Usage:
//
//	xmlacbench [--workload all|serve-native|read-sql|rw-sql-signs|rw-sql-rewrite]
//	           [--seed N] [--seconds S] [--trace 0|1] [--xmlac BIN] [--workdir DIR]
//
// A traced run writes its spans to <workdir>/trace-<workload>.json.
//
// run.sh builds this command and the xmlac binary from the checkout and
// runs it from the checkout root. README.md explains the workloads, the
// metrics and what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"xmlac"
)

// workload is one traffic mix; README.md records why each was chosen.
type workload struct {
	name    string
	backend xmlac.Backend
	enforce xmlac.EnforceMode
	factor  float64 // XMark scale factor of the generated document
	served  bool    // reads go through an `xmlac -serve` process over HTTP
	mixed   bool    // a closed-loop reader runs beside the open-loop writer for the whole run
}

var workloads = []workload{
	// The CLI's defaults: native store, planner-chosen enforcement (signs
	// on the non-recursive XMark schema).
	{name: "serve-native", backend: xmlac.BackendNative, enforce: xmlac.EnforceAuto, factor: 0.05, served: true},
	{name: "read-sql", backend: xmlac.BackendColumn, enforce: xmlac.EnforceSigns, factor: 0.05},
	{name: "rw-sql-signs", backend: xmlac.BackendColumn, enforce: xmlac.EnforceSigns, factor: 0.02, mixed: true},
	{name: "rw-sql-rewrite", backend: xmlac.BackendColumn, enforce: xmlac.EnforceRewrite, factor: 0.02, mixed: true},
}

// endToEnd and perLayer are the metric names BENCHMARK.json gates and
// lists; bench_test.go keeps the two in step. A measured metric outside
// the list of the run's mode prints as diag.<name> and stays out of the
// JSON result.
var endToEnd = []string{
	"setup_s", "mem_mb", "tput_ops_s", "read_p50_ms", "write_p50_ms", "cycle_p50_ms",
}

var perLayer = []string{
	"xpath.parse_us", "xpath.eval_ms",
	"pattern.classify_us", "pattern.static_decided_ratio",
	"core.request_ms", "core.overhead_ms", "core.read_wait_ms", "core.reads_blocked_ratio", "core.grant_ratio",
	"store.request_ms", "store.check_ms",
	"shred.translate_us", "sqldb.exec_ms", "sqldb.plan_cache_hit_ratio", "sqldb.statements_per_request",
	"reannot.trigger_us", "reannot.prepare_ms", "reannot.apply_ms", "reannot.complete_ms",
	"reannot.triggered_rules", "reannot.signs_per_changed_node", "reannot.vs_full", "annot.full_ms",
	"rewrite.first_read_ms", "rewrite.warm_read_ms",
	"http.overhead_ms", "http.resp_bytes",
	"loadgen.timer_lag_p99_ms", "trace.overhead_pct",
}

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	xmlacBin string
	workDir  string // scratch space for served inputs and trace dumps
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one workload run's outcome: every metric it measured, in print
// order, and the operation counts behind the JSON result.
type report struct {
	metrics   []metric
	attempted int
	failed    int // errors other than access denials, HTTP non-200 or outcome=error
	wrong     int // decisions that disagree with the oracle, or invalid documents
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// count folds a batch of operations into the report's totals.
func (r *report) count(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.failed {
			r.failed++
		}
		if s.wrong {
			r.wrong++
		}
	}
}

// write prints every metric line and then the JSON result, whose metrics
// are exactly the names in want.
func (r *report) write(w io.Writer, workload string, want []string) error {
	gated := map[string]bool{}
	for _, n := range want {
		gated[n] = true
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, m.name, m.value)
		}
		name := m.name
		if gated[name] {
			metrics[name] = value{m.value, m.unit}
		} else {
			name = "diag." + name
		}
		fmt.Fprintf(w, "%s %s %s %s\n", workload, name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, n := range want {
		if _, ok := metrics[n]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, n)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.wrong == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the document, the query draw order and the write markers")
	seconds := flag.Float64("seconds", 24, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	bin := flag.String("xmlac", filepath.Join(".bench_build", "xmlacbench", "xmlac"), "the xmlac binary serve-native starts")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "xmlacbench"), "scratch directory")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, xmlacBin: *bin, workDir: *workDir}

	var run []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fail(err)
	}
	in, err := loadInputs()
	if err != nil {
		fail(err)
	}
	go stopServersOnSignal()
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, w := range run {
		rep, err := runWorkload(w, in, o)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := rep.write(os.Stdout, w.name, want); err != nil {
			fail(err)
		}
	}
}

func runWorkload(w workload, in *inputs, o options) (*report, error) {
	if w.served {
		return runServed(w, in, o)
	}
	return runInProcess(w, in, o)
}

// stopServersOnSignal stops any running `xmlac -serve` child before the
// benchmark dies of SIGINT or SIGTERM.
func stopServersOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	stopAllServers()
	os.Exit(2)
}

func fail(err error) {
	stopAllServers()
	fmt.Fprintln(os.Stderr, "xmlacbench:", err)
	os.Exit(1)
}
