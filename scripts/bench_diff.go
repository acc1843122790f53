// Command bench_diff is the perf-regression observatory behind
// `scripts/bench.sh diff`: it reads raw `go test -bench` output for the
// Figure 11 annotation and Figure 10 request benchmarks, compares each
// case against the recorded baselines (the "after" figures in
// BENCH_annotation.json / BENCH_request.json), appends a timestamped
// entry to the BENCH_trajectory.json history, and fails when any case
// regressed beyond the threshold.
//
//	go run ./scripts [flags] raw-bench-output...
//
// Exit codes: 0 all cases within threshold, 1 at least one regression,
// 2 nothing parsed or baselines unreadable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// baselineFile is the layout bench.sh writes for both baseline files.
type baselineFile struct {
	Benchmark string `json:"benchmark"`
	Cases     []struct {
		Case  string `json:"case"`
		After int64  `json:"after"`
	} `json:"cases"`
}

// benchResult is one parsed benchmark measurement.
type benchResult struct {
	Name string // full benchmark name, GOMAXPROCS suffix stripped
	NsOp float64
}

// trajCase is one case's comparison in a trajectory entry. Engine and Path
// identify which storage engine and executor produced the measurement, so
// the history tells a backend's runs on the row executor apart from its
// runs on the vectorized one (monetsql ran the row executor on boxed
// columns until the column engine became the typed-vector store).
type trajCase struct {
	Case      string  `json:"case"`
	Engine    string  `json:"engine,omitempty"`
	Path      string  `json:"path,omitempty"` // "row" or "vector"
	Baseline  int64   `json:"baseline"`
	Measured  int64   `json:"measured"`
	Ratio     float64 `json:"ratio"`
	Regressed bool    `json:"regressed"`
}

// trajEntry is one appended observation of the performance trajectory.
type trajEntry struct {
	Time      string     `json:"time"`
	Threshold float64    `json:"threshold"`
	Inject    float64    `json:"inject,omitempty"`
	Pass      bool       `json:"pass"`
	Cases     []trajCase `json:"cases"`
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkFig11_AnnotationMonetSQL/c1-8  10  2811845 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

// parseBench extracts the benchmark measurements from raw -bench output.
func parseBench(r io.Reader) ([]benchResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []benchResult
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out = append(out, benchResult{Name: m[1], NsOp: ns})
	}
	return out, nil
}

// baselineKey maps a benchmark name to its baseline file ("annotation",
// "request" or "multiuser") and case key. Benchmarks without a recorded
// baseline — the multi-user per-user side, unrelated benchmarks — report
// ok=false.
func baselineKey(name string) (file, caseKey string, ok bool) {
	if rest, found := strings.CutPrefix(name, "BenchmarkFig11_Annotation"); found {
		return "annotation", rest, true // e.g. MonetSQL/c1
	}
	if rest, found := strings.CutPrefix(name, "BenchmarkFig10_Request"); found {
		return "request", rest, true // e.g. MonetSQL/signs
	}
	if rest, found := strings.CutPrefix(name, "BenchmarkMultiUser"); found {
		kind, variant, _ := strings.Cut(rest, "/")
		// Only the cohort side has a recorded ns/op baseline; the peruser
		// side is the "before" column, and Memory's figure of merit is the
		// bytes/user custom metric, not ns/op.
		if variant == "cohort" && (kind == "Rebuild" || kind == "Request") {
			return "multiuser", kind, true
		}
	}
	return "", "", false
}

// enginePath maps a benchmark name to the engine it measures and that
// engine's executor path: monetsql runs the vectorized batch operators on
// the column store, postgres the row-at-a-time executor.
func enginePath(name string) (engine, path string) {
	switch {
	case strings.Contains(name, "MonetSQL"):
		return "monetsql", "vector"
	case strings.Contains(name, "Postgres"):
		return "postgres", "row"
	}
	return "", ""
}

// compare joins the measurements against the baselines. inject scales
// every measurement before comparison — the fault-injection knob the
// observatory's own tests (and CI smoke) use to prove a slowdown trips
// the gate. Measured cases without a baseline entry are skipped.
func compare(results []benchResult, baselines map[string]map[string]int64, threshold, inject float64) []trajCase {
	var out []trajCase
	for _, r := range results {
		file, key, ok := baselineKey(r.Name)
		if !ok {
			continue
		}
		base := baselines[file][key]
		if base <= 0 {
			continue
		}
		measured := r.NsOp * inject
		ratio := measured / float64(base)
		engine, path := enginePath(r.Name)
		out = append(out, trajCase{
			Case:      file + ":" + key,
			Engine:    engine,
			Path:      path,
			Baseline:  base,
			Measured:  int64(measured),
			Ratio:     ratio,
			Regressed: ratio > 1+threshold,
		})
	}
	return out
}

// loadBaseline reads one bench.sh output file into a case → after map.
func loadBaseline(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]int64{}
	for _, c := range f.Cases {
		out[c.Case] = c.After
	}
	return out, nil
}

// appendTrajectory appends the entry to the JSON-array history file,
// creating it when absent.
func appendTrajectory(path string, e trajEntry) error {
	var history []trajEntry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &history); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	history = append(history, e)
	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		threshold  = flag.Float64("threshold", 0.25, "relative slowdown that counts as a regression")
		inject     = flag.Float64("inject", 1.0, "scale measurements by this factor before comparing (fault injection)")
		trajectory = flag.String("trajectory", "BENCH_trajectory.json", "trajectory history file to append to")
		annotation = flag.String("annotation", "BENCH_annotation.json", "Figure 11 baseline file")
		request    = flag.String("request", "BENCH_request.json", "Figure 10 baseline file")
		multiuser  = flag.String("multiuser", "BENCH_multiuser.json", "multi-user cohort baseline file (optional)")
	)
	flag.Parse()

	baselines := map[string]map[string]int64{}
	for name, path := range map[string]string{"annotation": *annotation, "request": *request} {
		b, err := loadBaseline(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench_diff: %v\n", err)
			os.Exit(2)
		}
		baselines[name] = b
	}
	// The multi-user baseline is optional: repos recorded before the cohort
	// layer landed have no BENCH_multiuser.json, and the gate must keep
	// working for them.
	if b, err := loadBaseline(*multiuser); err == nil {
		baselines["multiuser"] = b
	} else {
		fmt.Fprintf(os.Stderr, "bench_diff: skipping multi-user baseline: %v\n", err)
	}

	var results []benchResult
	if flag.NArg() == 0 {
		rs, err := parseBench(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench_diff: %v\n", err)
			os.Exit(2)
		}
		results = rs
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench_diff: %v\n", err)
			os.Exit(2)
		}
		rs, err := parseBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench_diff: %v\n", err)
			os.Exit(2)
		}
		results = append(results, rs...)
	}

	cases := compare(results, baselines, *threshold, *inject)
	if len(cases) == 0 {
		fmt.Fprintln(os.Stderr, "bench_diff: no benchmark cases with baselines parsed")
		os.Exit(2)
	}

	entry := trajEntry{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Threshold: *threshold,
		Pass:      true,
		Cases:     cases,
	}
	if *inject != 1.0 {
		entry.Inject = *inject
	}
	regressions := 0
	for _, c := range cases {
		status := "ok"
		if c.Regressed {
			status = "REGRESSED"
			regressions++
			entry.Pass = false
		}
		fmt.Printf("%-32s baseline %10d ns/op  measured %10d ns/op  ratio %5.2f  %s\n",
			c.Case, c.Baseline, c.Measured, c.Ratio, status)
	}
	if err := appendTrajectory(*trajectory, entry); err != nil {
		fmt.Fprintf(os.Stderr, "bench_diff: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("bench_diff: %d cases, %d regressed (threshold %.0f%%), appended to %s\n",
		len(cases), regressions, *threshold*100, *trajectory)
	if regressions > 0 {
		os.Exit(1)
	}
}
