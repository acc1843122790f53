package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const rawBench = `goos: linux
goarch: amd64
pkg: xmlac
BenchmarkFig11_AnnotationMonetSQL/c1-8         	      10	   2811845 ns/op
BenchmarkFig11_AnnotationPostgres/c5-8         	      10	  10656062 ns/op
BenchmarkFig10_RequestMonetSQL/signs-8         	     110	   5829984 ns/op
BenchmarkFig10_RequestMonetSQL/rewrite-8       	     110	   3829984 ns/op
BenchmarkUnrelated/thing-8                     	    1000	      1234 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(rawBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(results), results)
	}
	if results[0].Name != "BenchmarkFig11_AnnotationMonetSQL/c1" || results[0].NsOp != 2811845 {
		t.Fatalf("first result = %+v", results[0])
	}
	if results[3].Name != "BenchmarkFig10_RequestMonetSQL/rewrite" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", results[3])
	}
}

func TestParseBenchEmpty(t *testing.T) {
	results, err := parseBench(strings.NewReader("PASS\nok xmlac 0.1s\n"))
	if err != nil || len(results) != 0 {
		t.Fatalf("results = %v, err = %v", results, err)
	}
}

func TestBaselineKey(t *testing.T) {
	for _, tc := range []struct {
		name, file, key string
		ok              bool
	}{
		{"BenchmarkFig11_AnnotationMonetSQL/c1", "annotation", "MonetSQL/c1", true},
		{"BenchmarkFig11_AnnotationPostgres/c5", "annotation", "Postgres/c5", true},
		{"BenchmarkFig10_RequestMonetSQL/signs", "request", "MonetSQL/signs", true},
		{"BenchmarkFig10_ResponseMonetSQL", "", "", false},
		{"BenchmarkMultiUserRebuild/cohort", "multiuser", "Rebuild", true},
		{"BenchmarkMultiUserRequest/cohort", "multiuser", "Request", true},
		{"BenchmarkMultiUserRebuild/peruser", "", "", false},
		{"BenchmarkMultiUserMemory/cohort", "", "", false},
		{"BenchmarkMultiUserMillion", "", "", false},
		{"BenchmarkUnrelated/thing", "", "", false},
	} {
		file, key, ok := baselineKey(tc.name)
		if file != tc.file || key != tc.key || ok != tc.ok {
			t.Errorf("baselineKey(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, file, key, ok, tc.file, tc.key, tc.ok)
		}
	}
}

func testBaselines() map[string]map[string]int64 {
	return map[string]map[string]int64{
		"annotation": {"MonetSQL/c1": 2800000, "Postgres/c5": 10600000},
		"request":    {"MonetSQL/signs": 5800000, "MonetSQL/rewrite": 3800000},
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	results, _ := parseBench(strings.NewReader(rawBench))
	cases := compare(results, testBaselines(), 0.25, 1.0)
	if len(cases) != 4 {
		t.Fatalf("compared %d cases, want 4 (unrelated skipped): %+v", len(cases), cases)
	}
	for _, c := range cases {
		if c.Regressed {
			t.Errorf("case %s regressed at ratio %.2f under a 25%% threshold", c.Case, c.Ratio)
		}
	}
}

func TestCompareInjectedRegression(t *testing.T) {
	results, _ := parseBench(strings.NewReader(rawBench))
	cases := compare(results, testBaselines(), 0.25, 1.5)
	if len(cases) != 4 {
		t.Fatalf("compared %d cases, want 4", len(cases))
	}
	regressed := 0
	for _, c := range cases {
		if c.Regressed {
			regressed++
		}
		if c.Ratio <= 1.25 {
			t.Errorf("case %s ratio %.2f after a 1.5x injection, want > 1.25", c.Case, c.Ratio)
		}
	}
	if regressed != 4 {
		t.Fatalf("%d of 4 cases regressed under a 1.5x injection", regressed)
	}
}

// TestCompareMultiUserBaseline: cohort-side multi-user measurements are
// gated against the optional multiuser baseline; the peruser side and the
// custom-metric benchmarks stay out of the gate.
func TestCompareMultiUserBaseline(t *testing.T) {
	raw := strings.Join([]string{
		"BenchmarkMultiUserRebuild/peruser-8   3  200000000 ns/op",
		"BenchmarkMultiUserRebuild/cohort-8    3    2100000 ns/op",
		"BenchmarkMultiUserRequest/cohort-8    1    3700000 ns/op  21000 p99_ns",
		"BenchmarkMultiUserMemory/cohort-8     1    1900000 ns/op  405.0 bytes/user",
	}, "\n")
	results, _ := parseBench(strings.NewReader(raw))
	baselines := map[string]map[string]int64{
		"multiuser": {"Rebuild": 2000000, "Request": 3800000},
	}
	cases := compare(results, baselines, 0.25, 1.0)
	if len(cases) != 2 {
		t.Fatalf("compared %d cases, want 2: %+v", len(cases), cases)
	}
	for _, c := range cases {
		if c.Regressed {
			t.Errorf("case %s regressed at ratio %.2f", c.Case, c.Ratio)
		}
	}
	// A missing multiuser baseline silently skips those cases.
	if got := compare(results, map[string]map[string]int64{}, 0.25, 1.0); len(got) != 0 {
		t.Fatalf("compared %d cases without baselines, want 0", len(got))
	}
}

// TestCompareEnginePathTags: every trajectory case carries the engine name
// and executor path: monetsql's is the vector path, postgres's the row one.
func TestCompareEnginePathTags(t *testing.T) {
	results, _ := parseBench(strings.NewReader(rawBench))
	cases := compare(results, testBaselines(), 0.25, 1.0)
	want := map[string][2]string{
		"annotation:MonetSQL/c1":   {"monetsql", "vector"},
		"annotation:Postgres/c5":   {"postgres", "row"},
		"request:MonetSQL/signs":   {"monetsql", "vector"},
		"request:MonetSQL/rewrite": {"monetsql", "vector"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		w, ok := want[c.Case]
		if !ok {
			t.Errorf("unexpected case %q", c.Case)
			continue
		}
		seen[c.Case] = true
		if c.Engine != w[0] || c.Path != w[1] {
			t.Errorf("case %s tagged (%q, %q), want (%q, %q)", c.Case, c.Engine, c.Path, w[0], w[1])
		}
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("case %q missing from comparison", k)
		}
	}
}

func TestEnginePath(t *testing.T) {
	for _, tc := range []struct{ name, engine, path string }{
		{"BenchmarkFig10_RequestMonetSQL/signs", "monetsql", "vector"},
		{"BenchmarkFig11_AnnotationPostgres/c1", "postgres", "row"},
		{"BenchmarkUnrelated/thing", "", ""},
	} {
		engine, path := enginePath(tc.name)
		if engine != tc.engine || path != tc.path {
			t.Errorf("enginePath(%q) = (%q, %q), want (%q, %q)", tc.name, engine, path, tc.engine, tc.path)
		}
	}
}

func TestAppendTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.json")
	e1 := trajEntry{Time: "2026-08-08T00:00:00Z", Threshold: 0.25, Pass: true,
		Cases: []trajCase{{Case: "annotation:MonetSQL/c1", Baseline: 2800000, Measured: 2811845, Ratio: 1.004}}}
	if err := appendTrajectory(path, e1); err != nil {
		t.Fatal(err)
	}
	e2 := e1
	e2.Pass = false
	if err := appendTrajectory(path, e2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var history []trajEntry
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 || !history[0].Pass || history[1].Pass {
		t.Fatalf("history = %+v", history)
	}
	if err := appendTrajectory(filepath.Join(t.TempDir(), "x", "missing-dir", "t.json"),
		e1); err == nil {
		t.Fatal("append into a missing directory succeeded")
	}
}

func TestAppendTrajectoryCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendTrajectory(path, trajEntry{}); err == nil {
		t.Fatal("append to a corrupt history succeeded")
	}
}
