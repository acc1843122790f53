package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on a tiny document
// for half a second: each metric line must carry a unit, the JSON result
// must hold exactly the mode's metrics, and no decision may be wrong.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "xmlac")
	if out, err := exec.Command("go", "build", "-o", bin, "xmlac/cmd/xmlac").CombinedOutput(); err != nil {
		t.Fatalf("build xmlac: %v\n%s", err, out)
	}
	in, err := loadInputs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w.factor = 0.002
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.5, trace: trace, xmlacBin: bin, workDir: dir}
			want := endToEnd
			if trace {
				want = perLayer
			}
			rep, err := runWorkload(w, in, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, w.name, want); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) != 4 || f[0] != w.name {
					t.Errorf("%s: metric line %q is not 'workload name value unit'", w.name, l)
				}
			}
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Unit string `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !res.Correct || rep.wrong != 0 || rep.failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v wrong=%d failed=%d attempted=%d",
					w.name, trace, res.Correct, rep.wrong, rep.failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: span dump: %v", w.name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metric lists this command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(b.Workloads), ws},
		{"end_to_end", names(b.EndToEnd), endToEnd},
		{"per_layer", names(b.PerLayer), perLayer},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the command prints %v", c.what, c.got, c.want)
		}
	}
}
