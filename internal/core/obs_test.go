package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/store"
	"xmlac/internal/xpath"
)

// newTracedSystem builds a hospital system with a collector sink and a
// metrics registry attached.
func newTracedSystem(t *testing.T, b Backend) (*System, *obs.Collector, *obs.Registry) {
	t.Helper()
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	sys, err := NewSystem(Config{
		Schema:   hospital.Schema(),
		Policy:   policy.MustParse(table1Policy),
		Backend:  b,
		Optimize: true,
		Tracer:   obs.NewTracer(col),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(hospital.Document()); err != nil {
		t.Fatal(err)
	}
	return sys, col, reg
}

func phaseNames(p obs.Phases) []string { return p.Names() }

func TestAnnotatePhasesNative(t *testing.T) {
	sys, col, reg := newTracedSystem(t, BackendNative)
	stats, err := sys.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"clear-signs", "build-annotation-query", "apply-updates"}
	if got := phaseNames(stats.Phases); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("phases = %v, want %v", got, want)
	}
	if stats.Duration <= 0 {
		t.Errorf("Duration = %v", stats.Duration)
	}
	if total := stats.Phases.Total(); total > stats.Duration {
		t.Errorf("phase total %v exceeds duration %v", total, stats.Duration)
	}
	root := col.Root("annotate")
	if root == nil {
		t.Fatal("no annotate span collected")
	}
	if got := root.Attr("backend"); got != "xquery" {
		t.Errorf("backend attr = %v", got)
	}
	for _, name := range want {
		if root.Child(name) == nil {
			t.Errorf("annotate span is missing child %q\n%s", name, root.Tree())
		}
	}
	// Child spans must account for (almost) the whole root duration.
	var sum int64
	for _, c := range root.Children() {
		sum += int64(c.Duration())
	}
	if sum > int64(root.Duration()) {
		t.Errorf("children sum %d exceeds root %d", sum, root.Duration())
	}
	// The native backend ran its annotation query through the store.
	for _, name := range []string{`store_queries_total{engine="native"}`, `store_rows_scanned_total{engine="native"}`} {
		if got := reg.Counter(name).Value(); got == 0 {
			t.Errorf("%s = 0", name)
		}
	}
}

func TestAnnotatePhasesRelational(t *testing.T) {
	for _, b := range []Backend{BackendRow, BackendColumn} {
		t.Run(b.String(), func(t *testing.T) {
			sys, col, reg := newTracedSystem(t, b)
			stats, err := sys.Annotate()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"reset-signs", "build-annotation-query", "compute-update-set", "apply-updates"}
			if got := phaseNames(stats.Phases); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("phases = %v, want %v", got, want)
			}
			root := col.Root("annotate")
			if root == nil {
				t.Fatal("no annotate span collected")
			}
			for _, name := range want {
				if root.Child(name) == nil {
					t.Errorf("annotate span is missing child %q\n%s", name, root.Tree())
				}
			}
			name := fmt.Sprintf("store_queries_total{engine=%q}", store.EngineLabel(sys.Engine()))
			if got := reg.Counter(name).Value(); got == 0 {
				t.Errorf("%s = 0", name)
			}
			snap := reg.Snapshot()
			if h, ok := snap.Histograms["sqldb_exec_seconds"]; !ok || h.Count == 0 {
				t.Errorf("sqldb_exec_seconds missing or empty: %+v", h)
			}
		})
	}
}

func TestReannotatePhasesAndRequestSpans(t *testing.T) {
	for _, b := range []Backend{BackendNative, BackendRow} {
		t.Run(b.String(), func(t *testing.T) {
			sys, col, _ := newTracedSystem(t, b)
			if _, err := sys.Annotate(); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment"))
			if err != nil {
				t.Fatal(err)
			}
			if got := phaseNames(rep.Phases); strings.Join(got, ",") != "prepare,apply-update,reannotate" {
				t.Errorf("report phases = %v", got)
			}
			for _, name := range []string{"trigger-selection", "write-region", "decide-region", "apply-signs"} {
				if _, ok := rep.Stats.Phases.Get(name); !ok {
					t.Errorf("stats phases missing %q (got %v)", name, phaseNames(rep.Stats.Phases))
				}
			}
			root := col.Root("delete-reannotate")
			if root == nil {
				t.Fatal("no delete-reannotate span collected")
			}
			if root.Child("apply-delete") == nil {
				t.Errorf("missing apply-delete child\n%s", root.Tree())
			}

			if _, err := sys.Request(xpath.MustParse("//patient/name")); err != nil && !errors.Is(err, ErrAccessDenied) {
				t.Fatal(err)
			}
			req := col.Root("request")
			if req == nil {
				t.Fatal("no request span collected")
			}
			if req.Child("eval-query") == nil || req.Child("check-access") == nil {
				t.Errorf("request span incomplete\n%s", req.Tree())
			}
			if b == BackendRow && req.Child("translate-sql") == nil {
				t.Errorf("relational request missing translate-sql\n%s", req.Tree())
			}
		})
	}
}

func TestSystemExplain(t *testing.T) {
	sys, _, _ := newTracedSystem(t, BackendRow)
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Explain(xpath.MustParse("/hospital/dept/patients/patient/name"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan", "join order:", "output:"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	native, _, _ := newTracedSystem(t, BackendNative)
	if _, err := native.Explain(xpath.MustParse("//name")); err == nil {
		t.Error("expected Explain to fail on the native backend")
	}
}
