package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

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

// annotateStages is the stage list every engine's full annotation
// reports, as Phases and as the annotate span's children.
var annotateStages = []string{"reset-signs", "compute-update-set", "apply-updates"}

func TestAnnotatePhasesNative(t *testing.T) {
	sys, col, reg := newTracedSystem(t, BackendNative)
	stats, err := sys.Annotate()
	if err != nil {
		t.Fatal(err)
	}
	want := annotateStages
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
			want := annotateStages
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

// TestStoreCountersCountEveryEvaluation: on every backend a full
// annotation resets every element and adds its resets and updates to
// store_signs_written_total, a request adds to the store_* query and
// scanned-row counters, and a write adds the signs it rewrote (updated +
// reset). The native engine counts one query per tree evaluation, with
// the nodes the evaluator visited and matched.
func TestStoreCountersCountEveryEvaluation(t *testing.T) {
	for _, b := range []Backend{BackendNative, BackendColumn, BackendRow, BackendVector} {
		t.Run(b.String(), func(t *testing.T) {
			sys, _, reg := newTracedSystem(t, b)
			counter := func(name string) *obs.Counter {
				return reg.Counter(fmt.Sprintf("%s{engine=%q}", name, store.EngineLabel(sys.Engine())))
			}
			queries, scanned := counter("store_queries_total"), counter("store_rows_scanned_total")
			matched, signs := counter("store_rows_matched_total"), counter("store_signs_written_total")
			stats, err := sys.Annotate()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Reset != sys.doc.ElementCount() || signs.Value() != int64(stats.Reset+stats.Updated) {
				t.Errorf("annotation reset %d of %d elements, updated %d, and wrote %d signs",
					stats.Reset, sys.doc.ElementCount(), stats.Updated, signs.Value())
			}
			q := xpath.MustParse("//patient/name")
			var st xpath.EvalStats
			nodes, err := xpath.EvalWithStats(q, sys.doc, &st)
			if err != nil {
				t.Fatal(err)
			}
			q0, s0, m0 := queries.Value(), scanned.Value(), matched.Value()
			if _, err := sys.Request(q); err != nil && !errors.Is(err, ErrAccessDenied) {
				t.Fatal(err)
			}
			dq, ds, dm := queries.Value()-q0, scanned.Value()-s0, matched.Value()-m0
			if dq == 0 || ds == 0 {
				t.Errorf("a request added %d queries and %d scanned rows", dq, ds)
			}
			if b == BackendNative && (dq != 1 || ds != int64(st.Visited) || dm != int64(len(nodes))) {
				t.Errorf("a request added %d queries, %d scanned and %d matched nodes; want 1, %d and %d",
					dq, ds, dm, st.Visited, len(nodes))
			}
			w0 := signs.Value()
			rep, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment"))
			if err != nil {
				t.Fatal(err)
			}
			want := int64(rep.Stats.Updated + rep.Stats.Reset)
			if got := signs.Value() - w0; want == 0 || got != want {
				t.Errorf("a write rewrote %d signs (updated %d, reset %d) and added %d to store_signs_written_total",
					want, rep.Stats.Updated, rep.Stats.Reset, got)
			}
		})
	}
}

// TestPreparedStatementsObserved: a relational request's sign probe and a
// write's batched delete and sign updates run as prepared IN-list
// statements, and they reach the SQL telemetry like every other
// statement — store_queries_total, sqldb_exec_seconds and the slow-query
// log, which names the template and the number of ids bound into it.
func TestPreparedStatementsObserved(t *testing.T) {
	sys, _, reg := newTracedSystem(t, BackendColumn)
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	var slow strings.Builder
	sys.SetSlowQueryLog(&slow, time.Nanosecond)
	queries := reg.Counter(`store_queries_total{engine="column"}`)
	execs := func() int64 { return int64(reg.Snapshot().Histograms["sqldb_exec_seconds"].Count) }
	q0, e0 := queries.Value(), execs()
	if _, err := sys.Request(xpath.MustParse("//patient/name")); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if n, e := queries.Value()-q0, execs()-e0; n != 2 || e != 2 || len(lines) != 2 {
		t.Fatalf("a granted request: %d statements counted, %d timed, %d logged; want 2 of each, the translated SELECT and one sign probe:\n%s",
			n, e, len(lines), slow.String())
	}
	if !strings.Contains(lines[1], `AND id IN (?)" batch=`) {
		t.Errorf("the sign probe's log line does not name its template and batch size: %s", lines[1])
	}
	slow.Reset()
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`stmt="DELETE FROM `, `stmt="UPDATE `} {
		if !strings.Contains(slow.String(), want) || !strings.Contains(slow.String(), `WHERE id IN (?)" batch=`) {
			t.Errorf("the delete's slow-query log has no %s… IN (?) batch line:\n%s", want, slow.String())
		}
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
