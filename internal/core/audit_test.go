package core

import (
	"errors"
	"sync"
	"testing"

	"xmlac/internal/audit"
	"xmlac/internal/hospital"
	"xmlac/internal/obs"
	"xmlac/internal/policy"
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

func auditedSystem(t *testing.T, cfg Config) (*System, *audit.Log) {
	t.Helper()
	log := audit.NewLog(0)
	cfg.Audit = log
	if cfg.Schema == nil {
		cfg.Schema = hospital.Schema()
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.MustParse(table1Policy)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(hospital.Document()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	return sys, log
}

func lastEvent(t *testing.T, log *audit.Log) audit.Event {
	t.Helper()
	recent := log.Recent(1)
	if len(recent) != 1 {
		t.Fatal("audit log is empty")
	}
	return recent[0]
}

// TestAuditRequestEvents: every request lands in the trail — grants with
// their matched/checked counts, denials attributed to the deciding and
// overridden rules — stamped with backend and semantics.
func TestAuditRequestEvents(t *testing.T) {
	for _, backend := range []Backend{BackendNative, BackendRow} {
		t.Run(backend.String(), func(t *testing.T) {
			sys, log := auditedSystem(t, Config{Backend: backend})
			if got := lastEvent(t, log); got.Kind != "annotate" || got.Outcome != audit.OutcomeOK {
				t.Fatalf("after Annotate: %+v", got)
			}

			if _, err := sys.Request(xpath.MustParse("//patient/name")); err != nil {
				t.Fatal(err)
			}
			e := lastEvent(t, log)
			if e.Kind != "request" || e.Outcome != audit.OutcomeGrant ||
				e.Query != "//patient/name" || e.Matched != 3 || e.Checked != 3 {
				t.Fatalf("grant event = %+v", e)
			}
			if e.Backend != backend.String() || e.Semantics != "ds=-,cr=-" {
				t.Fatalf("grant event stamps = %+v", e)
			}
			if e.Duration <= 0 || e.Time.IsZero() {
				t.Fatalf("grant event missing timing: %+v", e)
			}
			if len(e.Rules) != 0 {
				t.Fatalf("grant carries rules: %v", e.Rules)
			}

			// //patient is denied: john is in scope of R3 (deny, wins under
			// cr=deny) and R1 (allow, loses).
			_, err := sys.Request(xpath.MustParse("//patient"))
			if !errors.Is(err, ErrAccessDenied) {
				t.Fatalf("err = %v", err)
			}
			e = lastEvent(t, log)
			if e.Kind != "request" || e.Outcome != audit.OutcomeDeny || e.Err == "" {
				t.Fatalf("deny event = %+v", e)
			}
			if len(e.Rules) != 2 || e.Rules[0] != "R3" || e.Rules[1] != "R1" {
				t.Fatalf("deny attribution = %v, want [R3 R1]", e.Rules)
			}

			denials := log.Filter(10, func(e audit.Event) bool { return e.Outcome == audit.OutcomeDeny })
			if len(denials) != 1 {
				t.Fatalf("deny filter = %d events", len(denials))
			}
		})
	}
}

// TestAuditTypedDenial: the request paths return *DeniedError carrying the
// blocking node, and it unwraps to ErrAccessDenied with the legacy text.
func TestAuditTypedDenial(t *testing.T) {
	sys, _ := auditedSystem(t, Config{Backend: BackendNative})
	_, err := sys.Request(xpath.MustParse("//treatment"))
	var denied *DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("err = %T %v", err, err)
	}
	if denied.Label != "treatment" || !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("denied = %+v", denied)
	}
	d, werr := sys.WhyNode(denied.ID)
	if werr != nil || d == nil || d.Accessible {
		t.Fatalf("WhyNode(%d) = %v, %v", denied.ID, d, werr)
	}
}

// TestAuditCacheHitFlag: with the query cache on, Annotate builds the
// decision set, so the first request is already served from it (a hit),
// and a delete whose region is bounded patches it, so the request after
// the delete is a hit too.
func TestAuditCacheHitFlag(t *testing.T) {
	sys, log := auditedSystem(t, Config{Backend: BackendColumn, QueryCache: true, Optimize: true})
	q := xpath.MustParse("//patient/name")
	for i := 0; i < 2; i++ {
		if _, err := sys.Request(q); err != nil {
			t.Fatal(err)
		}
		if e := lastEvent(t, log); !e.CacheHit {
			t.Fatalf("request %d after Annotate: CacheHit = false", i)
		}
	}
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Request(q); err != nil {
		t.Fatal(err)
	}
	if e := lastEvent(t, log); !e.CacheHit {
		t.Fatal("request after a region-bounded delete rebuilt the decision set")
	}
}

// TestAuditUpdateEvents: a delete round trip records one "reannotate"
// event attributed to the Trigger-selected rules; with write enforcement
// on, the preceding "write-check" event records the grant or the denial
// with its deciding write rule.
func TestAuditUpdateEvents(t *testing.T) {
	sys, log := auditedSystem(t, Config{Backend: BackendNative})
	rep, err := sys.DeleteAndReannotate(xpath.MustParse("//patient/treatment"))
	if err != nil {
		t.Fatal(err)
	}
	e := lastEvent(t, log)
	if e.Kind != "reannotate" || e.Outcome != audit.OutcomeOK || e.Query != "//patient/treatment" {
		t.Fatalf("reannotate event = %+v", e)
	}
	if e.Matched != rep.DeletedNodes || len(e.Rules) != len(rep.Triggered) {
		t.Fatalf("reannotate event = %+v, report = %+v", e, rep)
	}
	if len(e.Rules) == 0 {
		t.Fatal("no triggered rules on the reannotate event")
	}
}

func TestAuditWriteCheckEvents(t *testing.T) {
	sys, log := auditedSystem(t, Config{
		Policy:       policy.MustParse(writePolicy),
		Backend:      BackendNative,
		Optimize:     true,
		EnforceWrite: true,
	})

	// john's treatment is updatable (W1); jane's has an experimental
	// descendant, so W3 (deny) overrides W1 under cr=deny.
	_, err := sys.DeleteAndReannotate(xpath.MustParse("//treatment"))
	if !errors.Is(err, ErrUpdateDenied) {
		t.Fatalf("err = %v", err)
	}
	events := log.Recent(2)
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	check, round := events[0], events[1]
	if check.Kind != "write-check" || check.Outcome != audit.OutcomeDeny || check.Checked != 2 {
		t.Fatalf("write-check event = %+v", check)
	}
	if len(check.Rules) != 2 || check.Rules[0] != "W3" || check.Rules[1] != "W1" {
		t.Fatalf("write-check attribution = %v, want [W3 W1]", check.Rules)
	}
	if round.Kind != "reannotate" || round.Outcome != audit.OutcomeDeny {
		t.Fatalf("round-trip event = %+v", round)
	}

	// A permitted delete records a granted check.
	if _, err := sys.DeleteAndReannotate(xpath.MustParse("//regular")); err != nil {
		t.Fatal(err)
	}
	events = log.Recent(2)
	if events[0].Kind != "write-check" || events[0].Outcome != audit.OutcomeGrant {
		t.Fatalf("write-check event = %+v", events[0])
	}
	if events[1].Kind != "reannotate" || events[1].Outcome != audit.OutcomeOK {
		t.Fatalf("round-trip event = %+v", events[1])
	}
}

// TestAuditInsertEvent: the insert path is audited like the delete path.
func TestAuditInsertEvent(t *testing.T) {
	sys, log := auditedSystem(t, Config{Backend: BackendNative})
	tmpl := xmltree.NewSubtree("treatment")
	reg := xmltree.AddTemplateChild(tmpl, "regular")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "med"), "aspirin")
	xmltree.AddTemplateText(xmltree.AddTemplateChild(reg, "bill"), "100")
	if _, err := sys.InsertAndReannotate(xpath.MustParse(`//patient[psn = "099"]`), tmpl); err != nil {
		t.Fatal(err)
	}
	e := lastEvent(t, log)
	if e.Kind != "reannotate" || e.Outcome != audit.OutcomeOK {
		t.Fatalf("insert event = %+v", e)
	}
}

// TestAuditConcurrentWithTraces is the hot-path hammer: concurrent
// requests (grants and denials), full annotations and deletes race against
// readers of the audit trail and the trace collector. Run under -race.
func TestAuditConcurrentWithTraces(t *testing.T) {
	log := audit.NewLog(64)
	col := obs.NewCollector(32)
	sys, err := NewSystem(Config{
		Schema:  hospital.Schema(),
		Policy:  policy.MustParse(table1Policy),
		Backend: BackendNative,
		Audit:   log,
		Tracer:  obs.NewTracer(col),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(hospital.Document()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}

	const iters = 100
	var wg sync.WaitGroup
	for _, q := range []string{"//patient/name", "//patient", "//regular", "//psn"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			p := xpath.MustParse(q)
			for i := 0; i < iters; i++ {
				_, _ = sys.Request(p)
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if _, err := sys.Annotate(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			for _, e := range log.Recent(16) {
				if e.Kind == "" || e.Outcome == "" {
					t.Error("malformed event in flight")
					return
				}
			}
			_ = log.Filter(16, func(e audit.Event) bool { return e.Outcome == audit.OutcomeDeny })
			for _, root := range col.Roots() {
				_ = root.Tree()
			}
		}
	}()
	wg.Wait()

	if log.Total() == 0 || log.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if got := log.Total(); got != uint64(log.Len())+log.Evicted() {
		t.Fatalf("accounting: total %d != len %d + evicted %d", got, log.Len(), log.Evicted())
	}
}
