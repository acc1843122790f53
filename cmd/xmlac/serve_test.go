package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlac"
)

func httpGet(url string) (*http.Response, error) { return http.Get(url) }

func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func testMux(t *testing.T) *httptest.Server {
	t.Helper()
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := xmlac.ParsePolicy(xmlac.HospitalPolicyText)
	if err != nil {
		t.Fatal(err)
	}
	reg := xmlac.NewMetricsRegistry()
	aud := xmlac.NewAuditLog(0)
	col := xmlac.NewTraceCollector(0)
	sys, err := xmlac.New(xmlac.Config{
		Schema: schema, Policy: pol, Backend: xmlac.BackendNative,
		Optimize: true, Metrics: reg, Audit: aud,
		Tracer: xmlac.NewTracer(col),
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlac.ParseXMLString(xmlac.HospitalDocumentText)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Annotate(); err != nil {
		t.Fatal(err)
	}
	// The multi-user layer rides along on its own parse of the document,
	// with the bundled demo roles (two of which share a policy).
	mudoc, err := xmlac.ParseXMLString(xmlac.HospitalDocumentText)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := xmlac.NewMultiUser(schema, mudoc)
	if err != nil {
		t.Fatal(err)
	}
	mu.SetMetrics(reg)
	for _, u := range demoUsers {
		pol, err := xmlac.ParsePolicy(u.policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := mu.AddUser(u.name, pol); err != nil {
			t.Fatal(err)
		}
	}
	mu.SetAudit(aud)
	obsy := xmlac.NewObservatory(xmlac.ObservatoryOptions{Metrics: reg})
	obsy.Attach(aud)
	if err := obsy.EnableSLOs("request_p99<5ms,error_rate<1%", 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeMux(sys, mu, obsy, reg, aud, col))
	t.Cleanup(srv.Close)
	// One grant and one denial so /audit and /traces have content.
	if _, err := sys.Request(xmlac.MustParseXPath("//patient/name")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Request(xmlac.MustParseXPath("//patient")); err == nil {
		t.Fatal("//patient unexpectedly granted")
	}
	return srv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	res, err := httpGet(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, res.Status)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestServeEndpoints(t *testing.T) {
	srv := testMux(t)

	var health struct {
		Status   string `json:"status"`
		Loaded   bool   `json:"loaded"`
		Version  string `json:"version"`
		AnnoVer  uint64 `json:"annotation_version"`
		Elements int    `json:"elements"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	// The hospital document of Figure 2 has 21 elements.
	if health.Status != "ok" || !health.Loaded || health.Version != xmlac.Version || health.AnnoVer == 0 || health.Elements != 21 {
		t.Fatalf("healthz = %+v", health)
	}

	res, err := httpGet(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, res)
	if !strings.Contains(body, "core_requests_total") && !strings.Contains(body, "# TYPE") {
		t.Fatalf("metrics body = %q", body)
	}

	var auditResp struct {
		Events []xmlac.AuditEvent `json:"events"`
		Total  uint64             `json:"total"`
	}
	getJSON(t, srv.URL+"/audit", &auditResp)
	if auditResp.Total == 0 || len(auditResp.Events) == 0 {
		t.Fatalf("audit = %+v", auditResp)
	}
	getJSON(t, srv.URL+"/audit?outcome=deny&n=5", &auditResp)
	if len(auditResp.Events) != 1 || auditResp.Events[0].Outcome != xmlac.AuditDeny {
		t.Fatalf("audit deny filter = %+v", auditResp.Events)
	}
	if rules := auditResp.Events[0].Rules; len(rules) == 0 || rules[0] != "R3" {
		t.Fatalf("denial attribution = %v", auditResp.Events[0].Rules)
	}

	var whyResp struct {
		Decisions []xmlac.WhyDecision `json:"decisions"`
	}
	getJSON(t, srv.URL+"/why?q=//patient", &whyResp)
	if len(whyResp.Decisions) != 3 {
		t.Fatalf("why decisions = %+v", whyResp.Decisions)
	}

	var reqResp struct {
		Outcome string `json:"outcome"`
		Checked int    `json:"checked"`
	}
	getJSON(t, srv.URL+"/request?q=//patient/name", &reqResp)
	if reqResp.Outcome != "grant" || reqResp.Checked != 3 {
		t.Fatalf("request = %+v", reqResp)
	}

	res, err = httpGet(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, res); !strings.Contains(body, "request") {
		t.Fatalf("traces body = %q", body)
	}

	for _, target := range []string{"/why", "/request?q=%5Bbad", "/audit?n=-1"} {
		res, err := httpGet(srv.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 400 {
			t.Fatalf("GET %s: %s, want 400", target, res.Status)
		}
	}
}

// TestServeRefusesLongQuery: /request, /why and /plan refuse a q longer
// than maxQueryBytes with 400 before parsing it, so the refusal leaves no
// audit event; a q of exactly maxQueryBytes is answered.
func TestServeRefusesLongQuery(t *testing.T) {
	srv := testMux(t)
	auditTotal := func() uint64 {
		var resp struct {
			Total uint64 `json:"total"`
		}
		getJSON(t, srv.URL+"/audit", &resp)
		return resp.Total
	}
	long := "//" + strings.Repeat("a", maxQueryBytes-1)
	before := auditTotal()
	for _, route := range []string{"/request", "/why", "/plan"} {
		res, err := httpGet(srv.URL + route + "?q=" + long)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, res)
		if res.StatusCode != http.StatusBadRequest || !strings.Contains(body, "longer than 4096") {
			t.Errorf("GET %s with a %d-byte q: %s %q, want 400", route, len(long), res.Status, body)
		}
	}
	if after := auditTotal(); after != before {
		t.Errorf("refused queries added %d audit events", after-before)
	}
	res, err := httpGet(srv.URL + "/request?q=" + long[:maxQueryBytes])
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, res); res.StatusCode != http.StatusOK {
		t.Errorf("GET /request with a %d-byte q: %s %q, want 200", maxQueryBytes, res.Status, body)
	}
}

// TestServeRewrite serves a system built as -enforce rewrite builds it:
// /plan reports the rewrite mode and /request answers from the
// unannotated store.
func TestServeRewrite(t *testing.T) {
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := xmlac.ParsePolicy(xmlac.HospitalPolicyText)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := xmlac.ParseEnforceMode("rewrite")
	if err != nil {
		t.Fatal(err)
	}
	reg := xmlac.NewMetricsRegistry()
	aud := xmlac.NewAuditLog(0)
	sys, err := xmlac.New(xmlac.Config{
		Schema: schema, Policy: pol, Backend: xmlac.BackendNative,
		Optimize: true, Metrics: reg, Audit: aud, Enforce: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlac.ParseXMLString(xmlac.HospitalDocumentText)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Load(doc); err != nil {
		t.Fatal(err)
	}
	obsy := xmlac.NewObservatory(xmlac.ObservatoryOptions{Metrics: reg})
	obsy.Attach(aud)
	srv := httptest.NewServer(newServeMux(sys, nil, obsy, reg, aud, xmlac.NewTraceCollector(0)))
	t.Cleanup(srv.Close)

	var plan struct {
		Plan struct {
			Mode string `json:"mode"`
		} `json:"plan"`
		ActiveMode string `json:"active_mode"`
	}
	getJSON(t, srv.URL+"/plan", &plan)
	if plan.Plan.Mode != "rewrite" || plan.ActiveMode != "rewrite" {
		t.Fatalf("plan = %+v, want rewrite", plan)
	}
	var req struct {
		Outcome string `json:"outcome"`
		Checked int    `json:"checked"`
	}
	getJSON(t, srv.URL+"/request?q=//patient/name", &req)
	if req.Outcome != "grant" || req.Checked != 3 {
		t.Fatalf("request //patient/name = %+v, want a grant of 3", req)
	}
	getJSON(t, srv.URL+"/request?q=//patient", &req)
	if req.Outcome != "deny" {
		t.Fatalf("request //patient = %+v, want a denial", req)
	}
}

// TestServeMultiUser: the /multiuser route reports the cohort compression
// of the demo roles (the two doctors share one cohort), healthz carries
// the population counts, and the registry exposes the cohort gauges.
func TestServeMultiUser(t *testing.T) {
	srv := testMux(t)

	var stats xmlac.MultiUserStats
	getJSON(t, srv.URL+"/multiuser", &stats)
	if stats.Users != len(demoUsers) || stats.Cohorts != len(demoUsers)-1 {
		t.Fatalf("multiuser stats = %+v, want %d users in %d cohorts", stats, len(demoUsers), len(demoUsers)-1)
	}
	if stats.DedupRatio <= 1 || stats.TotalMarks <= 0 || len(stats.CohortList) != stats.Cohorts {
		t.Fatalf("multiuser stats = %+v", stats)
	}
	shared := 0
	for _, c := range stats.CohortList {
		if c.Members == 2 {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("want exactly one 2-member cohort (the doctors): %+v", stats.CohortList)
	}

	var health struct {
		Users   int `json:"multiuser_users"`
		Cohorts int `json:"multiuser_cohorts"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Users != stats.Users || health.Cohorts != stats.Cohorts {
		t.Fatalf("healthz multiuser counts = %+v, stats = %+v", health, stats)
	}

	res, err := httpGet(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, res)
	for _, series := range []string{
		"core_multiuser_users", "core_multiuser_cohorts",
		"core_multiuser_cohort_hits_total", "core_multiuser_dedup_ratio",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics lack %s:\n%.1000s", series, body)
		}
	}
}

// TestServeDashboard: the HTML view renders the live stores — latency
// quantiles from the request histograms, the denial with its rules, and
// a trace id that also appears on the corresponding audit event — and
// every route feeds its http_request_seconds series.
func TestServeDashboard(t *testing.T) {
	srv := testMux(t)

	res, err := httpGet(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 {
		t.Fatalf("GET /dashboard: %s", res.Status)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("dashboard Content-Type = %q", ct)
	}
	body := readAll(t, res)
	for _, want := range []string{
		"xmlac " + xmlac.Version, // header
		"document mode",
		"Request latency", "native / grant", "native / deny", // quantile rows
		"Multi-user cohorts", "share 3 cohorts", // the demo roles dedup
		"Slow traces", "Recent denials",
		"//patient", "R3", // the denial with its attribution
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard lacks %q:\n%.2000s", want, body)
		}
	}

	// The denial row carries a trace id that joins the audit stream.
	var auditResp struct {
		Events []xmlac.AuditEvent `json:"events"`
	}
	getJSON(t, srv.URL+"/audit?outcome=deny", &auditResp)
	if len(auditResp.Events) == 0 || auditResp.Events[0].Trace == "" {
		t.Fatalf("denial event has no trace id: %+v", auditResp.Events)
	}
	if !strings.Contains(body, auditResp.Events[0].Trace) {
		t.Fatalf("dashboard does not show denial trace %q", auditResp.Events[0].Trace)
	}

	// Every served route observed itself.
	res, err = httpGet(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, res)
	for _, series := range []string{
		`http_request_seconds_count{route="/dashboard"}`,
		`http_request_seconds_count{route="/audit"}`,
		`http_request_seconds_p95{route="/dashboard"}`,
		`store_request_seconds_p99{engine="native",outcome="grant"}`,
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("metrics lack %q", series)
		}
	}
}

// TestServeCatalogBroadcast: catalog mode serves /dashboard with shard
// heat, and /request without a doc parameter broadcasts the query to
// every document as one trace.
func TestServeCatalogBroadcast(t *testing.T) {
	schema, err := xmlac.ParseDTD(xmlac.HospitalDTD)
	if err != nil {
		t.Fatal(err)
	}
	reg := xmlac.NewMetricsRegistry()
	aud := xmlac.NewAuditLog(0)
	col := xmlac.NewTraceCollector(0)
	cat, err := xmlac.OpenCatalog(xmlac.Config{
		Schema: schema, Policy: xmlac.HospitalPolicy(),
		Backend: xmlac.BackendNative, Optimize: true,
		Metrics: reg, Audit: aud, Tracer: xmlac.NewTracer(col),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"ward-a", "ward-b", "ward-c"} {
		doc := xmlac.GenerateHospital(xmlac.HospitalGenOptions{
			Seed: uint64(i + 1), Departments: 1, PatientsPerDept: 3, StaffPerDept: 1,
		})
		if err := cat.AddDocument(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.AnnotateAll(); err != nil {
		t.Fatal(err)
	}
	obsy := xmlac.NewObservatory(xmlac.ObservatoryOptions{Metrics: reg, ShardOf: cat.ShardOf})
	obsy.Attach(aud)
	srv := httptest.NewServer(newCatalogMux(cat, obsy, reg, aud, col))
	t.Cleanup(srv.Close)

	var broadcast struct {
		Broadcast bool                      `json:"broadcast"`
		Granted   map[string]map[string]any `json:"granted"`
		Denied    map[string]string         `json:"denied"`
	}
	getJSON(t, srv.URL+"/request?q=//patient/name", &broadcast)
	if !broadcast.Broadcast || len(broadcast.Granted) != 3 || len(broadcast.Denied) != 0 {
		t.Fatalf("broadcast = %+v", broadcast)
	}

	// A doc-addressed request still routes to one document.
	var single struct {
		Outcome string `json:"outcome"`
		Doc     string `json:"doc"`
	}
	getJSON(t, srv.URL+"/request?q=//patient/name&doc=ward-b", &single)
	if single.Outcome != "grant" || single.Doc != "ward-b" {
		t.Fatalf("single request = %+v", single)
	}

	res, err := httpGet(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, res)
	for _, want := range []string{"catalog mode", "Shard heat", "shard0", "shard1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("catalog dashboard lacks %q", want)
		}
	}
}
