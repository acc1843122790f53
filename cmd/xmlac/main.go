// Command xmlac is the front-end of the access-control system: it loads a
// schema, a policy and a document into a chosen backend, annotates, and then
// executes a sequence of operations given as arguments.
//
// Usage:
//
//	xmlac [-dtd file] [-policy file] [-doc file] [-backend xquery|monetsql|monetcol|postgres]
//	      [-trace] [-explain] [-slowquery dur] [-qcache] [-enforce auto|signs|rewrite]
//	      [-audit file] [-audit-max-bytes n] [-audit-max-files n]
//	      [-serve addr] [-slo spec] [-users list|demo] [-version] op...
//
// With no -dtd/-policy/-doc, the paper's hospital example is used.
// -trace prints a span tree per operation to stderr, -explain prints the
// relational engine's plan before each query, and -slowquery logs SQL
// statements slower than the given duration (e.g. -slowquery 1ms).
// -audit appends every decision (requests, write checks, annotation runs)
// as JSON lines to the given file; -audit-max-bytes rotates the file
// in place once it would exceed the given size, keeping -audit-max-files
// generations (audit.log, audit.log.1, ...) and counting rotations as
// audit_rotations_total. -serve starts a long-lived ops endpoint on addr
// (e.g. -serve :8080) after the operations run — see serve.go for the
// routes (/healthz, /metrics, /audit, /traces, /coverage, /forensics,
// /alerts, /stream, /request, /why, /debug/pprof/). -slo declares the
// burn-rate service-level objectives the /alerts state machines evaluate
// (comma-separated name<value; 'off' disables). -users registers
// per-requester policies over the same document (comma-separated
// name=policyfile pairs, or 'demo' for bundled hospital roles); subjects
// with equivalent policies share one cohort, and -serve then also exposes
// the /multiuser cohort view.
//
// Operations (executed left to right):
//
//	annotate            full annotation (implied before the first query;
//	                    skipped under rewrite enforcement, which needs none)
//	dump                print the annotated document
//	policy              print the optimized policy
//	plan                print the enforcement plan (mode, reason, rewriter)
//	coverage            print the accessible fraction
//	query=<xpath>       all-or-nothing request
//	filter=<xpath>      filtering request (accessible matches only)
//	delete=<xpath>      delete update + partial re-annotation
//	fullafter=<xpath>   delete update + full re-annotation (baseline)
//	view=prune|promote  print the security view
//	why=<xpath>         explain each matched node's accessibility (rule attribution)
//	save=<file>         write the annotated document (with signs) to a file
//
// Example:
//
//	xmlac query=//patient delete=//patient/treatment query=//patient
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xmlac"
)

func main() {
	var (
		dtdFile    = flag.String("dtd", "", "DTD file (default: the bundled hospital schema)")
		policyFile = flag.String("policy", "", "policy file (default: the bundled Table 1 policy)")
		docFile    = flag.String("doc", "", "XML document file (default: the bundled Figure 2 document)")
		backend    = flag.String("backend", "xquery", "backend: xquery, monetsql, monetcol or postgres")
		optimize   = flag.Bool("optimize", true, "run redundancy elimination on the policy")
		trace      = flag.Bool("trace", false, "print a span tree for each operation to stderr")
		explain    = flag.Bool("explain", false, "print the SQL plan before each query (relational backends)")
		slowQuery  = flag.Duration("slowquery", 0, "log SQL statements slower than this duration to stderr (0 disables)")
		parallel   = flag.Int("parallel", 0, "annotation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		qcache     = flag.Bool("qcache", false, "answer signs-mode request access checks from the in-memory decision set instead of the store")
		enforce    = flag.String("enforce", "auto", "enforcement strategy: auto (planner decides), signs (materialized annotations) or rewrite (policy composed into each query)")
		auditFile  = flag.String("audit", "", "append audit events as JSON lines to this file")
		auditMaxB  = flag.Int64("audit-max-bytes", 0, "rotate the -audit file once it would exceed this size (0 = never rotate)")
		auditMaxF  = flag.Int("audit-max-files", 0, "rotated -audit generations to keep, including the live file (0 = package default)")
		serveAddr  = flag.String("serve", "", "serve the ops endpoint on this address (e.g. :8080) after the operations run")
		sloSpec    = flag.String("slo", "request_p99<5ms,error_rate<1%", "burn-rate objectives for /alerts, e.g. 'request_p99<5ms,error_rate<1%' ('off' disables)")
		sloFast    = flag.Duration("slo-fast", 0, "fast burn-rate window (0 = 5m default)")
		sloSlow    = flag.Duration("slo-slow", 0, "slow burn-rate window (0 = 1h default)")
		usersList  = flag.String("users", "", "multi-user mode: comma-separated name=policyfile subjects, or 'demo' for bundled hospital roles (adds /multiuser to -serve)")
		docsList   = flag.String("docs", "", "catalog mode: comma-separated name[=file] document list (file defaults to -doc)")
		shards     = flag.Int("shards", 2, "catalog mode: number of shards documents hash onto")
		version    = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("xmlac", xmlac.Version)
		return
	}

	schemaText := xmlac.HospitalDTD
	policyText := xmlac.HospitalPolicyText
	docText := xmlac.HospitalDocumentText
	if *dtdFile != "" {
		schemaText = readFile(*dtdFile)
	}
	if *policyFile != "" {
		policyText = readFile(*policyFile)
	}
	if *docFile != "" {
		docText = readFile(*docFile)
	}

	var be xmlac.Backend
	switch *backend {
	case "xquery":
		be = xmlac.BackendNative
	case "monetsql":
		be = xmlac.BackendColumn
	case "monetcol":
		be = xmlac.BackendVector
	case "postgres":
		be = xmlac.BackendRow
	default:
		fail(fmt.Errorf("unknown backend %q", *backend))
	}

	schema, err := xmlac.ParseDTD(schemaText)
	if err != nil {
		fail(err)
	}
	pol, err := xmlac.ParsePolicy(policyText)
	if err != nil {
		fail(err)
	}
	mode, err := xmlac.ParseEnforceMode(*enforce)
	if err != nil {
		fail(err)
	}
	cfg := xmlac.Config{
		Schema: schema, Policy: pol, Backend: be, Optimize: *optimize,
		QueryCache: *qcache, Enforce: mode,
	}.WithParallelism(*parallel)
	reg := xmlac.NewMetricsRegistry()
	cfg.Metrics = reg
	var aud *xmlac.AuditLog
	if *auditFile != "" || *serveAddr != "" {
		aud = xmlac.NewAuditLog(0)
		cfg.Audit = aud
	}
	if *auditFile != "" {
		if *auditMaxB > 0 || *auditMaxF > 0 {
			rf, err := xmlac.OpenRotatingAuditFile(*auditFile, *auditMaxB, *auditMaxF)
			if err != nil {
				fail(err)
			}
			rotations := reg.Counter("audit_rotations_total")
			rf.OnRotate(func(uint64) { rotations.Inc() })
			// LIFO: Close drains the queue first, then the file closes.
			defer rf.Close()
			defer aud.Close()
			aud.AttachJSONL(rf, 0)
		} else {
			f, err := os.OpenFile(*auditFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail(err)
			}
			// LIFO: Close drains the queue first, then the file closes.
			defer f.Close()
			defer aud.Close()
			aud.AttachJSONL(f, 0)
		}
	}
	var col *xmlac.TraceCollector
	var sinks []xmlac.TraceSink
	if *trace {
		sinks = append(sinks, xmlac.RenderTraceSink(os.Stderr))
	}
	if *serveAddr != "" {
		col = xmlac.NewTraceCollector(0)
		sinks = append(sinks, col)
	}
	if len(sinks) > 0 {
		cfg.Tracer = xmlac.NewTracer(teeSink(sinks))
	}
	if *docsList != "" {
		if *usersList != "" {
			fail(fmt.Errorf("-users is not supported in catalog mode"))
		}
		runCatalog(cfg, *docsList, *shards, docText, *serveAddr, *sloSpec, *sloFast, *sloSlow, reg, aud, col)
		return
	}
	sys, err := xmlac.New(cfg)
	if err != nil {
		fail(err)
	}
	if *slowQuery > 0 {
		sys.SetSlowQueryLog(os.Stderr, *slowQuery)
	}
	doc, err := xmlac.ParseXMLString(docText)
	if err != nil {
		fail(err)
	}
	if err := sys.Load(doc); err != nil {
		fail(err)
	}

	ops := flag.Args()
	if len(ops) == 0 && *serveAddr == "" {
		ops = []string{"annotate", "dump"}
	}
	annotated := false
	ensureAnnotated := func() {
		if annotated {
			return
		}
		if sys.ActiveMode() == xmlac.EnforceRewrite {
			// Rewriting enforcement composes the policy into each query;
			// no signs are materialized and there is nothing to annotate.
			fmt.Println("annotate: skipped (rewrite enforcement reads the unannotated store)")
			annotated = true
			return
		}
		stats, err := sys.Annotate()
		took := stats.Duration
		if err != nil {
			fail(err)
		}
		fmt.Printf("annotate: %d nodes set in %v\n", stats.Updated, took)
		annotated = true
	}

	for _, op := range ops {
		switch {
		case op == "annotate":
			annotated = false
			ensureAnnotated()
		case op == "dump":
			ensureAnnotated()
			fmt.Println(sys.Document().StringAnnotated())
		case op == "policy":
			fmt.Print(sys.Policy().String())
			for _, r := range sys.RemovedRules() {
				fmt.Printf("# removed as redundant: %s\n", r.String())
			}
		case op == "plan":
			p := sys.Plan()
			fmt.Printf("plan: requested=%s mode=%s active=%s recursive=%v\n",
				p.Requested, p.Mode, sys.ActiveMode(), p.Recursive)
			fmt.Printf("  reason: %s\n", p.Reason)
			fmt.Printf("  accessible set: %s\n", sys.Rewriter().AccessExpr())
		case op == "coverage":
			ensureAnnotated()
			cov, err := sys.Coverage()
			if err != nil {
				fail(err)
			}
			fmt.Printf("coverage: %.1f%%\n", cov*100)
		case strings.HasPrefix(op, "query="):
			ensureAnnotated()
			q, err := xmlac.ParseXPath(strings.TrimPrefix(op, "query="))
			if err != nil {
				fail(err)
			}
			if *explain {
				plan, err := sys.Explain(q)
				if err != nil {
					fmt.Fprintf(os.Stderr, "explain %s: %v\n", q, err)
				} else {
					fmt.Printf("explain %s:\n%s\n", q, indent(plan))
				}
			}
			res, err := sys.Request(q)
			switch {
			case errors.Is(err, xmlac.ErrAccessDenied):
				fmt.Printf("query %s: DENIED (%v)\n", q, err)
			case err != nil:
				fail(err)
			default:
				fmt.Printf("query %s: granted, %d nodes\n", q, res.Checked)
			}
		case strings.HasPrefix(op, "filter="):
			ensureAnnotated()
			q, err := xmlac.ParseXPath(strings.TrimPrefix(op, "filter="))
			if err != nil {
				fail(err)
			}
			res, dropped, err := sys.RequestFiltered(q)
			if err != nil {
				fail(err)
			}
			fmt.Printf("filter %s: %d accessible, %d hidden\n", q, len(res.Nodes), dropped)
		case strings.HasPrefix(op, "view="):
			ensureAnnotated()
			var mode xmlac.ViewMode
			switch strings.TrimPrefix(op, "view=") {
			case "prune":
				mode = xmlac.ViewPrune
			case "promote":
				mode = xmlac.ViewPromote
			default:
				fail(fmt.Errorf("view mode must be prune or promote"))
			}
			view, err := sys.ExportView(mode)
			if err != nil {
				fail(err)
			}
			fmt.Println(view.StringAnnotated())
		case strings.HasPrefix(op, "why="):
			ensureAnnotated()
			q, err := xmlac.ParseXPath(strings.TrimPrefix(op, "why="))
			if err != nil {
				fail(err)
			}
			decisions, err := sys.Why(q)
			if err != nil {
				fail(err)
			}
			fmt.Printf("why %s: %d nodes\n", q, len(decisions))
			for _, d := range decisions {
				fmt.Println("  " + d.String())
			}
		case strings.HasPrefix(op, "save="):
			ensureAnnotated()
			path := strings.TrimPrefix(op, "save=")
			if err := os.WriteFile(path, []byte(sys.Document().StringAnnotated()), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("saved annotated document to %s\n", path)
		case strings.HasPrefix(op, "delete="):
			ensureAnnotated()
			u, err := xmlac.ParseXPath(strings.TrimPrefix(op, "delete="))
			if err != nil {
				fail(err)
			}
			rep, err := sys.DeleteAndReannotate(u)
			if err != nil {
				fail(err)
			}
			fmt.Printf("delete %s: removed %d nodes, triggered %v, reannotated in %v\n",
				u, rep.DeletedNodes, rep.Triggered, rep.PrepareTime+rep.ReannotateTime)
		case strings.HasPrefix(op, "fullafter="):
			ensureAnnotated()
			u, err := xmlac.ParseXPath(strings.TrimPrefix(op, "fullafter="))
			if err != nil {
				fail(err)
			}
			rep, err := sys.DeleteAndFullAnnotate(u)
			if err != nil {
				fail(err)
			}
			fmt.Printf("delete %s: removed %d nodes, fully re-annotated in %v\n",
				u, rep.DeletedNodes, rep.ReannotateTime)
		default:
			fail(fmt.Errorf("unknown operation %q", op))
		}
	}

	var mu *xmlac.MultiUser
	if *usersList != "" {
		mu = buildMultiUser(schema, docText, *usersList, reg)
		st := mu.Stats()
		fmt.Printf("multiuser: %d users in %d cohorts (%.1fx dedup)\n", st.Users, st.Cohorts, st.DedupRatio)
	}

	if *serveAddr != "" {
		ensureAnnotated()
		if mu != nil {
			mu.SetAudit(aud)
		}
		obsy := buildObservatory(reg, aud, nil, *sloSpec, *sloFast, *sloSlow)
		fail(serve(*serveAddr, sys, mu, obsy, reg, aud, col))
	}
}

// buildObservatory assembles and starts the serve-mode analytics engine:
// attached to the audit log, SLOs per the -slo flag, burn multiplier from
// the BENCH_INJECT fault-injection knob, ticked once per second for the
// life of the server.
func buildObservatory(reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, shardOf func(string) string,
	sloSpec string, fast, slow time.Duration) *xmlac.Observatory {
	obsy := xmlac.NewObservatory(xmlac.ObservatoryOptions{Metrics: reg, ShardOf: shardOf})
	obsy.Attach(aud)
	if sloSpec != "" && sloSpec != "off" {
		if err := obsy.EnableSLOs(sloSpec, fast, slow); err != nil {
			fail(err)
		}
		if env := os.Getenv("BENCH_INJECT"); env != "" {
			f, err := strconv.ParseFloat(env, 64)
			if err != nil {
				fail(fmt.Errorf("BENCH_INJECT: %w", err))
			}
			obsy.SetInject(f)
		}
	}
	go obsy.Run(make(chan struct{}), time.Second)
	return obsy
}

// demoUsers are the bundled -users=demo hospital subjects. The two doctors
// carry the same policy spelled differently, so the demo shows a cohort
// absorbing a registration (3 cohorts for 4 users).
var demoUsers = []struct{ name, policy string }{
	{"dr-grey", `
default deny
conflict deny
rule P allow //patient
rule PS allow //patient//*
rule X deny //experimental
`},
	{"dr-house", `
default deny
conflict deny
rule R1 deny //experimental
rule R2 allow //patient//*
rule R3 allow //patient
`},
	{"frontdesk", `
default deny
conflict deny
rule N allow //patient/name
rule S deny //psn
`},
	{"auditor", `
default deny
conflict deny
rule B allow //bill
rule T allow //treatment//*
`},
}

// buildMultiUser assembles the -users layer over its own parse of the
// served document: either the bundled demo roles or name=policyfile pairs.
func buildMultiUser(schema *xmlac.Schema, docText, usersList string, reg *xmlac.MetricsRegistry) *xmlac.MultiUser {
	doc, err := xmlac.ParseXMLString(docText)
	if err != nil {
		fail(err)
	}
	mu, err := xmlac.NewMultiUser(schema, doc)
	if err != nil {
		fail(err)
	}
	mu.SetMetrics(reg)
	add := func(name, policyText string) {
		pol, err := xmlac.ParsePolicy(policyText)
		if err != nil {
			fail(fmt.Errorf("user %s: %w", name, err))
		}
		if err := mu.AddUser(name, pol); err != nil {
			fail(err)
		}
	}
	if usersList == "demo" {
		for _, u := range demoUsers {
			add(u.name, u.policy)
		}
		return mu
	}
	for _, ent := range strings.Split(usersList, ",") {
		name, file, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || name == "" || file == "" {
			fail(fmt.Errorf("-users entries must be name=policyfile (or the single word 'demo')"))
		}
		add(name, readFile(file))
	}
	return mu
}

// runCatalog is the -docs mode: many named documents sharded across
// independent engines, annotated shard-parallel, with the operation list
// applied to every document ("[name] ..." output lines).
func runCatalog(cfg xmlac.Config, docsList string, shards int, defaultDocText, serveAddr, sloSpec string,
	sloFast, sloSlow time.Duration, reg *xmlac.MetricsRegistry, aud *xmlac.AuditLog, col *xmlac.TraceCollector) {
	cat, err := xmlac.OpenCatalog(cfg, shards)
	if err != nil {
		fail(err)
	}
	for _, ent := range strings.Split(docsList, ",") {
		name, file, _ := strings.Cut(strings.TrimSpace(ent), "=")
		if name == "" {
			fail(fmt.Errorf("-docs entries must be name or name=file"))
		}
		text := defaultDocText
		if file != "" {
			text = readFile(file)
		}
		doc, err := xmlac.ParseXMLString(text)
		if err != nil {
			fail(err)
		}
		if err := cat.AddDocument(name, doc); err != nil {
			fail(err)
		}
	}
	annotateAll := func() {
		stats, err := cat.AnnotateAll()
		if err != nil {
			fail(err)
		}
		for _, name := range cat.Docs() {
			fmt.Printf("[%s] shard %s: annotate %d nodes set in %v\n",
				name, cat.ShardOf(name), stats[name].Updated, stats[name].Duration)
		}
	}
	annotateAll()

	for _, op := range flag.Args() {
		switch {
		case op == "annotate":
			annotateAll()
		case op == "placement":
			for shard, docs := range cat.Placement() {
				fmt.Printf("%s: %s\n", shard, strings.Join(docs, " "))
			}
		case op == "coverage":
			for _, name := range cat.Docs() {
				cov, err := cat.Coverage(name)
				if err != nil {
					fail(err)
				}
				fmt.Printf("[%s] coverage: %.1f%%\n", name, cov*100)
			}
		case strings.HasPrefix(op, "query="):
			q, err := xmlac.ParseXPath(strings.TrimPrefix(op, "query="))
			if err != nil {
				fail(err)
			}
			for _, name := range cat.Docs() {
				res, err := cat.Request(name, q)
				switch {
				case errors.Is(err, xmlac.ErrAccessDenied):
					fmt.Printf("[%s] query %s: DENIED (%v)\n", name, q, err)
				case err != nil:
					fail(err)
				default:
					fmt.Printf("[%s] query %s: granted, %d nodes\n", name, q, res.Checked)
				}
			}
		case strings.HasPrefix(op, "why="):
			q, err := xmlac.ParseXPath(strings.TrimPrefix(op, "why="))
			if err != nil {
				fail(err)
			}
			for _, name := range cat.Docs() {
				decisions, err := cat.Why(name, q)
				if err != nil {
					fail(err)
				}
				fmt.Printf("[%s] why %s: %d nodes\n", name, q, len(decisions))
				for _, d := range decisions {
					fmt.Println("  " + d.String())
				}
			}
		case strings.HasPrefix(op, "delete="):
			u, err := xmlac.ParseXPath(strings.TrimPrefix(op, "delete="))
			if err != nil {
				fail(err)
			}
			for _, name := range cat.Docs() {
				rep, err := cat.DeleteAndReannotate(name, u)
				if err != nil {
					fail(err)
				}
				fmt.Printf("[%s] delete %s: removed %d nodes, triggered %v\n",
					name, u, rep.DeletedNodes, rep.Triggered)
			}
		default:
			fail(fmt.Errorf("operation %q is not supported in catalog mode", op))
		}
	}
	if serveAddr != "" {
		obsy := buildObservatory(reg, aud, cat.ShardOf, sloSpec, sloFast, sloSlow)
		fail(serveCatalog(serveAddr, cat, obsy, reg, aud, col))
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}

func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	return string(data)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xmlac:", err)
	os.Exit(1)
}
