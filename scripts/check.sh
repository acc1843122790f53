#!/bin/sh
# check.sh — the repo's full verification gate: formatting, vet, build, tests.
# Run from the repository root (or anywhere inside it).
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The store seam is load-bearing: core must speak only store.Engine, never
# a concrete backend package. A direct import would silently reintroduce
# the per-backend dispatch branches this layering removed.
if grep -rn '"xmlac/internal/sqldb"' internal/core/*.go; then
	echo "check.sh: internal/core must not import sqldb (use store.Engine)" >&2
	exit 1
fi

# The enforcer seam is load-bearing too: the rewriting layer (planner,
# rewrite enforcer with its decision set, policy rewriter, and the write
# region the set is maintained over) must never touch sign internals — the
# CAM package, annotation-query construction, sign application or the
# reannotator. Only the materialized enforcer's side of the seam may.
if grep -n 'xmlac/internal/cam\|BuildAnnotationQuery\|AnnotationQuery\|ApplySigns\|xmltree\.Sign\|Reannotat\|\.Sign\b' \
	internal/core/rewriter.go internal/core/planner.go internal/core/region.go internal/xpath/rewrite.go; then
	echo "check.sh: the rewriting enforcement layer must not reference sign internals" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race ./...

# The repository benchmark is its own module (cmd/xmlacbench/go.mod), so
# the root ./... above never vets or tests it: run its smoke test and its
# BENCHMARK.json sync test here.
(cd cmd/xmlacbench && go vet ./... && go test ./...)

# Cross-mode golden equivalence: the rewriting enforcer must answer
# byte-identically to the materialized signs pipeline on every backend,
# every Table 2 semantics and both fixtures — the refactor's safety net.
# Both modes maintain their state over each write's region: the patched
# decision set must equal a fresh rebuild and serve the next read without
# one, and the maintained signs must equal a fresh annotation. The cohort
# oracle holds MultiUser's per-cohort maps to the same rule under random
# policies and deletes. `go test ./...` above runs them; this standalone
# form is what CI's blocking cross-mode job calls.
go test -run 'TestCrossModeEquivalence|TestRecursiveSchemaOnlyRewrite|TestStaticDenyFastPath|TestRewriteScopePatchDifferential|TestWritesKeepDecisionSetCurrent|TestSignPatchDifferential|TestAuctionPairGolden|TestCohortOracle' ./internal/core

# The label-indexed XPath evaluator against the frozen forward reference:
# random trees, paths and update sequences, the 55 benchmark queries across
# a write, the shared-qualifier memo, the native scan counter, the refused
# self-graft, and FuzzEval's seed corpus. `go test ./...` above runs them;
# this standalone form is what CI's blocking job calls (with -race and a
# timed fuzz run, which stays in CI only).
go test -run 'TestQuickIndexedEvalMatchesReference|TestQuickSelectsAgreesWithEval|TestEvalDecidesSharedQualifiersOnce|TestEvalDeepChainQualifiers|TestEvalVisitedCountsIndexCandidates|TestBenchmarkQueriesMatchReference|FuzzEval|TestInsertSubtreeUnderItselfRejected|TestElementsByLabel' ./internal/xpath ./internal/xmltree

# The one node-set evaluator every engine runs: the set algebra on every
# registered engine (nil expression included), EvalScope against union and
# except folded over tree XPath results on the Table 1 rule paths, with and
# without a worker pool, and FuzzParse's policy seed corpus. `go test ./...`
# above runs them; CI's timed policy fuzz run stays in CI only.
go test -run 'TestCombine|TestEvalSetAlgebra|TestEvalScopeMatchesTreeFold|FuzzParse' ./internal/store ./internal/policy

# Differential fuzzing: replay generated statement scripts against the row,
# column and vectorized engines and require identical results and errors;
# the mode fuzzer does the same one layer up across enforcement modes.
# `go test ./...` above runs the full versions; this keeps the -short form
# exercised so CI can call it standalone.
go test -short -run 'TestDifferentialEngines|TestModeDifferentialFuzz' ./internal/sqldb

# Smoke the benchmark harness itself (tiny -short documents, one iteration):
# a broken bench is otherwise only caught when scripts/bench.sh runs.
go test -short -bench 'BenchmarkFig10_Request(MonetSQL|Postgres|MonetCol)' -benchtime 1x -run '^$' .
go test -short -bench 'BenchmarkHotWrite_SignsVsRewrite' -benchtime 1x -run '^$' .
go test -short -bench 'BenchmarkFig12_(Reannot|Fannot)MonetSQL' -benchtime 1x -run '^$' .

# Smoke the multi-user cohort scale benchmarks (-short population: 200
# users over 10 distinct policies; the million-subject register skips).
go test -short -bench 'BenchmarkMultiUser(Rebuild|Memory|Request)' -benchtime 1x -run '^$' .

# Quantile sanity: the bucket-interpolation math behind the /metrics and
# /dashboard p50/p95/p99 figures.
go test -short -run TestHistogramQuantile ./internal/obs

# Smoke the ops endpoint: build the CLI, serve the bundled hospital system
# on a fixed port, and hit /healthz and /metrics with curl.
if command -v curl >/dev/null 2>&1; then
	serve_port=18765
	serve_bin=$(mktemp -d)/xmlac
	go build -o "$serve_bin" ./cmd/xmlac
	"$serve_bin" -serve 127.0.0.1:$serve_port -users demo >/dev/null 2>&1 &
	serve_pid=$!
	trap 'kill $serve_pid 2>/dev/null || true' EXIT
	ok=""
	for _ in $(seq 1 50); do
		if curl -sf "http://127.0.0.1:$serve_port/healthz" | grep -q '"status": "ok"'; then
			ok=1
			break
		fi
		sleep 0.1
	done
	[ -n "$ok" ] || { echo "check.sh: /healthz never became ready" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/metrics" | grep -q 'core_enforcer_requests_total' \
		|| { echo "check.sh: /metrics missing expected counters" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/dashboard" | grep -q 'Request latency' \
		|| { echo "check.sh: /dashboard did not render" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/multiuser" | grep -q '"cohorts": 3' \
		|| { echo "check.sh: /multiuser missing the demo cohorts" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/alerts" | grep -q '"enabled": true' \
		|| { echo "check.sh: /alerts missing the default SLO objectives" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/coverage" | grep -q '"rollup"' \
		|| { echo "check.sh: /coverage missing the cohort rollup" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/forensics" | grep -q '"windows"' \
		|| { echo "check.sh: /forensics did not report windows" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/plan" | grep -q '"active_mode": "signs"' \
		|| { echo "check.sh: /plan missing the active enforcement mode" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/request?q=//name" | grep -q '"outcome"' \
		|| { echo "check.sh: /request did not answer" >&2; exit 1; }
	# The SSE stream opens with a hello frame; grab the first frame only.
	frame=$(curl -sN --max-time 2 "http://127.0.0.1:$serve_port/stream" | head -c 300 || true)
	echo "$frame" | grep -q 'event: hello' \
		|| { echo "check.sh: /stream did not emit a hello frame" >&2; exit 1; }
	kill $serve_pid 2>/dev/null || true
	wait $serve_pid 2>/dev/null || true
	trap - EXIT
else
	echo "check.sh: curl not found, skipping serve smoke" >&2
fi

echo "check.sh: all checks passed"
