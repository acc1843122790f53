#!/bin/sh
# bench.sh — run the Figure 11 annotation benchmarks and record ns/op to
# BENCH_annotation.json, next to the pre-optimization baseline (measured on
# the same container at the commit before the parallel annotation engine,
# plan cache and bulk sign updates landed).
#
# Also runs the Figure 10 request path on each relational engine under
# both enforcement modes (XMark f = 0.1) and records every case to
# BENCH_request.json: signs is the engine's default read path, which
# checks the signs in the store with the sign predicate folded into a
# second translation of the query; rewrite checks the matches against the
# rewriting enforcer's decision set over the unannotated store.
#
# The `diff` mode is the perf-regression observatory: it runs the same
# benchmarks, compares each case against the recorded baselines via
# scripts/bench_diff.go, appends a timestamped entry to
# BENCH_trajectory.json, and exits non-zero on a regression beyond the
# threshold. Knobs come from the environment: BENCH_THRESHOLD (default
# 0.25), BENCH_INJECT (scales measurements, for testing the gate),
# BENCH_TRAJECTORY (history file).
#
# The `multiuser` mode runs the policy-cohort scale benchmarks (K distinct
# policies x N subjects; rebuild wall-time, live bytes/user, request p99
# under concurrent load) and records the per-user baseline as "before" and
# the cohort-compressed run as "after" in BENCH_multiuser.json. Set
# BENCH_SHORT=1 to run the -short population (200 users / 10 policies,
# million-subject register skipped) — that is what CI's non-blocking
# multiuser-scale job does.
#
# Usage: scripts/bench.sh [annotation.json] [request.json]
#        scripts/bench.sh multiuser [multiuser.json]
#        scripts/bench.sh diff
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "diff" ]; then
	tmp=$(mktemp)
	trap 'rm -f "$tmp"' EXIT
	go test -bench 'BenchmarkFig11_Annotation(MonetSQL|Postgres)' \
		-benchtime 30x -run '^$' . | tee "$tmp"
	go test -bench 'BenchmarkFig10_Request(MonetSQL|Postgres)' \
		-benchtime 110x -run '^$' . | tee -a "$tmp"
	go test -bench 'BenchmarkMultiUser(Rebuild|Request)' \
		-benchtime 3x -run '^$' . | tee -a "$tmp"
	go run ./scripts \
		-threshold "${BENCH_THRESHOLD:-0.25}" \
		-inject "${BENCH_INJECT:-1}" \
		-trajectory "${BENCH_TRAJECTORY:-BENCH_trajectory.json}" \
		"$tmp"
	exit 0
fi

if [ "${1:-}" = "multiuser" ]; then
	out="${2:-BENCH_multiuser.json}"
	short=""
	[ "${BENCH_SHORT:-}" = "1" ] && short="-short"
	tmp=$(mktemp)
	trap 'rm -f "$tmp"' EXIT
	go test $short -bench 'BenchmarkMultiUserRebuild' \
		-benchtime 3x -run '^$' . | tee "$tmp"
	go test $short -bench 'BenchmarkMultiUser(Memory|Request|Million)' \
		-benchtime 1x -run '^$' . | tee -a "$tmp"
	awk '
	/^BenchmarkMultiUser/ {
		name = $1
		sub(/^BenchmarkMultiUser/, "", name)
		sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
		split(name, parts, "/")     # Kind / peruser|cohort
		kind = parts[1]; variant = parts[2]
		ns[kind, variant] = $3
		# Custom metrics trail ns/op as "value unit" pairs.
		for (i = 4; i < NF; i++) {
			if ($(i+1) == "bytes/user") bytes[kind, variant] = $i
			if ($(i+1) == "p99_ns")     p99[kind, variant] = $i
		}
	}
	END {
		if (!(("Rebuild", "cohort") in ns)) {
			print "bench.sh: no multiuser benchmark output parsed" > "/dev/stderr"
			exit 1
		}
		printf "{\n  \"benchmark\": \"BenchmarkMultiUser{Rebuild,Memory,Request,Million}\",\n"
		printf "  \"unit\": \"ns/op (bytes/user, p99_ns where noted)\",\n  \"cases\": [\n"
		n = 0
		out[n++] = line("Rebuild", ns["Rebuild", "peruser"], ns["Rebuild", "cohort"])
		out[n++] = line("Request", ns["Request", "peruser"], ns["Request", "cohort"])
		out[n++] = line("MemoryBytesPerUser", bytes["Memory", "peruser"], bytes["Memory", "cohort"])
		out[n++] = line("RequestP99", p99["Request", "peruser"], p99["Request", "cohort"])
		# The million-subject register has no peruser side at that scale;
		# its "before" is the 10k-population per-user bytes/user figure.
		if (("Million", "") in bytes)
			out[n++] = line("MillionBytesPerUser", bytes["Memory", "peruser"], bytes["Million", ""])
		for (i = 0; i < n; i++)
			printf "    %s%s\n", out[i], (i < n-1) ? "," : ""
		printf "  ]\n}\n"
	}
	function line(case_, b, a) {
		s = (a > 0 && b > 0) ? b / a : 0
		return sprintf("{\"case\": \"%s\", \"before\": %d, \"after\": %d, \"speedup\": %.2f}", case_, b, a, s)
	}' "$tmp" > "$out"
	echo "bench.sh: wrote $out"
	exit 0
fi

out="${1:-BENCH_annotation.json}"
reqout="${2:-BENCH_request.json}"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -bench 'BenchmarkFig11_Annotation(MonetSQL|Postgres)' \
	-benchtime 30x -run '^$' . | tee "$tmp"

awk '
BEGIN {
	# Pre-optimization baseline, ns/op.
	base["MonetSQL/c1"] = 12184528; base["MonetSQL/c2"] = 23436604
	base["MonetSQL/c3"] = 20475059; base["MonetSQL/c4"] = 30014006
	base["MonetSQL/c5"] = 49963264
	base["Postgres/c1"] = 9916770;  base["Postgres/c2"] = 17208536
	base["Postgres/c3"] = 20336573; base["Postgres/c4"] = 29292425
	base["Postgres/c5"] = 51166004
	n = 0
}
/^BenchmarkFig11_Annotation/ {
	name = $1
	sub(/^BenchmarkFig11_Annotation/, "", name)
	sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
	ns[n] = $3
	key[n] = name
	n++
}
END {
	if (n == 0) { print "bench.sh: no benchmark output parsed" > "/dev/stderr"; exit 1 }
	printf "{\n  \"benchmark\": \"BenchmarkFig11_Annotation{MonetSQL,Postgres}\",\n"
	printf "  \"benchtime\": \"30x\",\n  \"unit\": \"ns/op\",\n  \"cases\": [\n"
	for (i = 0; i < n; i++) {
		b = base[key[i]]
		speedup = (ns[i] > 0 && b > 0) ? b / ns[i] : 0
		printf "    {\"case\": \"%s\", \"before\": %d, \"after\": %d, \"speedup\": %.2f}%s\n",
			key[i], b, ns[i], speedup, (i < n-1) ? "," : ""
	}
	printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "bench.sh: wrote $out"

go test -bench 'BenchmarkFig10_Request(MonetSQL|Postgres)' \
	-benchtime 110x -run '^$' . | tee "$tmp"

awk '
BEGIN { n = 0 }
/^BenchmarkFig10_Request/ {
	name = $1
	sub(/^BenchmarkFig10_Request/, "", name)
	sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
	key[n++] = name             # engine / signs|rewrite
	ns[name] = $3
}
END {
	if (n == 0) { print "bench.sh: no request benchmark output parsed" > "/dev/stderr"; exit 1 }
	printf "{\n  \"benchmark\": \"BenchmarkFig10_Request{MonetSQL,Postgres}/{signs,rewrite}\",\n"
	printf "  \"benchtime\": \"110x\",\n  \"unit\": \"ns/op\",\n  \"cases\": [\n"
	for (i = 0; i < n; i++)
		printf "    {\"case\": \"%s\", \"after\": %d}%s\n", key[i], ns[key[i]], (i < n-1) ? "," : ""
	printf "  ]\n}\n"
}' "$tmp" > "$reqout"

echo "bench.sh: wrote $reqout"
