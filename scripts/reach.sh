#!/usr/bin/env bash
# Lists the functions of this repository that no workload reaches.
#
# Builds every entry point with coverage on, drives the workloads below,
# and prints each function whose coverage stays at 0%, except the
# diagnostics (Error, String, Unwrap and panic* helpers), and each
# package under internal/ that no entry point links, except the
# dipcvet analyzers under internal/analysis (the lint job runs those).
# The count of both is the last line. Run it from anywhere inside the
# checkout:
#
#	bash scripts/reach.sh
#
# Entry points: the dipcbench command and perfbench, whose functions are
# not counted. The examples are not entry points: code that only an
# example runs counts as unreached. Workloads:
#   - dipcbench: run all, list, bench (plain, -json, -compare
#     BENCH_engine.json and a one-scenario -gate), the CI smokes (run
#     table1 -json and the chaos-kill depth=0 error), the flap-budget
#     error inputs, an unknown scenario, fig6 at full resolution,
#     chaos-retrystorm with jittered backoff and a crosscall chain 40
#     deep, whose 41 domains cycle through the 32-entry APL cache;
#   - each perfbench workload for one second at --trace 0 and for three
#     seconds at --trace 1, so that its pprof cross-check ranks packages
#     from about three times the samples of a one-second run.
# Everything it builds and writes goes to a temporary directory.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir -p "$bin" "$work/cov" "$work/out"
cd "$root"

go build -cover -coverpkg=./... -o "$bin/dipcbench" ./cmd/dipcbench
go -C perfbench build -cover -coverpkg=repro/... -o "$bin/perfbench" .

# Packages no entry point links have no coverage data at all, so they
# are listed from the import graph instead.
{
	go list -deps ./cmd/dipcbench
	go -C perfbench list -deps .
} | sort -u >"$work/out/linked"
go list ./internal/... | grep -v '^repro/internal/analysis\(/\|$\)' | sort |
	comm -23 - "$work/out/linked" |
	awk '{ print $1 "\t(package not linked by any entry point)" }' >"$work/out/unlinked"

export GOCOVERDIR=$work/cov

# expect CODE CMD...: runs CMD, discards its output and fails unless it
# exits with CODE within 60 s. Address space is capped so an input that
# tries to exhaust memory fails here instead of on the host.
expect() {
	local want=$1 got=0
	shift
	(ulimit -v 4000000; timeout 60 "$@") >"$work/out/stdout" 2>"$work/out/stderr" || got=$?
	if [ "$got" -ne "$want" ]; then
		echo "reach: '$*' exited $got, want $want" >&2
		tail -5 "$work/out/stderr" >&2
		exit 1
	fi
}

d=$bin/dipcbench
expect 0 "$d" run all
expect 0 "$d" list
expect 0 "$d" bench
expect 0 "$d" bench -json "$work/out/bench.json"
expect 0 "$d" bench -compare BENCH_engine.json
# With one scenario gated and run, the suite median is that scenario's
# own delta, so host speed cannot trip the gate.
expect 0 "$d" bench -compare BENCH_engine.json -gate crosscall crosscall
expect 0 "$d" run table1 -p bulk=1024 -json "$work/out/scenario.json"
expect 2 "$d" run chaos-kill -p depth=0
for s in chaos-rack failover-flap; do
	expect 2 "$d" run "$s" -p flapperiod=1ps -p window=1ms
	grep -q flapperiod "$work/out/stderr"
done
expect 2 "$d" run nosuch
expect 0 "$d" run fig6 -p full=true
expect 0 "$d" run chaos-retrystorm -p jitter=0.5
expect 0 "$d" run crosscall -p depth=40 -p calls=1000

# perfbench writes its build and profile files under .bench_build in
# the working directory, so run it from inside the temporary directory.
for w in fig8 openloop replicas; do
	(cd "$work" && expect 0 "$bin/perfbench" --workload "$w" --seconds 1 --trace 0)
	(cd "$work" && expect 0 "$bin/perfbench" --workload "$w" --seconds 3 --trace 1)
done

go tool covdata func -i="$work/cov" |
	awk '$NF == "0.0%" && $1 !~ /^repro\/perfbench\// {
		name = $2
		sub(/.*\./, "", name)
		if (name !~ /^(Error|String|Unwrap|panic.*)$/) print $1 "\t" $2
	}' |
	sort | cat - "$work/out/unlinked" >"$work/out/unreached"
cat "$work/out/unreached"
wc -l <"$work/out/unreached"
