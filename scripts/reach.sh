#!/usr/bin/env bash
# Lists the functions of this repository that no workload reaches.
#
# Builds every entry point with coverage on, drives the workloads below,
# and prints each function whose coverage stays at 0%, except the
# diagnostics (Error, String, Unwrap and panic* helpers), then their
# count on the last line. Run it from anywhere inside the checkout:
#
#	bash scripts/reach.sh
#
# Entry points: the dipcbench, oltp and netpipe commands, the five
# examples and perfbench, whose functions are not counted. Workloads:
#   - dipcbench: run all, list, bench (plain, -json and
#     -compare BENCH_engine.json), the CI smokes (run table1 -json and
#     the chaos-kill depth=0 error), and the flap-budget error inputs;
#   - oltp: each mode, on disk and in memory; netpipe: each variant;
#   - each example with its defaults;
#   - each perfbench workload for one second at --trace 0 and --trace 1.
# Everything it builds and writes goes to a temporary directory.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir -p "$bin" "$work/cov" "$work/out"
cd "$root"

for c in cmd/dipcbench cmd/oltp cmd/netpipe \
	examples/driver examples/plugin examples/quickstart examples/timeout examples/webstack; do
	go build -cover -coverpkg=./... -o "$bin/${c##*/}" "./$c"
done
go -C perfbench build -cover -coverpkg=repro/... -o "$bin/perfbench" .

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
expect 0 "$d" run table1 -p bulk=1024 -json "$work/out/scenario.json"
expect 2 "$d" run chaos-kill -p depth=0
for s in chaos-rack failover-flap; do
	expect 2 "$d" run "$s" -p flapperiod=1ps -p window=1ms
	grep -q flapperiod "$work/out/stderr"
done

for m in linux dipc ideal; do
	expect 0 "$bin/oltp" -mode "$m" -threads 8 -window 20
	expect 0 "$bin/oltp" -mode "$m" -threads 8 -window 20 -inmem
done
for v in bare dipc dipcproc kernel sem pipe; do
	expect 0 "$bin/netpipe" -variant "$v" -maxpow 4 -rounds 10
done
for e in driver plugin quickstart timeout webstack; do
	expect 0 "$bin/$e"
done

# perfbench writes its build and profile files under .bench_build in
# the working directory, so run it from inside the temporary directory.
for w in fig8 openloop replicas; do
	for t in 0 1; do
		(cd "$work" && expect 0 "$bin/perfbench" --workload "$w" --seconds 1 --trace "$t")
	done
done

go tool covdata func -i="$work/cov" |
	awk '$NF == "0.0%" && $1 !~ /^repro\/perfbench\// {
		name = $2
		sub(/.*\./, "", name)
		if (name !~ /^(Error|String|Unwrap|panic.*)$/) print $1 "\t" $2
	}' |
	sort >"$work/out/unreached"
cat "$work/out/unreached"
wc -l <"$work/out/unreached"
