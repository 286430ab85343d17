#!/usr/bin/env bash
# Checks that the fast path of (*Thread).Exec stays inlined: the running
# guard (*Thread).mustBeRunning and the clock check sim.(*Proc).Advance
# must both be inlined into Exec's body, as the compiler reports them
# with go build -gcflags=-m. A slice that nothing precedes then advances
# the clock without a call; an edit that pushes either function over
# the inlining budget fails here instead of showing up only as a slower
# benchmark. Run it from anywhere inside the checkout:
#
#	bash scripts/inline.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
src=internal/kernel/thread.go

# Exec's body: from its func line to the first closing brace in column 1.
read -r first last < <(awk '
	/^func \(t \*Thread\) Exec\(/ { start = NR }
	start && !end && /^}/ { end = NR }
	END { print start, end }' "$src")
if [ -z "$first" ] || [ -z "$last" ]; then
	echo "inline: (*Thread).Exec not found in $src" >&2
	exit 1
fi

report=$(go build -gcflags=repro/internal/kernel=-m ./internal/kernel 2>&1)
status=0
for callee in '(*Thread).mustBeRunning' 'sim.(*Proc).Advance'; do
	if ! awk -F: -v f="$src" -v a="$first" -v b="$last" -v c="inlining call to $callee" '
		$1 == f && $2 >= a && $2 <= b && index($0, c) { found = 1 }
		END { exit !found }' <<<"$report"; then
		echo "inline: $callee is not inlined into (*Thread).Exec ($src:$first-$last)" >&2
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "inline: (*Thread).mustBeRunning and sim.(*Proc).Advance are inlined into (*Thread).Exec"
fi
exit "$status"
