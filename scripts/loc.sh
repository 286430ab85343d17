#!/usr/bin/env bash
# Prints the number of lines of non-test Go in this repository: every
# *.go file git tracks, or would track because no .gitignore rule hides
# it, except *_test.go files and the frozen perfbench/ module. Roadmap
# items that must not grow the code read their line target from it.
# Run it from anywhere inside the checkout; paths, relative to the
# checkout's root, limit the count to the files under them:
#
#	bash scripts/loc.sh
#	bash scripts/loc.sh internal/sim
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
git ls-files --cached --others --exclude-standard -- "${@:-.}" |
	while IFS= read -r f; do
		# A file deleted from the work tree but still in the index is gone.
		if [[ $f == *.go && $f != *_test.go && $f != perfbench/* && -f $f ]]; then
			cat -- "$f"
		fi
	done | wc -l
