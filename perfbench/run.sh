#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload table1 --seed 2018 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/core here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export TMPDIR=$out/tmp
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
