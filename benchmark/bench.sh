#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness into
# <checkout>/.bench_build and runs it with the arguments given: the driver's
# --workload form, or run, trace or compare. The harness builds the server it
# drives with the same environment. Go's build cache sits in .bench_build
# too, so nothing is written outside the checkout and a build whose inputs
# did not change costs a cache look-up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gsketch-serve" ]; then
	echo "bench.sh: $root is not the gsketch repository; there is no program to measure" >&2
	exit 2
fi

mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its telemetry counters there
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/gsketch-benchmark" .) >&2

case "${1:-}" in
compare)
	exec "$build/gsketch-benchmark" "$@"
	;;
run | trace)
	sub="$1"
	shift
	exec "$build/gsketch-benchmark" "$sub" -root "$root" "$@"
	;;
*)
	exec "$build/gsketch-benchmark" -root "$root" "$@"
	;;
esac
