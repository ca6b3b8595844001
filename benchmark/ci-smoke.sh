#!/usr/bin/env bash
# Smoke-scale gate, meant for CI (a later issue wires it into the workflow):
# the package's own tests, then two smoke-scale runs of every workload and a
# compare between them. Smoke runs are a hundredth of the size and far
# noisier, so the bounds are widened three times here and only here.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

(cd "$here" && go vet . && go test -count=1 .)
bash "$here/bench.sh" run -scale smoke -seconds 2 -runs 5 -out "$out/smoke-a.json"
bash "$here/bench.sh" run -scale smoke -seconds 2 -runs 5 -out "$out/smoke-b.json"
bash "$here/bench.sh" compare -bounds-x 3 "$out/smoke-a.json" "$out/smoke-b.json"
