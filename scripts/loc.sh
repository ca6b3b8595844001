#!/usr/bin/env bash
# Prints the number of non-test Go lines outside benchmark/: every *.go file
# under the repository root that is not a *_test.go file, benchmark/ (a
# nested module) left out. Run it from anywhere: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find . -path ./benchmark -prune -o -path ./.git -prune -o \
  -name '*.go' ! -name '*_test.go' -type f -print0 |
  xargs -0 cat | wc -l | tr -d ' '
