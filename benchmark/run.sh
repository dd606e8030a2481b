#!/usr/bin/env bash
# Builds the benchmark and the cmd/ffcd it drives from the sources of this
# checkout, then runs the benchmark with the arguments given. Everything the
# build writes — binaries, Go's build cache, its temporary files — goes to
# .bench_build/ at the root of the checkout, so nothing outside the checkout
# is touched and a second run rebuilds nothing.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local
# The build says nothing on standard output: the result line must stay last.
(cd "$here" && go build -o "$out/ffc-benchmark" .) >&2
(cd "$root" && go build -o "$out/ffcd" ./cmd/ffcd) >&2
cd "$root"
exec "$out/ffc-benchmark" -ffcd "$out/ffcd" -dir "$here" "$@"
