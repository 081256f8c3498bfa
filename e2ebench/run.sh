#!/usr/bin/env bash
# Builds drevald and the end-to-end suite from source, then runs the
# suite with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload eval_wide --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh -suite -runs 5 -out .bench_build/report.json
#
# Every build artefact and every file a run writes stays under
# .bench_build/ in the repository, and the Go toolchain never reaches
# the network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"

# Without drnet's sources there is nothing to build or measure; fail
# before the Go toolchain starts anything.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/drevald" ]]; then
	echo "e2ebench: $root holds no drnet module (go.mod, cmd/drevald); run from a full checkout" >&2
	exit 2
fi
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
# Telemetry off: otherwise each go command may spawn a detached upload
# process that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/drevald" ./cmd/drevald) >&2
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -drevald "$out/drevald" -workdir "$out/run" "$@"
