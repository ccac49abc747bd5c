#!/usr/bin/env bash
# Builds chainaudit's reproduce and chainauditd binaries and the benchmark
# harness from source into .bench_build, then runs the harness with the
# arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload live-ingest --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --short
#   bash perfbench/run.sh steady -out results.jsonl
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Compiling is not timed. The Go build cache and temporary files stay under
# .bench_build, so nothing outside the checkout is written.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomod" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local
go build -o "$out/" ./cmd/reproduce ./cmd/chainauditd >&2
(cd perfbench && go build -o "../$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
