#!/usr/bin/env bash
# Tier-1 verification gate: build, vet, full test suite (which includes
# the differential, fuzz-seed-corpus and golden tiers — see
# docs/testing.md), the race detector over the packages that exercise
# concurrency (campaign/distsim pools, the striped look-up counting of
# concurrent syndrome views, Diagnose-during-Rebind churn, graph
# probes, the serve coalescer and its observability pollers), and the
# perf-trajectory gate: every committed
# BENCH_<n>.json — BENCH_27 being the latest — must not regress
# lookups/op on any case shared with its predecessor, nor start
# allocating on a case its predecessor ran at 0 allocs/op (both are
# deterministic; ns/op and bytes/op are reported but not gated).
set -euo pipefail
cd "$(dirname "$0")"

go build ./...
go vet ./...
go test ./...
go test -race ./internal/core/ ./internal/campaign/ ./internal/distsim/ ./internal/graph/ ./internal/serve/ ./internal/syndrome/

prev=""
for f in $(ls BENCH_*.json 2>/dev/null | sort -V); do
  if [ -n "$prev" ]; then
    go run ./cmd/benchtab -compare "$prev" "$f"
  fi
  prev="$f"
done
