#!/bin/sh
# Benchmark the hot packages and write a machine-readable baseline.
#
# Usage: scripts/bench.sh BENCH_PR<N>.json
#
# Runs `go test -bench` over the performance-sensitive packages
# (envelope construction, the order-statistic tree, the dynamic
# single-core scheduler, the LMC online policy, the trace codecs, the
# HTTP service, and the cluster replication planes)
# and converts the results into a JSON array so successive PRs can
# diff ns/op and allocs/op mechanically. BENCHTIME overrides the
# per-benchmark budget (default 0.3s; use e.g. BENCHTIME=2s for a
# lower-variance baseline).
#
# The output path is required and must not exist yet: every
# BENCH_PR<N>.json is the record a later benchdiff compares against, so
# the script refuses to overwrite one and runs nothing in that case.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ] || [ -z "$1" ]; then
    echo "usage: scripts/bench.sh BENCH_PR<N>.json" >&2
    exit 2
fi
OUT=$1
if [ -e "$OUT" ]; then
    echo "bench.sh: $OUT already exists; refusing to overwrite a recorded baseline" >&2
    exit 1
fi
BENCHTIME=${BENCHTIME:-0.3s}
PKGS="./internal/envelope ./internal/rangetree ./internal/dynsched ./internal/online ./internal/obs ./internal/server ./internal/cluster"

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" $PKGS | tee "$TMP"

awk '
BEGIN { print "["; first = 1 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    ns = ""; bpo = ""; apo = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bpo = $(i-1)
        if ($i == "allocs/op") apo = $(i-1)
    }
    if (ns == "") next
    if (!first) printf(",\n")
    first = 0
    printf("  {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", pkg, $1, $2, ns)
    if (bpo != "") printf(", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bpo, apo)
    printf("}")
}
END { print "\n]" }
' "$TMP" > "$OUT"

echo "wrote $OUT"
