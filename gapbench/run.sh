#!/usr/bin/env bash
# Build gapbench, then run one workload or all four.
#
#   bash gapbench/run.sh --workload <name> --seed <n> --seconds <s> [--trace <0|1>]
#   bash gapbench/run.sh --seed <n> --seconds <s> [--trace <0|1>]
#
# The first form prints the workload's metrics, one "name value unit" line
# each, and a JSON summary as its last line.  The second runs gap-suite,
# serve-hot, serve-cold and serve-mixed in turn.  Either exits non-zero if
# a correctness check fails.  The build goes to .bench_build/gapbench in
# the checkout that holds this script; build output goes to stderr.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build/gapbench"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja > /dev/null; then
        generator=(-G Ninja)
    fi
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2 || { rm -rf "$build"; exit 3; }
fi
cmake --build "$build" --target gapbench -j 4 >&2 || exit 3

for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$build/gapbench" "$@"
    fi
done

status=0
for workload in gap-suite serve-hot serve-cold serve-mixed; do
    "$build/gapbench" --workload "$workload" "$@" || status=1
done
exit $status
