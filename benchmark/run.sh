#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload, or all
# five in turn when --workload is not given. Each workload runs in a
# process of its own, so peak RSS and the process-global worker pool are
# per workload. Run from the repository root:
#
#   ./benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Every metric is printed by name with its unit; the last line of each
# workload's output is the result object BENCHMARK.json describes.
set -euo pipefail

workloads=(train_compute infer_gather dist_exchange serve_hot serve_cold)
args=()
while (($#)); do
  if [[ $1 == --workload ]]; then
    workloads=("${2:?--workload needs a value}")
    shift 2
  else
    args+=("$1")
    shift
  fi
done

manifest=benchmark/Cargo.toml
[[ -f $manifest ]] || { echo "run from the repository root" >&2; exit 2; }
# Build output goes to stderr so stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/spp-benchmark"

# Pin glibc malloc: by default its mmap threshold adapts to the sizes freed
# so far, and whether the tape's multi-megabyte tensors are recycled from
# the heap or mapped and page-faulted afresh then depends on the seed's
# allocation history. That made dist_exchange bimodal (25 % apart, in time
# and in peak RSS). Fixed thresholds keep freed blocks below 32 MiB in the
# heap on every run.
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824

for w in "${workloads[@]}"; do
  "$bin" --workload "$w" ${args[@]+"${args[@]}"}
done
