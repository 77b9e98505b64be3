#!/usr/bin/env bash
# Writes the stdout of every paper-world binary of one build tree into one
# file per binary, so two builds compare with `diff -r`:
#
#   tools/bench_stdout.sh BUILD_DIR OUT_DIR
#
# Runs every executable in BUILD_DIR/bench, examples/ap_survey,
# examples/commute_comparison, examples/offload_planner (the optimizer's
# one-channel path), examples/quickstart and
# `examples/spider_cli --duration=60`, each with SPIDER_BENCH_THREADS=1 (one
# sweep worker, so output order is fixed), three binaries at a time. OUT_DIR
# gets <binary>.txt per binary. fig9_microbench (stock world traced first,
# Spider worlds after) and table1_switch_latency (Spider traced first) run
# a second time with `--stream OUT_DIR/<binary>.stream.jsonl --trace`, so the
# comparison also covers every driver.* counter, histogram and join span.
# Exits 1 if any binary fails, naming it on stderr. Compare two trees built
# with the same build type:
#
#   tools/bench_stdout.sh ../parent/build /tmp/out-parent
#   tools/bench_stdout.sh build /tmp/out-change
#   diff -r /tmp/out-parent /tmp/out-change     # prints nothing if equal
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
out=$2
mkdir -p "$out"
out=$(cd "$out" && pwd)

binaries=()
for b in "$build"/bench/* "$build/examples/ap_survey" \
         "$build/examples/commute_comparison" \
         "$build/examples/offload_planner" "$build/examples/quickstart" \
         "$build/examples/spider_cli"; do
  [[ -f "$b" && -x "$b" ]] && binaries+=("$b")
done
if [[ ${#binaries[@]} -eq 0 ]]; then
  echo "$0: no bench or example binaries under $build" >&2
  exit 1
fi

run_one() {
  local b=$1 out=$2 args=()
  [[ $(basename "$b") == spider_cli ]] && args=(--duration=60)
  local name
  name=$(basename "$b")
  if ! SPIDER_BENCH_THREADS=1 "$b" "${args[@]}" > "$out/$name.txt"; then
    echo "failed: $b" >&2
    return 1
  fi
  case $name in
    fig9_microbench | table1_switch_latency)
      if ! SPIDER_BENCH_THREADS=1 "$b" --stream "$out/$name.stream.jsonl" \
             --trace > /dev/null; then
        echo "failed: $b --stream --trace" >&2
        return 1
      fi
      ;;
  esac
}
export -f run_one

printf '%s\n' "${binaries[@]}" |
  xargs -P3 -I{} bash -c 'run_one "$1" "$2"' _ {} "$out" || exit 1
