#!/usr/bin/env bash
# Writes the stdout of every figure/table bench, every example, a fixed
# set of phantom_cli runs and three phantom_chaos seeds into OUTDIR, one
# file per run, so two builds can be compared with `diff -r`:
#
#   tools/bench_outputs.sh OUTDIR [BUILD_DIR]     # BUILD_DIR defaults to build
#
# Lines that carry host timings are stripped: bench_tab_scale's
# "kernel: ... wall" line and phantom_cli's "perf:" lines. Every file
# ends with the run's exit status. Runs that write files (the examples,
# phantom_cli --csv) do so inside OUTDIR, so those files are compared too.
# bench_micro is left out: it only measures time.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 OUTDIR [BUILD_DIR]" >&2
  exit 2
fi
out=$1
build=${2:-build}
mkdir -p "$out" || exit 2
out=$(cd "$out" && pwd)
build=$(cd "$build" && pwd) || exit 2
unset PHANTOM_TRACE_DIR  # would make the benches dump CSV series

# run NAME FILTER CMD...: CMD's stdout, minus lines matching FILTER (an
# extended regex; empty keeps everything), plus its exit status.
run() {
  local name=$1 filter=$2
  shift 2
  local status
  "$@" > "$out/$name.raw"
  status=$?
  if [ -n "$filter" ]; then
    grep -Ev "$filter" "$out/$name.raw" > "$out/$name.txt"
  else
    cat "$out/$name.raw" > "$out/$name.txt"
  fi
  rm -f "$out/$name.raw"
  echo "exit: $status" >> "$out/$name.txt"
}

for bin in "$build"/bench/bench_fig_* "$build"/bench/bench_tab_*; do
  [ -x "$bin" ] || continue
  run "$(basename "$bin")" '^kernel: .* wall' "$bin"
done

# Examples run in their own directory: observe_basics writes its
# metrics and trace files into the working directory.
mkdir -p "$out/examples"
for name in quickstart atm_parking_lot tcp_selective_discard \
    algorithm_comparison background_traffic observe_basics; do
  (cd "$out/examples" && run "example_$name" '' "$build/examples/$name")
done

# From OUTDIR, so the --csv paths the CLI echoes are the same for any OUTDIR.
cd "$out" || exit 2
cli=$build/examples/phantom_cli
perf='^perf:'
run cli_bottleneck_phantom "$perf" "$cli" --scenario=bottleneck \
  --algorithm=phantom --sessions=4 --duration-ms=400 --seed=3
run cli_parking_eprca "$perf" "$cli" --scenario=parking --algorithm=eprca \
  --sessions=4 --duration-ms=400 --seed=3
run cli_parking_faults "$perf" "$cli" --scenario=parking --duration-ms=600 \
  --fault-plan="outage:trunk0:250:50;restart:trunk0:450" \
  --csv=cli_parking_faults
run cli_bottleneck_leave "$perf" "$cli" --scenario=bottleneck --sessions=3 \
  --duration-ms=600 --fault-plan="leave:1:500" --csv=cli_bottleneck_leave
run cli_tcp_4 "$perf" "$cli" --scenario=tcp --sessions=4 --perf-report
run cli_tcp_5 "$perf" "$cli" --scenario=tcp --sessions=5 --perf-report

for seed in 1 7 42; do
  run "chaos_seed_$seed" '' "$build/examples/phantom_chaos" --seed="$seed"
done
