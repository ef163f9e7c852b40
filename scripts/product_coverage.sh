#!/usr/bin/env bash
# Line coverage of the library (src/*.cpp) under the product flows.
#
# Usage: scripts/product_coverage.sh BUILD_DIR
#
# Configures a --coverage Debug build in BUILD_DIR, builds only the bench_*
# and example_* targets, and runs the flows a user of the library runs:
#   * every example smoke and paper smoke (ctest -L 'example_smoke|paper');
#   * the transient paper benches (Figs. 5-9, Tables III and IV) at
#     VSSTAT_MC_SCALE=0.05;
#   * the five gated perf benches with --quick;
#   * bench_micro_model_eval, when google-benchmark is installed.
# It then prints line coverage of src/*.cpp per file and in total, and
# lists the vsstat:: functions the flows never entered, on stdout; build
# and flow logs go to stderr.
#
# The exit status reports only whether the build and every flow succeeded;
# the coverage figures are a report, never a gate.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$1"
jobs="$(nproc)"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
build="$(cd "$build" && pwd)"
# Makefile generators list targets as "... name", Ninja as "name: phony".
targets="$(cmake --build "$build" --target help |
  sed -n 's/^\(\.\.\. \)\{0,1\}\(\(bench\|example\)_[A-Za-z0-9_]*\).*/\2/p' |
  sort -u)"
# shellcheck disable=SC2086  # one word per target
cmake --build "$build" -j "$jobs" --target $targets >&2

# Counters accumulate across runs: start every report from zero.
find "$build" -name '*.gcda' -delete

cd "$build"
ctest -L 'example_smoke|paper' -j "$jobs" --output-on-failure >&2
for bench in fig5_inv_delay_pdf fig6_leakage_freq fig7_nand2_vdd \
             fig8_dff_setup fig9_sram_snm table3_mc_sigma table4_runtime; do
  VSSTAT_MC_SCALE=0.05 "./bench_$bench" >/dev/null
done
for bench in campaign newton_hotpath device_bank extract server; do
  "./bench_$bench" --quick >/dev/null
done
if [[ -x ./bench_micro_model_eval ]]; then
  ./bench_micro_model_eval --benchmark_min_time=0.01 >/dev/null
fi

objects="$build/CMakeFiles/vsstat.dir"
python3 - "$root/src" "$objects" <<'EOF'
import glob
import json
import os
import subprocess
import sys

src, objects = sys.argv[1], sys.argv[2]
lines = {}      # file -> {line: hit}
functions = {}  # (file, start line, end line, name)
for gcno in sorted(glob.glob(os.path.join(objects, "**", "*.gcno"),
                             recursive=True)):
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names",
         "--object-directory", os.path.dirname(gcno), gcno],
        check=True, capture_output=True, text=True, cwd=objects).stdout
    for record in out.splitlines():
        if not record.startswith("{"):
            continue
        for f in json.loads(record)["files"]:
            path = os.path.realpath(f["file"])
            if not (path.startswith(src + os.sep) and path.endswith(".cpp")):
                continue
            rel = os.path.relpath(path, os.path.dirname(src))
            hits = lines.setdefault(rel, {})
            for ln in f["lines"]:
                n = ln["line_number"]
                hits[n] = hits.get(n, False) or ln["count"] > 0
            for fn in f["functions"]:
                name = fn["demangled_name"]
                if name.startswith("vsstat::"):
                    functions[(rel, fn["start_line"], fn["end_line"],
                               name)] = True

total = covered = 0
print(f"{'file':<40} {'lines':>6} {'hit':>6} {'cover':>7}")
for rel in sorted(lines):
    n = len(lines[rel])
    h = sum(lines[rel].values())
    total += n
    covered += h
    print(f"{rel:<40} {n:>6} {h:>6} {100.0 * h / max(n, 1):>6.1f}%")
print(f"{'TOTAL':<40} {total:>6} {covered:>6} "
      f"{100.0 * covered / max(total, 1):>6.1f}%")
# A function counts as reached when any line of its body ran, so the
# report does not depend on whether the compiler inlined it.
print("\nvsstat:: functions at 0%:")
for rel, first, last, name in sorted(functions):
    if not any(hit for n, hit in lines[rel].items() if first <= n <= last):
        print(f"  {rel}:{first}  {name}")
EOF
