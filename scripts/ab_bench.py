#!/usr/bin/env python3
"""A/B timing of one bench binary: the working tree against a base revision.

    scripts/ab_bench.py --base REV --bench NAME --pairs N [--quick]

Builds the bench target NAME twice: from the working tree into build/
(configured Release if it is not yet), and from REV, exported with
`git archive` into a temporary directory that is deleted afterwards.
It then runs the two binaries in N pairs, each pair once per side in
alternating order (base first in even pairs, change first in odd ones),
every run pinned to one CPU (--cpu, default the first this process may
use) and started in a scratch directory, so the CSVs the benches write
land there.

Every JSONL row ({"name": ..., "us_per_sample": ...}) both sides print is
compared pair by pair.  For each row the table gives the median of the
change/base ratio of us_per_sample, the pairs the change won (ran
faster), and each side's median and interquartile range.  A ratio below
1.0 means the change is faster.  Rows without us_per_sample are skipped.

Stdlib only.  Exit 0 on success, 1 on a failed build or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "us_per_sample"


def parse_rows(text):
    """{row name: us_per_sample} of the JSONL rows in a bench's stdout."""
    rows = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict) and "name" in row and METRIC in row:
            rows[row["name"]] = float(row[METRIC])
    return rows


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_stats(base_runs, change_runs):
    """Per-row statistics of paired runs.

    base_runs and change_runs hold one {row: us_per_sample} dict per pair,
    in pair order.  A row counts only in the pairs where both sides
    printed it.  Returns {row: {"pairs", "median_ratio", "wins",
    "base_median", "base_iqr", "change_median", "change_iqr"}}, where a
    win is a pair whose change ran faster than its base.
    """
    names = []
    for runs in (base_runs, change_runs):
        for run in runs:
            for name in run:
                if name not in names:
                    names.append(name)
    out = {}
    for name in names:
        base, change = [], []
        for b, c in zip(base_runs, change_runs):
            if name in b and name in c:
                base.append(b[name])
                change.append(c[name])
        if not base:
            continue
        ratios = [c / b for b, c in zip(base, change)]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        out[name] = {
            "pairs": len(base),
            "median_ratio": statistics.median(ratios),
            "wins": sum(1 for b, c in zip(base, change) if c < b),
            "base_median": bmed,
            "base_iqr": bq3 - bq1,
            "change_median": cmed,
            "change_iqr": cq3 - cq1,
        }
    return out


def format_table(stats):
    header = ("row", "ratio", "wins", "base us", "base IQR", "change us",
              "change IQR")
    lines = [header]
    for name, s in stats.items():
        lines.append((name, "%.3f" % s["median_ratio"],
                      "%d/%d" % (s["wins"], s["pairs"]),
                      "%.1f" % s["base_median"], "%.1f" % s["base_iqr"],
                      "%.1f" % s["change_median"], "%.1f" % s["change_iqr"]))
    widths = [max(len(line[k]) for line in lines) for k in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     .rstrip() for line in lines)


def build(source, build_dir, target, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j",
                    str(jobs)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def run_pinned(binary, args, cpu, cwd):
    result = subprocess.run(
        [binary] + args, cwd=cwd, check=True, stdout=subprocess.PIPE,
        text=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return parse_rows(result.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--bench", required=True, help="bench target name")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick to both binaries")
    parser.add_argument("--cpu", type=int,
                        default=min(os.sched_getaffinity(0)),
                        help="CPU every run is pinned to")
    args = parser.parse_args()
    jobs = min(4, os.cpu_count() or 1)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = tempfile.mkdtemp(prefix="ab_bench_")
    try:
        base_src = os.path.join(scratch, "base")
        os.makedirs(base_src)
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", args.base], check=True,
            stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_src], input=archive.stdout,
                       check=True)
        base_bin = build(base_src, os.path.join(scratch, "base-build"),
                         args.bench, jobs)
        change_bin = build(ROOT, os.path.join(ROOT, "build"), args.bench,
                           jobs)

        bench_args = ["--quick"] if args.quick else []
        runs_dir = os.path.join(scratch, "runs")
        os.makedirs(runs_dir)
        base_runs, change_runs = [], []
        for pair in range(args.pairs):
            order = [("base", base_bin), ("change", change_bin)]
            if pair % 2:
                order.reverse()
            for side, binary in order:
                rows = run_pinned(binary, bench_args, args.cpu, runs_dir)
                (base_runs if side == "base" else change_runs).append(rows)
            print("pair %d/%d done" % (pair + 1, args.pairs), file=sys.stderr)
    except subprocess.CalledProcessError as err:
        print("ab_bench.py: command failed: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("%s %s: change = working tree, base = %s, %d pairs on CPU %d"
          % (args.bench, "--quick" if args.quick else "(full)", args.base,
             args.pairs, args.cpu))
    print(format_table(pair_stats(base_runs, change_runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
