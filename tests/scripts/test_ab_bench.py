#!/usr/bin/env python3
"""Checks scripts/ab_bench.py's pairing statistics on fixture JSONL rows:
row parsing, the median change/base ratio, pair wins and each side's
interquartile range.  Builds and runs nothing.

Usage: test_ab_bench.py  (exit 0 when every case behaves)
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = importlib.util.spec_from_file_location(
    "ab_bench", os.path.join(ROOT, "scripts", "ab_bench.py"))
ab_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_bench)

# What a bench prints: a header line, JSONL rows (one without
# us_per_sample), and a trailing note.
STDOUT = """bench header, not a row
{"name": "fast_row", "samples": 12, "us_per_sample": 100.0}
{"name": "ladder_row", "fresh_factor_us": 5.0}
{"name": "slow_row", "samples": 12, "us_per_sample": 2000.0}
note: done
"""

# Five pairs.  fast_row: the change takes 80 % of the base's time in four
# pairs and loses the fifth; slow_row is missing from the change's third
# run, so it counts in four pairs only.
BASE = [{"fast_row": 100.0, "slow_row": 2000.0},
        {"fast_row": 110.0, "slow_row": 2100.0},
        {"fast_row": 90.0, "slow_row": 1900.0},
        {"fast_row": 100.0, "slow_row": 2000.0},
        {"fast_row": 120.0, "slow_row": 2200.0}]
CHANGE = [{"fast_row": 80.0, "slow_row": 2000.0},
          {"fast_row": 88.0, "slow_row": 2310.0},
          {"fast_row": 72.0},
          {"fast_row": 80.0, "slow_row": 1800.0},
          {"fast_row": 130.0, "slow_row": 2200.0}]


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def main():
    failures = []

    def check(what, ok):
        if not ok:
            failures.append(what)

    rows = ab_bench.parse_rows(STDOUT)
    check("parses the rows with us_per_sample only",
          rows == {"fast_row": 100.0, "slow_row": 2000.0})

    stats = ab_bench.pair_stats(BASE, CHANGE)
    check("one entry per row", sorted(stats) == ["fast_row", "slow_row"])
    fast = stats["fast_row"]
    check("fast_row pairs", fast["pairs"] == 5)
    # Ratios 0.8, 0.8, 0.8, 0.8, 130/120: the median is 0.8.
    check("fast_row median ratio", close(fast["median_ratio"], 0.8))
    check("fast_row wins", fast["wins"] == 4)
    # Base 90, 100, 100, 110, 120: quartiles 100 and 110.
    check("fast_row base median", close(fast["base_median"], 100.0))
    check("fast_row base IQR", close(fast["base_iqr"], 10.0))
    # Change 72, 80, 80, 88, 130: quartiles 80 and 88.
    check("fast_row change median", close(fast["change_median"], 80.0))
    check("fast_row change IQR", close(fast["change_iqr"], 8.0))

    slow = stats["slow_row"]
    check("slow_row skips the pair without it", slow["pairs"] == 4)
    # Ratios 1.0, 1.1, 0.9, 1.0: the median is 1.0; one win (1800).
    check("slow_row median ratio", close(slow["median_ratio"], 1.0))
    check("slow_row wins", slow["wins"] == 1)
    # Base 2000, 2100, 2000, 2200 -> sorted 2000, 2000, 2100, 2200:
    # inclusive quartiles 2000 and 2125.
    check("slow_row base IQR", close(slow["base_iqr"], 125.0))

    single = ab_bench.pair_stats([{"r": 10.0}], [{"r": 5.0}])["r"]
    check("one pair: ratio, win, zero IQR",
          close(single["median_ratio"], 0.5) and single["wins"] == 1
          and single["base_iqr"] == 0.0 and single["change_iqr"] == 0.0)

    table = ab_bench.format_table(stats)
    check("table lists both rows",
          "fast_row" in table and "slow_row" in table and "4/5" in table)

    for what in failures:
        print("FAIL: " + what)
    print("%d checks failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
