#!/usr/bin/env python3
"""Runs scripts/check_bench_regression.py on a two-row fixture and checks
its fingerprint verdicts: one row at the full sample count, one at the
--quick count, so both recorded fingerprints are exercised.

Usage: test_bench_gate.py  (exit 0 when every case behaves)
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
GATE = os.path.join(ROOT, "scripts", "check_bench_regression.py")

REFERENCE = {"results": [
    {"name": "full_row", "samples": 160, "samples_quick": 32,
     "us_per_sample": 100.0, "metrics_fnv1a": "0x00000000000000aa",
     "metrics_fnv1a_quick": "0x00000000000000bb"},
    {"name": "quick_row", "fits": 1000, "fits_quick": 120,
     "us_per_fit": 100.0, "metrics_fnv1a": "0x00000000000000cc",
     "metrics_fnv1a_quick": "0x00000000000000dd"},
]}

# Current rows as a full run and a --quick run of an unchanged tree print
# them: the full row at 160 samples, the other at the quick count.
EQUAL = [
    {"name": "full_row", "samples": 160, "us_per_sample": 100.0,
     "metrics_fnv1a": "0x00000000000000aa"},
    {"name": "quick_row", "fits": 120, "us_per_fit": 100.0,
     "metrics_fnv1a": "0x00000000000000dd"},
]


def with_field(rows, index, **fields):
    out = [dict(row) for row in rows]
    out[index].update(fields)
    return out


CASES = [
    ("equal fingerprints pass", EQUAL, 0),
    ("flipped full fingerprint fails",
     with_field(EQUAL, 0, metrics_fnv1a="0x00000000000000ab"), 1),
    ("flipped quick fingerprint fails",
     with_field(EQUAL, 1, metrics_fnv1a="0x00000000000000de"), 1),
    ("the other count's fingerprint fails",
     with_field(EQUAL, 0, metrics_fnv1a="0x00000000000000bb"), 1),
    ("a count with no recorded fingerprint fails",
     with_field(EQUAL, 1, fits=7), 1),
]


def run_case(tmp, rows):
    ref_path = os.path.join(tmp, "reference.json")
    cur_path = os.path.join(tmp, "current.jsonl")
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump(REFERENCE, fh)
    with open(cur_path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(row) + "\n" for row in rows))
    return subprocess.run(
        [sys.executable, GATE, "--reference", ref_path, "--current",
         cur_path], capture_output=True, text=True, check=False)


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, rows, want in CASES:
            proc = run_case(tmp, rows)
            ok = proc.returncode == want
            if ok and want == 1:
                ok = "re-record, and name the reason in CHANGES.md" in (
                    proc.stdout)
            print(f"{'ok  ' if ok else 'FAIL'} {label} "
                  f"(exit {proc.returncode}, want {want})")
            if not ok:
                print(proc.stdout, proc.stderr)
                failures += 1
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
