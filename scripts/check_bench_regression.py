#!/usr/bin/env python3
"""CI bench-regression gate: quick-bench JSONL vs a committed BENCH_*.json.

Each current row (one JSON object per line, as every bench_* binary prints)
is matched by "name" against the committed reference and judged per metric:

  * throughput metrics -- samples_per_sec, speedup_vs_* (higher-better) and
    us_per_sample, ns_per_iter, ns_per_device_eval (lower-better) -- fail
    when they regress by more than the tolerance band (default 25%,
    --tolerance).  Reference rows may widen a band for a specific metric
    with "ci_tol_<metric>": 0.6 (used for absolute-time metrics, which
    carry machine-to-machine variance that ratio metrics do not) or narrow
    it ("ci_tol_fill_ratio": 0.05 -- fill is deterministic, so a tight
    band is a real bound).
  * correctness booleans -- bit_identical, within_tolerance -- must stay
    true wherever the reference says true, tolerance-free.
  * allocation metrics -- allocs, allocs_per_sample -- must not exceed the
    reference by more than --alloc-slack (default 0.5/sample; campaign
    bookkeeping amortizes differently at --quick sample counts, so
    reference rows may override the ceiling with "ci_max_<metric>": N).
  * contract ceilings -- estimator_max_sigma_delta, ordering_vs_factor --
    must stay below a fixed bound (3 sigma, 1.0; "ci_max_<metric>"
    overrides), so the statistical tier's accuracy contract and the
    ordering's cost relative to the factor it prepares gate independently
    of the throughput bands.
  * fingerprints -- metrics_fnv1a must equal the reference exactly on
    every row that records one.  Quick and full runs hash different sample
    counts, so a row records the full run's fingerprint beside its
    "samples" (or "fits") and the --quick run's as "metrics_fnv1a_quick"
    beside "samples_quick" (or "fits_quick"); the gate compares whichever
    matches the current row's count.  A mismatch, or a count with no
    recorded fingerprint, fails: re-record, and name the reason in
    CHANGES.md.
  * "ci_skip": ["metric", ...] in a reference row skips named metrics.

Every reference row must be present in the current output (a vanished row
means the bench silently lost coverage); current rows without a reference
are reported but pass.  A side-by-side table goes to stdout and, when
--summary is given (point it at $GITHUB_STEP_SUMMARY), as Markdown into
the job summary.  Exit 1 on any failure, 2 on usage errors.

Stdlib only -- no pip installs on the runner.
"""

import argparse
import json
import sys

LOWER_BETTER = ("us_per_sample", "ns_per_iter", "ns_per_device_eval",
                "fresh_factor_us", "mean_iters_per_sample", "us_per_fit",
                "mean_lm_iters_per_fit", "ttfs_ms", "p99_ttfs_ms",
                "fill_ratio")
HIGHER_BETTER = (
    "samples_per_sec",
    "fits_per_sec",
    "speedup_vs_scalar",
    "speedup_vs_banked",
    "speedup_vs_session",
    "speedup_vs_fresh",
    "speedup_vs_norescue",
    "speedup_vs_dense_lu",
    "speedup_vs_per_sample",
    "warm_start_hit_rate",
    "converged_fraction",
    "requests_per_sec",
    "warm_vs_cold_ttfs",
)
BOOL_MUST_HOLD = ("bit_identical", "within_tolerance",
                  "within_sigma_contract")
ALLOC_METRICS = ("allocs", "allocs_per_sample", "allocs_per_factor",
                 "allocs_per_fit")
# Hard contract ceilings: fail when the current value exceeds the bound
# (overridable per row with "ci_max_<metric>").  estimator_max_sigma_delta
# is the statistical tier's accuracy contract -- the worst estimator shift
# in units of its Monte Carlo standard error must stay within 3 sigma
# regardless of how the throughput rows move.  The card-parameter error
# caps are the extraction tier's recovery contract: fitted cards must land
# near their per-lane truth regardless of fit throughput.  ordering_vs_factor
# (fill-reducing ordering time / fresh factor time on a grid-ladder rung)
# keeps the once-per-pattern ordering cheaper than the factor it prepares;
# reference rows opt in by recording it.
BOUNDED_METRICS = {"estimator_max_sigma_delta": 3.0,
                   "mean_card_param_rel_error": 0.05,
                   "max_card_param_rel_error": 0.25,
                   "ordering_vs_factor": 1.0}


FINGERPRINT = "metrics_fnv1a"
COUNT_KEYS = ("samples", "fits")
RERECORD = "re-record, and name the reason in CHANGES.md"


def reference_fingerprint(ref, cur):
    """(count text, fingerprint) the reference recorded at the current
    row's sample count; the fingerprint is None when it recorded none."""
    for key in COUNT_KEYS:
        if key not in ref:
            continue
        count = cur.get(key)
        if count == ref[key]:
            return f"{key} {count}", ref.get(FINGERPRINT)
        if f"{key}_quick" in ref and count == ref[f"{key}_quick"]:
            return f"{key} {count}", ref.get(f"{FINGERPRINT}_quick")
        return f"{key} {count}", None
    return "-", ref.get(FINGERPRINT)


def load_reference(path):
    """Committed BENCH_*.json: either {"results": [...]} or raw JSONL."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "results" in doc:
            return doc["results"]
        if isinstance(doc, list):
            return doc
        if isinstance(doc, dict):
            return [doc]
    except json.JSONDecodeError:
        pass
    return load_jsonl_text(text, path)


def load_jsonl_text(text, path):
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as err:
            sys.exit(f"error: {path}:{lineno}: not JSON ({err})")
    return rows


def load_current(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_jsonl_text(fh.read(), path)


def fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def check_row(ref, cur, tolerance, alloc_slack):
    """Yields (metric, ref_value, cur_value, delta_text, ok, rule_text)."""
    skip = set(ref.get("ci_skip", []))

    for metric in BOOL_MUST_HOLD:
        if metric in skip or metric not in ref or metric not in cur:
            continue
        if ref[metric] is True:
            ok = cur[metric] is True
            yield metric, True, cur[metric], "-", ok, "must stay true"

    for metric in LOWER_BETTER + HIGHER_BETTER:
        if metric in skip or metric not in ref or metric not in cur:
            continue
        band = float(ref.get(f"ci_tol_{metric}", tolerance))
        r, c = float(ref[metric]), float(cur[metric])
        if r <= 0:
            continue
        delta = (c - r) / r
        if metric in LOWER_BETTER:
            ok = c <= r * (1.0 + band)
            rule = f"<= ref +{band:.0%}"
        else:
            ok = c >= r * (1.0 - band)
            rule = f">= ref -{band:.0%}"
        yield metric, r, c, f"{delta:+.1%}", ok, rule

    for metric in ALLOC_METRICS:
        if metric in skip or metric not in ref or metric not in cur:
            continue
        ceiling = float(ref.get(f"ci_max_{metric}", float(ref[metric]) + alloc_slack))
        c = float(cur[metric])
        ok = c <= ceiling
        yield metric, float(ref[metric]), c, f"cap {ceiling:.2f}", ok, "no new allocations"

    for metric, default_cap in BOUNDED_METRICS.items():
        if metric in skip or metric not in ref or metric not in cur:
            continue
        ceiling = float(ref.get(f"ci_max_{metric}", default_cap))
        c = float(cur[metric])
        ok = c <= ceiling
        yield metric, float(ref[metric]), c, f"cap {ceiling:.2f}", ok, "contract ceiling"

    if FINGERPRINT not in skip and (FINGERPRINT in ref or
                                    f"{FINGERPRINT}_quick" in ref):
        count, expected = reference_fingerprint(ref, cur)
        c = cur.get(FINGERPRINT, "missing")
        if expected is None:
            yield (FINGERPRINT, "none", c, count, False,
                   f"no fingerprint recorded at this count: {RERECORD}")
        else:
            yield (FINGERPRINT, expected, c, count, c == expected,
                   f"fingerprint changed: {RERECORD}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative throughput band (default 0.25)")
    parser.add_argument("--alloc-slack", type=float, default=0.5,
                        help="allowed allocs/sample increase (default 0.5)")
    parser.add_argument("--summary", default=None,
                        help="file to append the Markdown table to "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--title", default=None)
    args = parser.parse_args()

    reference = {row["name"]: row for row in load_reference(args.reference)}
    current = {row["name"]: row for row in load_current(args.current)}
    if not reference:
        sys.exit(f"error: no reference rows in {args.reference}")
    if not current:
        sys.exit(f"error: no current rows in {args.current}")

    title = args.title or args.reference
    lines = []  # (name, metric, ref, cur, delta, status, rule)
    failures = 0

    for name, ref in reference.items():
        cur = current.get(name)
        if cur is None:
            lines.append((name, "(row)", "present", "MISSING", "-", False,
                          "reference rows must not vanish"))
            failures += 1
            continue
        for metric, r, c, delta, ok, rule in check_row(
                ref, cur, args.tolerance, args.alloc_slack):
            lines.append((name, metric, fmt(r), fmt(c), delta, ok, rule))
            if not ok:
                failures += 1

    extra = sorted(set(current) - set(reference))
    for name in extra:
        lines.append((name, "(row)", "-", "new", "-", True,
                      "no reference yet"))

    print(f"bench regression check: {title}")
    for name, metric, r, c, delta, ok, rule in lines:
        status = "ok" if ok else f"FAIL ({rule})"
        print(f"  {name:<28} {metric:<22} ref {r:>10}  cur {c:>10}  "
              f"{delta:>8}  {status}")
    verdict = (f"{failures} regression(s) beyond tolerance" if failures
               else "all rows within tolerance")
    print(f"  -> {verdict}")

    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(f"### Bench regression: {title}\n\n")
            fh.write("| row | metric | reference | current | delta | status |\n")
            fh.write("|---|---|---|---|---|---|\n")
            for name, metric, r, c, delta, ok, rule in lines:
                status = "✅" if ok else f"❌ {rule}"
                fh.write(f"| {name} | {metric} | {r} | {c} | {delta} "
                         f"| {status} |\n")
            fh.write(f"\n**{verdict}**\n\n")

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
