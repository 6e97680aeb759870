#!/usr/bin/env python3
"""Perf-regression gate over bladed-bench-v1 JSONL collections.

A collection (from scripts/bench.sh) is a file of newline-delimited JSON
documents, one per bench binary:

    {"schema": "bladed-bench-v1", "bench": "npb_parallel", "host_threads": 1,
     "results": [{"name": ..., "wall_seconds": ..., "virtual_seconds": ...,
                  "ops": ..., "cycles": ...}, ...]}

Modes:
    bench_gate.py --summarize FILE
        Print the collection as a table (sanity check; exit 0).
    bench_gate.py --baseline BASE --candidate CAND [--tolerance 0.10]
        Compare the candidate against the baseline. The deterministic
        metrics (virtual_seconds, ops, cycles) must match the baseline
        within the relative tolerance; wall_seconds is reported but never
        gates (host noise). Exit 1 on any violation or on baseline keys
        missing from the candidate.

Additionally, results named "<stem>.l<N>" (the optimizer ablation rows,
e.g. "opt.naive_daxpy_n256.l2" vs "...l0") are checked pairwise in the
candidate: cycles at an optimization level > 0 must never exceed the
level-0 cycles of the same stem. The optimizer's per-pass proofs guarantee
equivalence; this gate guarantees it also never pessimizes.

Results named "<stem>.t3" / "<stem>.t2" (the JIT-tier ablation rows, e.g.
"jit.naive_daxpy_n256.t3" vs "...t2") are also checked pairwise in the
candidate: the tier-3 row's engine cycles must equal the tier-2 row's
exactly (the bit-identical-accounting invariant), and its wall time must
beat tier-2 by at least --jit-speedup (default 2.0). Both rows come from
the same process on the same host, so the wall-time ratio is a fair gate
even though absolute wall times never gate against the baseline.

Results named "wcet.*", "dispatch.*", "opt.*" and "jit.*" (the CMS rows
from bench/ablation_cms: certified bounds, interpreter dispatch, optimizer
and JIT-tier engine cycles) are held to *exact* stability against the
baseline: every deterministic metric in those rows is the product of a
pure, deterministic engine run or analysis, so any drift whatsoever is a
real change to the certifier or the engine and must be re-baselined
deliberately, not absorbed by the tolerance.

Malformed collections report every bad row before exiting, so a botched
regeneration surfaces all at once instead of one row per run.
"""

import argparse
import json
import sys

DETERMINISTIC = ("virtual_seconds", "ops", "cycles")
EXACT_PREFIXES = ("wcet.", "dispatch.", "opt.", "jit.")


def load(path):
    """Return {(bench, result_name): result_dict} from a JSONL collection.

    Collects every malformed line / missing key in the file and exits once
    with the full list, rather than bailing at the first bad row.
    """
    entries = {}
    problems = []
    try:
        f = open(path, encoding="utf-8")
    except OSError as e:
        sys.exit(f"bench_gate: cannot read {path}: {e.strerror}. "
                 f"Generate a collection with scripts/bench.sh --out FILE.")
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                problems.append(f"{path}:{lineno}: not valid JSON: {e}")
                continue
            if doc.get("schema") != "bladed-bench-v1":
                problems.append(f"{path}:{lineno}: unexpected schema "
                                f"{doc.get('schema')!r}")
                continue
            if "bench" not in doc:
                problems.append(f"{path}:{lineno}: document has no "
                                f"'bench' key")
                continue
            for r in doc.get("results", []):
                if "name" not in r:
                    problems.append(f"{path}:{lineno}: result row in bench "
                                    f"{doc['bench']!r} has no 'name' key")
                    continue
                entries[(doc["bench"], r["name"])] = r
    if problems:
        print(f"bench_gate: {len(problems)} problem(s) in {path}:",
              file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        sys.exit(1)
    if not entries:
        sys.exit(f"bench_gate: {path} holds no bladed-bench-v1 rows (empty "
                 f"or baseline-less collection). Regenerate it with "
                 f"scripts/bench.sh --out {path}, or check in a baseline "
                 f"before enabling the gate.")
    return entries


def summarize(path):
    entries = load(path)
    width = max(len(f"{b}/{n}") for b, n in entries)
    print(f"{'bench/result':<{width}}  {'wall_s':>9}  {'virtual_s':>11}  "
          f"{'ops':>14}  {'cycles':>14}")
    for (bench, name), r in sorted(entries.items()):
        print(f"{bench + '/' + name:<{width}}  {r['wall_seconds']:>9.3f}  "
              f"{r['virtual_seconds']:>11.5g}  {r['ops']:>14.8g}  "
              f"{r['cycles']:>14.8g}")
    return 0


def opt_level_regressions(entries):
    """Optimized rows must not burn more cycles than their level-0 twin.

    Returns failure strings for every (bench, "<stem>.l<N>") entry, N > 0,
    whose cycles exceed the matching "<stem>.l0" entry.
    """
    failures = []
    for (bench, name), r in sorted(entries.items()):
        stem, sep, level = name.rpartition(".l")
        if not sep or not level.isdigit() or int(level) == 0:
            continue
        base = entries.get((bench, f"{stem}.l0"))
        if base is None or "cycles" not in r or "cycles" not in base:
            continue
        if r["cycles"] > base["cycles"]:
            failures.append(
                f"{bench}/{name}: optimized cycles {r['cycles']:.8g} exceed "
                f"level-0 cycles {base['cycles']:.8g}")
    return failures


def jit_tier_regressions(entries, jit_speedup):
    """Tier-3 rows must beat their tier-2 twin and keep cycles bit-identical.

    Returns failure strings for every (bench, "<stem>.t3") entry with a
    matching "<stem>.t2" entry where the engine cycle counts differ (the
    JIT's bit-identical-accounting contract) or where the tier-2 / tier-3
    wall-time ratio falls below jit_speedup. Both rows are produced by the
    same process in the same run, so the ratio is host-noise-robust in a
    way absolute wall times are not.
    """
    failures = []
    for (bench, name), r in sorted(entries.items()):
        stem, sep, tier = name.rpartition(".t")
        if not sep or tier != "3":
            continue
        base = entries.get((bench, f"{stem}.t2"))
        if base is None:
            continue
        if r.get("cycles") != base.get("cycles"):
            failures.append(
                f"{bench}/{name}: tier-3 cycles {r.get('cycles')!r} differ "
                f"from tier-2 cycles {base.get('cycles')!r} "
                f"(bit-identical accounting violated)")
        wall_t2 = base.get("wall_seconds", 0.0)
        wall_t3 = r.get("wall_seconds", 0.0)
        if wall_t3 <= 0 or wall_t2 <= 0:
            failures.append(f"{bench}/{name}: non-positive wall time "
                            f"(t2={wall_t2!r}, t3={wall_t3!r})")
            continue
        ratio = wall_t2 / wall_t3
        if ratio < jit_speedup:
            failures.append(
                f"{bench}/{name}: tier-3 speedup {ratio:.2f}x over tier-2 "
                f"below required {jit_speedup:.2f}x "
                f"({wall_t2:.4f}s -> {wall_t3:.4f}s)")
    return failures


def rel_delta(base, cand):
    if base == cand:
        return 0.0
    denom = max(abs(base), 1e-300)
    return abs(cand - base) / denom


def effective_tolerance(name, tolerance):
    """Per-row tolerance: EXACT_PREFIXES rows are exact-stability gated.

    Certification is pure static analysis over a deterministic cost model,
    and engine cycles are a deterministic function of program and config;
    a number that moves at all means the certifier or the engine changed,
    which deserves an explicit re-baseline.
    """
    return 0.0 if name.startswith(EXACT_PREFIXES) else tolerance


def compare(baseline_path, candidate_path, tolerance, jit_speedup):
    base = load(baseline_path)
    cand = load(candidate_path)
    failures = []
    for key, b in sorted(base.items()):
        bench_name = f"{key[0]}/{key[1]}"
        c = cand.get(key)
        if c is None:
            failures.append(f"{bench_name}: missing from candidate")
            continue
        for metric in DETERMINISTIC:
            if metric not in b:
                failures.append(f"{bench_name}: no baseline row for "
                                f"{metric} (stale baseline? regenerate "
                                f"bench/baseline.json with scripts/bench.sh)")
                continue
            if metric not in c:
                failures.append(
                    f"{bench_name}: candidate row lacks {metric}")
                continue
            tol = effective_tolerance(key[1], tolerance)
            d = rel_delta(b[metric], c[metric])
            if d > tol:
                failures.append(
                    f"{bench_name}: {metric} moved {d * 100:.2f}% "
                    f"({b[metric]:.8g} -> {c[metric]:.8g}, "
                    + ("exact stability required for "
                       f"{key[1].split('.')[0]}.* rows)"
                       if tol == 0.0 else
                       f"tolerance {tol * 100:.0f}%)"))
        wall_b = b.get("wall_seconds", 0.0)
        wall_c = c.get("wall_seconds", 0.0)
        if wall_b > 0:
            print(f"info: {bench_name}: wall {wall_b:.3f}s -> {wall_c:.3f}s "
                  f"({(wall_c / wall_b - 1) * 100:+.1f}%)")
    extra = sorted(set(cand) - set(base))
    for key in extra:
        print(f"info: {key[0]}/{key[1]}: new result (not in baseline)")
    failures.extend(opt_level_regressions(cand))
    failures.extend(jit_tier_regressions(cand, jit_speedup))
    if failures:
        print(f"bench_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench_gate: {len(base)} baseline results within "
          f"{tolerance * 100:.0f}% on {', '.join(DETERMINISTIC)}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--summarize", metavar="FILE")
    ap.add_argument("--baseline", metavar="FILE")
    ap.add_argument("--candidate", metavar="FILE")
    ap.add_argument("--tolerance", type=float, default=0.10)
    ap.add_argument("--jit-speedup", type=float, default=2.0,
                    help="minimum tier-2/tier-3 wall-time ratio for "
                         "paired '<stem>.t3' vs '<stem>.t2' rows")
    args = ap.parse_args()
    if args.summarize:
        return summarize(args.summarize)
    if args.baseline and args.candidate:
        return compare(args.baseline, args.candidate, args.tolerance,
                       args.jit_speedup)
    ap.error("need --summarize FILE, or --baseline and --candidate")


if __name__ == "__main__":
    sys.exit(main())
