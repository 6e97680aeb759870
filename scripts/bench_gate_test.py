#!/usr/bin/env python3
"""Unit tests for scripts/bench_gate.py (registered as ctest `bench_gate_unit`).

Covers the two gate rules that run pairwise inside the candidate (the
optimizer ".lN" rule and the JIT ".t3"/".t2" rule) and the load() contract
that a malformed collection reports *every* bad row before exiting rather
than stopping at the first violation.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402


def row(name, wall=1.0, virtual=1.0, ops=100.0, cycles=1000.0):
    return {"name": name, "wall_seconds": wall, "virtual_seconds": virtual,
            "ops": ops, "cycles": cycles}


def collection_line(bench, rows, schema="bladed-bench-v1"):
    return json.dumps({"schema": schema, "bench": bench, "host_threads": 1,
                       "results": rows})


class LoadReportsAllProblems(unittest.TestCase):
    def load_expecting_failure(self, text):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(text)
            path = f.name
        try:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                with self.assertRaises(SystemExit) as ctx:
                    bench_gate.load(path)
            self.assertEqual(ctx.exception.code, 1)
            return stderr.getvalue()
        finally:
            os.unlink(path)

    def test_all_bad_lines_reported_not_just_the_first(self):
        text = "\n".join([
            "{not json",                                       # line 1
            collection_line("ok", [row("a")]),                 # line 2: fine
            collection_line("bad", [row("b")], schema="v0"),   # line 3
            json.dumps({"schema": "bladed-bench-v1",
                        "results": [row("c")]}),               # line 4: no bench
            collection_line("noname", [{"cycles": 1.0}]),      # line 5
        ]) + "\n"
        err = self.load_expecting_failure(text)
        self.assertIn("4 problem(s)", err)
        for lineno, needle in [(1, "not valid JSON"),
                               (3, "unexpected schema"),
                               (4, "no 'bench' key"),
                               (5, "no 'name' key")]:
            self.assertIn(f":{lineno}:", err)
            self.assertIn(needle, err)

    def test_good_rows_around_bad_ones_still_not_loaded_silently(self):
        # A file with any problem must exit even though some rows parsed.
        text = "\n".join([collection_line("ok", [row("a")]), "{oops"]) + "\n"
        err = self.load_expecting_failure(text)
        self.assertIn("1 problem(s)", err)

    def test_clean_collection_loads(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(collection_line("ok", [row("a"), row("b")]) + "\n")
            path = f.name
        try:
            entries = bench_gate.load(path)
        finally:
            os.unlink(path)
        self.assertEqual(set(entries), {("ok", "a"), ("ok", "b")})


class JitTierRule(unittest.TestCase):
    def entries(self, t2, t3):
        return {("jit", "daxpy.t2"): t2, ("jit", "daxpy.t3"): t3}

    def test_passing_pair(self):
        e = self.entries(row("daxpy.t2", wall=1.0, cycles=5000.0),
                         row("daxpy.t3", wall=0.4, cycles=5000.0))
        self.assertEqual(bench_gate.jit_tier_regressions(e, 2.0), [])

    def test_cycle_mismatch_is_a_failure(self):
        e = self.entries(row("daxpy.t2", wall=1.0, cycles=5000.0),
                         row("daxpy.t3", wall=0.4, cycles=5001.0))
        fails = bench_gate.jit_tier_regressions(e, 2.0)
        self.assertEqual(len(fails), 1)
        self.assertIn("bit-identical accounting violated", fails[0])

    def test_insufficient_speedup_is_a_failure(self):
        e = self.entries(row("daxpy.t2", wall=1.0, cycles=5000.0),
                         row("daxpy.t3", wall=0.8, cycles=5000.0))
        fails = bench_gate.jit_tier_regressions(e, 2.0)
        self.assertEqual(len(fails), 1)
        self.assertIn("below required 2.00x", fails[0])

    def test_both_violations_reported_together(self):
        e = self.entries(row("daxpy.t2", wall=1.0, cycles=5000.0),
                         row("daxpy.t3", wall=0.9, cycles=1.0))
        self.assertEqual(len(bench_gate.jit_tier_regressions(e, 2.0)), 2)

    def test_unpaired_t3_row_is_skipped(self):
        e = {("jit", "daxpy.t3"): row("daxpy.t3", wall=0.4, cycles=5000.0)}
        self.assertEqual(bench_gate.jit_tier_regressions(e, 2.0), [])

    def test_non_tier_names_are_skipped(self):
        e = {("opt", "daxpy.l0"): row("daxpy.l0"),
             ("opt", "daxpy.l2"): row("daxpy.l2")}
        self.assertEqual(bench_gate.jit_tier_regressions(e, 2.0), [])

    def test_non_positive_wall_is_a_failure(self):
        e = self.entries(row("daxpy.t2", wall=0.0, cycles=5000.0),
                         row("daxpy.t3", wall=0.4, cycles=5000.0))
        fails = bench_gate.jit_tier_regressions(e, 2.0)
        self.assertEqual(len(fails), 1)
        self.assertIn("non-positive wall time", fails[0])


class WcetExactStabilityRule(unittest.TestCase):
    def compare_files(self, base_rows, cand_rows, tolerance=0.10):
        paths = []
        for rows in (base_rows, cand_rows):
            with tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False) as f:
                f.write(collection_line("ablation_cms", rows) + "\n")
                paths.append(f.name)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return bench_gate.compare(paths[0], paths[1], tolerance, 2.0)
        finally:
            for p in paths:
                os.unlink(p)

    def test_wcet_rows_get_zero_tolerance(self):
        self.assertEqual(bench_gate.effective_tolerance("wcet.daxpy", 0.10),
                         0.0)
        self.assertEqual(bench_gate.effective_tolerance("ep.ranks8", 0.10),
                         0.10)

    def test_engine_cycle_rows_get_zero_tolerance(self):
        for name in ("dispatch.daxpy n=65536", "opt.daxpy_n256.l2",
                     "jit.naive_daxpy_n256.t3"):
            self.assertEqual(bench_gate.effective_tolerance(name, 0.10), 0.0,
                             name)

    def test_prefix_must_lead_the_name(self):
        self.assertEqual(
            bench_gate.effective_tolerance("is.jit.ranks8", 0.10), 0.10)

    def test_tiny_drift_within_tolerance_still_fails_a_wcet_row(self):
        base = [row("wcet.daxpy", ops=12888.0, cycles=14120.0)]
        cand = [row("wcet.daxpy", ops=12888.0, cycles=14121.0)]
        self.assertEqual(self.compare_files(base, cand), 1)

    def test_exactly_stable_wcet_row_passes(self):
        base = [row("wcet.daxpy", ops=12888.0, cycles=14120.0)]
        cand = [row("wcet.daxpy", wall=9.9, ops=12888.0, cycles=14120.0)]
        self.assertEqual(self.compare_files(base, cand), 0)

    def test_tiny_drift_fails_dispatch_opt_and_jit_rows(self):
        for name in ("dispatch.daxpy", "opt.daxpy.l2", "jit.daxpy.t2"):
            base = [row(name, cycles=10000.0)]
            cand = [row(name, cycles=10001.0)]
            self.assertEqual(self.compare_files(base, cand), 1, name)

    def test_exactly_stable_engine_rows_pass(self):
        rows = [row("dispatch.daxpy", cycles=10000.0),
                row("opt.daxpy.l0", cycles=9000.0),
                row("opt.daxpy.l2", cycles=8000.0)]
        self.assertEqual(self.compare_files(rows, rows), 0)

    def test_other_rows_keep_the_relative_tolerance(self):
        base = [row("ep.ranks8", cycles=10000.0)]
        cand = [row("ep.ranks8", cycles=10500.0)]
        self.assertEqual(self.compare_files(base, cand), 0)


class OptLevelRule(unittest.TestCase):
    def test_optimized_row_must_not_exceed_level_zero(self):
        e = {("opt", "daxpy.l0"): row("daxpy.l0", cycles=1000.0),
             ("opt", "daxpy.l2"): row("daxpy.l2", cycles=1001.0)}
        fails = bench_gate.opt_level_regressions(e)
        self.assertEqual(len(fails), 1)
        self.assertIn("exceed", fails[0])

    def test_equal_cycles_pass(self):
        e = {("opt", "daxpy.l0"): row("daxpy.l0", cycles=1000.0),
             ("opt", "daxpy.l2"): row("daxpy.l2", cycles=900.0)}
        self.assertEqual(bench_gate.opt_level_regressions(e), [])


if __name__ == "__main__":
    unittest.main()
