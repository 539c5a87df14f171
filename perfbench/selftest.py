"""Tests of the benchmark's own checks: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Runs bigtor from the checkout's src/ on small inputs, then corrupts each
output (a wrong rank, a dropped torsion factor, a false verdict, ...) and
requires perfbench/checks.py to reject it.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import unittest
from pathlib import Path

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def bigtor(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "bigtor", *argv, "--json"], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)["result"]


def problem(path):
    return checks.Problem((ROOT / path).read_text(encoding="utf-8"))


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wps12 = problem("tests/data/wps12.tcx")
        cls.prod = problem("tests/data/prod1212.tcx")
        cls.cp1 = problem("tests/data/cp1cp1.tcx")
        cls.ann = problem("tests/data/ann_square.tcx")
        cls.tor_wps12 = bigtor("tor", "--input", "tests/data/wps12.tcx", "--max-degree", "8")
        cls.tor_prod = bigtor("tor", "--input", "tests/data/prod1212.tcx", "--max-degree", "10")
        cls.tor_cp1 = bigtor("tor", "--input", "tests/data/cp1cp1.tcx", "--max-degree", "8")
        cls.free_prod = bigtor("check-free", "--input", "tests/data/prod1212.tcx",
                               "--max-degree", "10")
        cls.bigcm_prod = bigtor("check-bigcm", "--input", "tests/data/prod1212.tcx",
                                "--max-degree", "10")

    def cli(self, command, P, result, D, related=None, **meta):
        return checks.check_cli(command, P, result, dict(D=D, **meta), related or {})

    def test_real_outputs_pass(self):
        self.assertEqual(self.cli("tor", self.wps12, self.tor_wps12, 8), [])
        self.assertEqual(self.cli("tor", self.prod, self.tor_prod, 10), [])
        self.assertEqual(self.cli("tor", self.cp1, self.tor_cp1, 8, smooth=True), [])
        related = {"tor": self.tor_prod, "check-bigcm": self.bigcm_prod}
        self.assertEqual(self.cli("check-free", self.prod, self.free_prod, 10, related), [])
        self.assertEqual(self.cli("check-bigcm", self.prod, self.bigcm_prod, 10, related), [])

    def test_wrong_rank(self):
        bad = copy.deepcopy(self.tor_prod)
        bad["entries"][0]["rank"] += 1
        self.assertTrue(self.cli("tor", self.prod, bad, 10))

    def test_wrong_rank_on_smooth_fan(self):
        bad = copy.deepcopy(self.tor_cp1)
        bad["entries"].append({"p": 1, "j": 6, "q": 5, "rank": 1, "torsion": []})
        bad["entries"].append({"p": 0, "j": 6, "q": 6, "rank": 1, "torsion": []})
        self.assertTrue(self.cli("tor", self.cp1, bad, 8, smooth=True))

    def test_dropped_torsion_factor(self):
        bad = copy.deepcopy(self.tor_wps12)
        entry = next(e for e in bad["entries"] if e["p"] == 0 and e["torsion"])
        entry["torsion"] = entry["torsion"][:-1]
        self.assertTrue(self.cli("tor", self.wps12, bad, 8))

    def test_added_torsion_factor(self):
        bad = copy.deepcopy(self.tor_prod)
        entry = next(e for e in bad["entries"] if e["p"] == 0)
        entry["torsion"] = entry["torsion"] + [3]
        self.assertTrue(self.cli("tor", self.prod, bad, 10))

    def test_false_verdicts(self):
        related = {"tor": self.tor_prod, "check-bigcm": self.bigcm_prod}
        for key in ("bigcm", "odd_vanishing", "tor0_torsion_free", "free_over_R"):
            bad = copy.deepcopy(self.free_prod)
            flip = {"HOLDS_UP_TO": "FAILS", "FAILS": "HOLDS_UP_TO"}
            bad[key]["status"] = flip[bad[key]["status"]]
            self.assertTrue(self.cli("check-free", self.prod, bad, 10, related), key)
        bad = copy.deepcopy(self.bigcm_prod)
        bad["status"] = "HOLDS_UP_TO"
        self.assertTrue(self.cli("check-bigcm", self.prod, bad, 10, related))

    def test_rational_ranks(self):
        rational = bigtor("tor", "--input", "tests/data/prod1212.tcx", "--max-degree", "10",
                          "--rational")
        related = {"tor": self.tor_prod}
        self.assertEqual(self.cli("tor", self.prod, rational, 10, related, rational=True), [])
        rational["entries"][-1]["rank"] += 1
        self.assertTrue(self.cli("tor", self.prod, rational, 10, related, rational=True))

    def test_gysin_hilbert_gkm(self):
        gysin = bigtor("gysin", "--input", "tests/data/cp1cp1.tcx", "--max-degree", "6")
        self.assertEqual(self.cli("gysin", self.cp1, gysin, 6), [])
        gysin["connecting_map_agrees"] = False
        self.assertTrue(self.cli("gysin", self.cp1, gysin, 6))
        hilbert = bigtor("hilbert", "--input", "tests/data/cp1cp1.tcx", "--max-degree", "6")
        self.assertEqual(self.cli("hilbert", self.cp1, hilbert, 6), [])
        hilbert["coefficients"][2]["value"] += 1
        self.assertTrue(self.cli("hilbert", self.cp1, hilbert, 6))
        gkm = bigtor("gkm", "--input", "tests/data/cp1cp1.tcx", "2*x1*x2 - x3^2")
        self.assertEqual(self.cli("gkm", self.cp1, gkm, 12), [])
        gkm["gkm_condition"]["ok"] = False
        self.assertTrue(self.cli("gkm", self.cp1, gkm, 12))

    def test_annihilator_and_certificate(self):
        ann = bigtor("annihilate", "--input", "tests/data/ann_square.tcx", "--max-degree", "4",
                     "--element", "x1*x2")
        self.assertTrue(ann["witnesses"])
        self.assertEqual(self.cli("annihilate", self.ann, ann, 4, element="x1*x2"), [])
        ann["witnesses"][0]["form"] = "u1"
        self.assertTrue(self.cli("annihilate", self.ann, ann, 4, element="x1*x2"))
        cert = bigtor("find-torsion", "--input", "tests/data/cp1cp1.tcx", "--extra", "u3",
                      "--vertex", "{1 2}")
        meta = dict(extra="u3", vertex="{1 2}")
        self.assertEqual(self.cli("find-torsion", self.cp1, cert, 12, **meta), [])
        cert["g"] = "u3"
        self.assertTrue(self.cli("find-torsion", self.cp1, cert, 12, **meta))

    def test_local_free_and_connected(self):
        local = bigtor("check-local-free", "--input", "tests/data/prod1212.tcx")
        self.assertEqual(self.cli("check-local-free", self.prod, local, 12), [])
        local["face_determinants"][0]["det"] += 1
        self.assertTrue(self.cli("check-local-free", self.prod, local, 12))
        conn = bigtor("check-connected", "--input", "tests/data/prod1212.tcx")
        self.assertEqual(self.cli("check-connected", self.prod, conn, 12), [])
        conn["connected"] = not conn["connected"]
        self.assertTrue(self.cli("check-connected", self.prod, conn, 12))

    def test_fuzz_record(self):
        table = self.tor_prod["entries"]
        record = {
            "entries": [[e["p"], e["j"], e["rank"], e["torsion"]] for e in table],
            "verdicts": {k: self.free_prod[k]["status"] for k in
                         ("bigcm", "odd_vanishing", "tor0_torsion_free", "free_over_R")},
            "regular": self.bigcm_prod["regular_sequence"]["regular"],
            "euler": [],
        }
        self.assertEqual(checks.check_fuzz(self.prod, record, 10), [])
        bad = copy.deepcopy(record)
        bad["regular"] = not bad["regular"]
        self.assertTrue(checks.check_fuzz(self.prod, bad, 10))
        bad = copy.deepcopy(record)
        bad["verdicts"]["bigcm"] = "HOLDS_UP_TO"
        self.assertTrue(checks.check_fuzz(self.prod, bad, 10))


class FailedOpsAreIncorrect(unittest.TestCase):
    """Only a library-fuzz problem over its budget may fail and leave the
    run correct; every other failure makes it incorrect."""

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(parents=True, exist_ok=True)

    def cli_round(self, *ops):
        checker = run.Checker()
        results = run.run_cli_round(list(ops), random.Random(0), False, checker)
        return results, checker.errors

    def fuzz_round(self, *problems):
        checker = run.Checker()
        return run.run_fuzz_round(list(problems), False, checker), checker.errors

    def test_cli_success_is_correct(self):
        results, errors = self.cli_round(workloads._op("hilbert", "tests/data/wps12.tcx", 6))
        self.assertEqual(errors, [])
        self.assertTrue(results[0]["ok"])

    def test_cli_exit_1_is_incorrect(self):
        results, errors = self.cli_round(workloads._op("tor", "tests/data/missing.tcx", 6))
        self.assertFalse(results[0]["ok"])
        self.assertTrue(errors)

    def test_cli_usage_error_is_incorrect(self):
        results, errors = self.cli_round(workloads._op("no-such-command", "tests/data/wps12.tcx", 6))
        self.assertFalse(results[0]["ok"])
        self.assertTrue(errors)

    def test_fuzz_over_budget_is_correct(self):
        with open(ROOT / workloads.GROWTH_REPRO, encoding="utf-8") as handle:
            repro = {"id": "growth_repro", "tcx": handle.read()}
        ops, errors = self.fuzz_round(repro)
        self.assertFalse(ops[0]["ok"])
        self.assertEqual(errors, [])

    def test_fuzz_library_error_is_incorrect(self):
        bad = {"id": "bad", "tcx": "m = 2\nfaces = {1 7}\nB = [1 0]\n"}
        ops, errors = self.fuzz_round(bad)
        self.assertFalse(ops[0]["ok"])
        self.assertTrue(errors)

    def test_fuzz_worker_crash_is_incorrect(self):
        # not text: parse_problem raises outside BigtorError and the worker dies
        ops, errors = self.fuzz_round({"id": "not-text", "tcx": None})
        self.assertFalse(ops[0]["ok"])
        self.assertTrue(errors)


if __name__ == "__main__":
    unittest.main()
