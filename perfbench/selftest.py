"""Fast self-test of the benchmark harness, on A3 and B3 (a few seconds).

    python3 perfbench/selftest.py

Covers the digest gate, the timeout path, the traced-versus-CLI byte
equality, the exact counts, the self-time arithmetic and the refusal to run
without a source tree.  It lives here, not under tests/, because it tests
the benchmark rather than coxlab.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace

import run
from tracing import summarize
from workloads import Workload

A3 = Workload(
    name="verify_all_A3",
    kind="verify",
    group="A3",
    max_length=None,
    elements=24,
    stdout_sha256="7ce2bf98e7ec26f0cbaea853409d0467e6697663267dea54aa7183cb492da7ad",
    classes_sha256="39f6ba8960fed257d2e21336e292a1ce5f9f030e0e5693c592ad0efbff2d7b72",
    counts={
        "core.elements": 24,
        "braid_graph.vertices": 66,
        "braid_graph.arcs": 92,
        "verify.cycles": 50,
        "verify.cycles_2": 46,
        "inversions.vectors": 56,
    },
)
B3 = Workload(
    name="verify_all_B3",
    kind="verify",
    group="B3",
    max_length=None,
    elements=48,
    stdout_sha256="9d9167964bd44e96b053c7644715932a2fd43451bf0a70a324088c197b4a237b",
    classes_sha256="5a5cea34dd564e38f65575f38e50e9110deebaf820568b447168971d4790ac0c",
    counts={
        "core.elements": 48,
        "braid_graph.vertices": 209,
        "braid_graph.arcs": 406,
        "verify.cycles": 245,
        "verify.cycles_2": 203,
        "inversions.vectors": 194,
    },
)
ENUM_A3 = replace(
    A3,
    name="enumerate_A3",
    kind="enumerate",
    # "24 <sha256 of the 24 canonical words>\n"
    stdout_sha256="56f4cfe404bb1e8ff62e9e8e8defdbdae0764544c480941373254501a976ccf6",
    counts={"core.elements": 24},
)


def spec_names(section: str) -> list[str]:
    return [m["name"] for m in run.load_spec()[section]]


class HarnessTest(unittest.TestCase):
    def test_untraced_run_passes_and_reports_every_metric(self):
        for wl in (A3, B3, ENUM_A3):
            with self.subTest(wl.name):
                result = run.run_workload(wl, seed=0, seconds=0, trace=False)
                self.assertTrue(result["correct"], result["problems"])
                self.assertEqual((result["attempted"], result["failed"]), (wl.elements, 0))
                self.assertEqual(sorted(result["metrics"]), sorted(spec_names("end_to_end")))
                self.assertTrue(all(v > 0 for v in result["metrics"].values()))

    def test_digest_gate_fails_every_element(self):
        result = run.run_workload(replace(A3, stdout_sha256="0" * 64), seed=0, seconds=0, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("sha256", result["problems"][0])

    def test_timeout_is_a_failed_result(self):
        problems = []
        _, attempted, failed, detail = run.run_untraced(A3, 0, lambda: 0.01, problems)
        self.assertEqual((attempted, failed), (A3.elements, A3.elements))
        self.assertTrue(detail["repetitions"][0]["timed_out"])
        self.assertIn("timed out", problems[-1])

    def test_traced_run_matches_cli_bytes_and_counts(self):
        for wl in (A3, B3, ENUM_A3):
            with self.subTest(wl.name):
                result = run.run_workload(wl, seed=0, seconds=0, trace=True)
                self.assertTrue(result["correct"], result["problems"])
                runs = result["detail"]["runs"]
                self.assertEqual(runs["traced"]["sha256"], runs["untraced"]["sha256"])
                for key, want in wl.counts.items():
                    self.assertEqual(result["metrics"][key], want, key)
                if wl.kind == "verify":
                    missing = set(spec_names("per_layer")) - set(result["metrics"])
                    self.assertFalse(missing)

    def test_self_time_subtracts_children(self):
        doc = {
            "spans": [
                [0, None, None, "cli.verify", 0, 10_000_000_000, 100],
                [1, 0, 0, "cli.element", 1_000_000_000, 9_000_000_000, 200],
                [2, 1, 0, "verify.verify_parity", 2_000_000_000, 5_000_000_000, 300],
                [3, 0, 1, "cli.element", 9_000_000_000, 10_000_000_000, 400],
            ],
            "counts": {"verify.cycles": 3},
        }
        out = summarize(doc)
        self.assertAlmostEqual(out["cli.verify_s"], 1.0)
        self.assertAlmostEqual(out["cli.element_s"], 5.0 + 1.0)
        self.assertAlmostEqual(out["cli.element_s.p50"], 4.5)
        self.assertAlmostEqual(out["verify.verify_parity_s"], 3.0)
        self.assertAlmostEqual(out["verify.rss_mb"], 300 * 1024 / 1e6)
        self.assertEqual(out["verify.cycles"], 3)

    def test_child_environment_pins_the_tree(self):
        caller = {"COXLAB_THREADS": "4", "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "elsewhere"}
        saved = {k: os.environ.get(k) for k in caller}
        os.environ.update(caller)
        try:
            env = run.child_env()
        finally:
            for k, v in saved.items():
                if v is None:
                    del os.environ[k]
                else:
                    os.environ[k] = v
        self.assertNotIn("COXLAB_THREADS", env)
        self.assertNotIn("PYTHONDONTWRITEBYTECODE", env)
        self.assertEqual(env["PYTHONPATH"], run.SRC)

    def test_refuses_to_run_without_a_source_tree(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out")
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify_all_D4", "--seconds", "1"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        self.assertIn("no coxlab source tree", proc.stderr)


if __name__ == "__main__":
    unittest.main()
