"""Self-tests of the benchmark: oracle, output checks, tracer and generator.

    python3 perfbench/selftest.py

Runs the real CLI (``PYTHONPATH=src``) on small generated inputs, so it
takes about five seconds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # witness replay in oracle.check_audit

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Matrix  # noqa: E402

# EXAMPLE_1 and EXAMPLE_2 of tests/helpers.py (artists x users) with the
# exact rewards of acceptance criteria 1 and 2.
WORKED_EXAMPLES = [
    ([[200, 0, 0], [0, 100, 100]],
     {"pro-rata": ["3/2", "3/2"], "user-centric": ["1", "2"], "shapley": ["1", "2"]}),
    ([[100, 100, 100], [200, 200, 200]],
     {"pro-rata": ["1", "2"], "user-centric": ["1", "2"], "shapley": ["3/2", "3/2"]}),
]


def matrix_from_rows(rows) -> Matrix:
    n, m = len(rows), len(rows[0])
    return Matrix(n, tuple(tuple((i, rows[i][j]) for i in range(n) if rows[i][j])
                           for j in range(m)))


def cli(*args: str, tracer_spans: Path | None = None) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("STREAMSHARE_SEED", None)
    prefix = (["-m", "streamshare.cli"] if tracer_spans is None
              else [str(HERE / "tracer.py"), "--spans", str(tracer_spans), "--"])
    proc = subprocess.run([sys.executable, *prefix, *args], env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


class TmpDirTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write_csv(self, mx: Matrix) -> Path:
        path = self.tmp / "in.csv"
        path.write_text(mx.to_csv(), encoding="utf-8")
        return path


class OracleTest(unittest.TestCase):
    def test_worked_examples(self):
        for rows, rewards in WORKED_EXAMPLES:
            exp = oracle.expected_allocation(matrix_from_rows(rows))
            self.assertEqual(exp.rewards, rewards)

    def test_fraction_format(self):
        self.assertEqual(oracle.frac(6, 4), "3/2")
        self.assertEqual(oracle.frac(-6, 3), "-2")
        self.assertEqual(oracle.frac(0, 7), "0")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in workloads.WORKLOADS.values():
            if w.kind == "audit":
                continue
            first = w.matrix(7).to_csv()
            self.assertEqual(first, w.matrix(7).to_csv(), w.name)
            self.assertNotEqual(first, w.matrix(8).to_csv(), w.name)

    def test_every_user_streams(self):
        mx = workloads.bernoulli_matrix(random.Random(1), n=3, m=200, p=0.05, max_count=5)
        self.assertTrue(all(mx.columns))


class CheckTest(TmpDirTest):
    """Correct CLI output passes; one altered value fails."""

    def test_allocation(self):
        mx = workloads.zipf_matrix(random.Random(3), n=30, m=40, draws=4, max_count=50)
        exp = oracle.expected_allocation(mx)
        code, out = cli("allocate", "--input", str(self.write_csv(mx)), "--format", "json",
                        "--price", "9.99", "--seed", "3")
        self.assertEqual(oracle.check_allocation(code, out, exp), [])
        doc = json.loads(out)
        fraction = doc["sections"][2]["rewards"][5]["fraction"]
        num, _, den = fraction.partition("/")
        doc["sections"][2]["rewards"][5]["fraction"] = f"{int(num) + 1}/{den or 1}"
        self.assertNotEqual(oracle.check_allocation(code, json.dumps(doc).encode(), exp), [])
        self.assertNotEqual(oracle.check_allocation(2, out, exp), [])

    def test_game(self):
        mx = workloads.bernoulli_matrix(random.Random(4), n=8, m=50, p=0.2, max_count=9)
        path = str(self.write_csv(mx))
        outputs = [cli("game", "--input", path, "--stance", s, "--seed", "4")
                   for s in ("optimistic", "dual")]
        self.assertEqual(oracle.check_game(4, mx, outputs), [])
        lines = outputs[0][1].split(b"\n")
        mask, worth = lines[-2].split(b",")
        lines[-2] = mask + b"," + str(int(worth) - 1).encode()
        bad = b"\n".join(lines)
        self.assertNotEqual(oracle.check_game(4, mx, [(0, bad), (0, bad)]), [])

    def test_audit(self):
        outputs = [cli("audit", mode, "--trials", "5", "--format", "json", "--seed", "5")
                   for mode in ("--table", "--independence")]
        good = oracle.check_audit(5, 5, outputs)
        self.assertEqual(good.problems, [])
        self.assertGreater(good.instances, 0)
        doc = json.loads(outputs[1][1])
        for cell in doc["cells"]:
            cell["matches"] = True  # hides the known mismatches
        bad = [outputs[0], (3, json.dumps(doc).encode())]
        self.assertNotEqual(oracle.check_audit(5, 5, bad).problems, [])


class TracerTest(TmpDirTest):
    def test_names_imported_by_name_are_counted(self):
        mx = workloads.zipf_matrix(random.Random(6), n=20, m=30, draws=3, max_count=9)
        spans = self.tmp / "spans"
        code, out = cli("allocate", "--input", str(self.write_csv(mx)), "--format", "json",
                        "--seed", "6", tracer_spans=spans)
        self.assertEqual(code, 0)
        self.assertEqual(oracle.check_allocation(code, out, oracle.expected_allocation(mx)), [])
        m = tracer.layer_metrics([tracer.load(spans)])
        self.assertEqual(m["core.build_problem.calls"], 1)
        self.assertEqual(m["core.derive.calls"], 3)  # from indices, via its own import
        self.assertEqual(m["indices.rewards.calls"], 3)  # from reporting
        self.assertEqual(m["reporting.output_bytes"], len(out))
        self.assertEqual(set(m) | {"trace.overhead_s"}, set(tracer.per_layer_metrics()))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_benchmark(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracer.per_layer_metrics())


if __name__ == "__main__":
    unittest.main()
