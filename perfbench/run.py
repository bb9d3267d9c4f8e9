"""Benchmark of the streamshare CLI: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload alloc-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it measures the code under ``src/``
(``PYTHONPATH=src``), never an installed copy. Each iteration runs the
workload's CLI commands one after another, each in a fresh interpreter: a
closed loop with one client, the way a batch CLI is used. Every output is
checked exactly against ``oracle.py``. With ``--trace 1`` the run alternates
plain and traced iterations (``tracer.py``) and reports per-layer metrics
instead of the end-to-end ones.

End-to-end times are calibrated seconds. Every command is bracketed by two
runs of ``reference.py`` (fixed work that does not touch streamshare), and
every time of an iteration is scaled by ``REFERENCE_S / mean(its reference
times)``. The host's speed switches between two levels about 1.6x apart
every few seconds, which moved raw medians by 15-25% between runs of the
same code. Raw times are in the record line.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the workload's inputs, every iteration and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
sys.pycache_prefix = str(WORK_ROOT / "pycache")

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import AUDIT_TRIALS, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "work_per_s": "1/s", "ok_ratio": "ratio", "setup_s": "s"}
SETUP_PROBES = 2  # per plain iteration
# reference.py's median wall time on the host the benchmark was defined on
# (2 vCPUs at 2.1 GHz, Python 3.11); calibrated times are in these seconds.
REFERENCE_S = 0.25
SETUP_CODE = ("import time; t = time.perf_counter(); import streamshare.cli as cli; "
              "cli.build_parser(); print(repr(time.perf_counter() - t))")
# Every run must finish inside 180 s, however slow the program gets.
RUN_LIMIT_S = 150


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict, out: Path, err: Path, timeout: float) -> Child:
    """Run one process to completion with stdout/stderr in files; measure it.

    CPU time and peak RSS are the child's own, from ``wait4``. A child still
    running after ``timeout`` seconds is killed and reports exit code -9.
    """
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, path in ((1, out), (2, err))]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(max(timeout, 0.1), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    units: int  # nnz, audited instances or exported coalitions
    problems: list[str]
    ref_s: tuple[float, ...] = ()  # reference.py wall times before and after each command
    setup_s: tuple[float, ...] = ()  # raw set-up probe times

    def calibrated(self, seconds: float) -> float:
        return seconds * REFERENCE_S * len(self.ref_s) / sum(self.ref_s)


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "STREAMSHARE_"))}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(WORK_ROOT / "pycache"))
        self.matrix = workload.matrix(seed)
        self.input = None
        self.descriptors: dict = {}
        if self.matrix is not None:
            self.input = work / "input.csv"
            text = self.matrix.to_csv()
            self.input.write_text(text, encoding="utf-8")
            mx = self.matrix
            self.descriptors = {"n": mx.n, "m": mx.m, "nnz": mx.nnz,
                                "density": mx.nnz / (mx.n * mx.m), "input_bytes": len(text)}
        self.expected = None
        if workload.kind == "alloc":
            self.expected = oracle.expected_allocation(self.matrix)
            self.descriptors["max_den_digits"] = self.expected.max_den_digits
        if workload.kind == "audit":
            self.descriptors["trials"] = AUDIT_TRIALS
        self.commands = workload.commands(self.input, seed)
        self.last_ref: float | None = None

    def setup_probes(self, deadline: float, count: int) -> tuple[float, ...]:
        """Import ``streamshare.cli`` and build its parser in fresh interpreters."""
        argv = [sys.executable, "-c", SETUP_CODE]
        out, err = self.work / "setup.out", self.work / "setup.err"
        samples = []
        for _ in range(count):
            child = spawn(argv, self.env, out, err, deadline - time.perf_counter())
            if child.code != 0:
                raise RuntimeError(f"set-up probe failed: {err.read_text()[-500:]}")
            samples.append(float(out.read_text()))
        return tuple(samples)

    def reference(self, deadline: float) -> float:
        child = spawn([sys.executable, str(HERE / "reference.py")], self.env,
                      self.work / "ref.out", self.work / "ref.err", deadline - time.perf_counter())
        if child.code != 0:
            raise RuntimeError("reference.py failed")
        return child.wall_s

    def iteration(self, k: int, traced: bool, deadline: float) -> tuple[Iteration, list]:
        """Run the commands once and check their outputs.

        A reference run follows every command; the first reference time is
        the previous iteration's last, so every command is bracketed by two.
        A plain iteration first times the set-up probes.
        """
        if self.last_ref is None:
            self.last_ref = self.reference(deadline)
        refs = [self.last_ref]
        setup = () if traced else self.setup_probes(deadline, SETUP_PROBES)
        outputs, traces = [], []
        wall = cpu = rss = 0.0
        for c, args in enumerate(self.commands):
            spans = self.work / f"spans-{k}-{c}"
            prefix = ([str(HERE / "tracer.py"), "--spans", str(spans), "--iteration", str(k), "--"]
                      if traced else ["-m", "streamshare.cli"])
            out = self.work / f"out-{c}"
            child = spawn([sys.executable, *prefix, *args], self.env, out,
                          self.work / f"err-{c}", deadline - time.perf_counter())
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            outputs.append((child.code, out.read_bytes()))
            if traced and child.code >= 0:
                traces.append(tracer.load(spans))
            self.last_ref = self.reference(deadline)
            refs.append(self.last_ref)
        units, problems = self.check(outputs)
        return Iteration(traced, wall, cpu, rss, units, problems, tuple(refs), setup), traces

    def check(self, outputs) -> tuple[int, list[str]]:
        kind = self.workload.kind
        try:
            if kind == "alloc":
                (code, data), = outputs
                return self.matrix.nnz, oracle.check_allocation(code, data, self.expected)
            if kind == "game":
                return 2 << self.matrix.n, oracle.check_game(self.seed, self.matrix, outputs)
            result = oracle.check_audit(self.seed, AUDIT_TRIALS, outputs)
            return result.instances, result.problems
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            return 0, [f"malformed output: {exc!r}"]


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def measure(bench: Bench, seconds: int, trace: bool, started: float):
    """Run iterations until the next one would end after ``seconds``.

    Traced runs alternate plain and traced iterations and need one of each.
    """
    hard_deadline = started + RUN_LIMIT_S
    measure_start = time.perf_counter()
    iterations: list[Iteration] = []
    layers: list[dict] = []
    durations = {False: [], True: []}
    while True:
        traced = trace and len(durations[False]) > len(durations[True])
        have_all = durations[False] and (durations[True] or not trace)
        now = time.perf_counter()
        guess = statistics.median(durations[traced]) if durations[traced] else 0.0
        if now > hard_deadline or (have_all and now + guess > measure_start + seconds):
            break
        it, traces = bench.iteration(len(iterations), traced, hard_deadline)
        durations[traced].append(time.perf_counter() - now)
        iterations.append(it)
        if traced and not it.problems:
            layers.append(tracer.layer_metrics(traces))
    return iterations, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "streamshare" / "cli.py").is_file():
        print(f"perfbench: no streamshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # witness replay in oracle.check_audit

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        bench.setup_probes(started + RUN_LIMIT_S, 1)  # fills the bytecode cache
        iterations, layers = measure(bench, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for it in iterations if it.problems)
    plain = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    if args.trace:
        if not layers:
            print("perfbench: no traced iteration succeeded", file=sys.stderr)
        metrics = {name: {"value": statistics.median(l[name] for l in layers) if layers else 0.0,
                          "unit": unit}
                   for name, unit in tracer.per_layer_metrics().items() if name != "trace.overhead_s"}
        overhead = (statistics.median(it.calibrated(it.wall_s) for it in traced)
                    - statistics.median(it.calibrated(it.wall_s) for it in plain)) if traced else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "wall_s": statistics.median(it.calibrated(it.wall_s) for it in plain),
            "cpu_s": statistics.median(it.calibrated(it.cpu_s) for it in plain),
            "peak_rss_mb": statistics.median(it.peak_rss_mb for it in plain),
            "work_per_s": statistics.median(it.units / it.calibrated(it.wall_s) for it in plain),
            "ok_ratio": (len(iterations) - failed) / len(iterations),
            "setup_s": statistics.median(it.calibrated(t) for it in plain for t in it.setup_s),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "descriptors": bench.descriptors,
        "environment": environment(), "reference_s": REFERENCE_S,
        "iterations": [asdict(it) | {"problems": it.problems[:5]} for it in iterations],
        "run_s": time.perf_counter() - started,
    }
    if args.trace and layers:
        shares = {g: metrics[f"share.{g}"]["value"] for g in tracer.SHARE_GROUPS}
        record["dominant_share"] = max(shares, key=shares.get)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and bool(layers or not args.trace),
                      "attempted": len(iterations), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
