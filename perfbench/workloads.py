"""Seeded workload inputs and the CLI commands each workload runs.

The program under test sees only the CSV files written here. Every input is
a pure function of (workload name, seed): the same seed gives byte-identical
files.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One (artist index, stream count) pair per streamed artist, per user.
Column = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Matrix:
    """A generated stream matrix, stored user by user (sparse)."""

    n: int
    columns: tuple[Column, ...]

    @property
    def m(self) -> int:
        return len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def to_csv(self) -> str:
        """The CLI's matrix format: header ``artist,<users>``, one row per artist."""
        rows = [["0"] * self.m for _ in range(self.n)]
        for j, col in enumerate(self.columns):
            for i, x in col:
                rows[i][j] = str(x)
        lines = ["artist," + ",".join(f"u{j + 1}" for j in range(self.m))]
        lines.extend(f"a{i + 1}," + ",".join(row) for i, row in enumerate(rows))
        return "\n".join(lines) + "\n"


def zipf_matrix(rng: random.Random, n: int, m: int, draws: int, max_count: int) -> Matrix:
    """Each user draws ``draws`` artists with weight 1/rank (duplicates merge)."""
    cum = list(itertools.accumulate(1 / rank for rank in range(1, n + 1)))
    columns = []
    for _ in range(m):
        picked = {bisect.bisect(cum, rng.random() * cum[-1]) for _ in range(draws)}
        columns.append(tuple((i, rng.randint(1, max_count)) for i in sorted(picked)))
    return Matrix(n, tuple(columns))


def bernoulli_matrix(rng: random.Random, n: int, m: int, p: float, max_count: int) -> Matrix:
    """Each (artist, user) pair is streamed with probability ``p``.

    A user left with no streams gets one random artist, because the model
    requires every user to have streamed something.
    """
    columns = []
    for _ in range(m):
        col = [(i, rng.randint(1, max_count)) for i in range(n) if rng.random() < p]
        if not col:
            col = [(rng.randrange(n), rng.randint(1, max_count))]
        columns.append(tuple(col))
    return Matrix(n, tuple(columns))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "alloc", "audit" or "game"
    why: str
    shape: Callable[[random.Random], Matrix] | None = None  # input generator

    def matrix(self, seed: int) -> Matrix | None:
        if self.shape is None:
            return None
        return self.shape(random.Random(f"{self.name}:{seed}"))

    def commands(self, input_path: Path | None, seed: int) -> list[list[str]]:
        """CLI argument lists of one iteration.

        ``--seed`` is always explicit: an invalid ``STREAMSHARE_SEED`` would
        silently become 42. Table and independence run as two commands
        because ``--table --independence`` exits 1 with no message.
        """
        s = ["--seed", str(seed)]
        if self.kind == "alloc":
            return [["allocate", "--input", str(input_path), "--format", "json",
                     "--price", "9.99", *s]]
        if self.kind == "game":
            return [["game", "--input", str(input_path), "--stance", stance, *s]
                    for stance in ("optimistic", "dual")]
        return [["audit", mode, "--trials", str(AUDIT_TRIALS), "--format", "json", *s]
                for mode in ("--table", "--independence")]


AUDIT_TRIALS = 500

WORKLOADS = {
    w.name: w
    for w in (
        Workload("alloc-sparse", "alloc",
                 "allocate on a wide sparse catalogue (1000 x 1250, 0.6% dense): O(n*m) scans in "
                 "parse_matrix, build_problem and derive dominate; game and axioms unused",
                 lambda rng: zipf_matrix(rng, n=1000, m=1250, draws=6, max_count=50)),
        Workload("alloc-dense", "alloc",
                 "allocate on 40 x 6000 at density 0.5 (~300-digit denominators): Fraction sums in "
                 "the index kernels dominate, a sparse layout gains little; game and axioms unused",
                 lambda rng: bernoulli_matrix(rng, n=40, m=6000, p=0.5, max_count=50)),
        Workload("audit", "audit",
                 "audit --table then --independence, 500 trials: ~59k tiny problems, per-call cost "
                 "of core, indices and axioms (only user of axioms); no parsing, no game"),
        Workload("game-export", "game",
                 "game optimistic then dual on 18 artists: 2^18-row worth tables, zeta transform "
                 "and text export; indices and axioms unused",
                 lambda rng: bernoulli_matrix(rng, n=18, m=2000, p=0.1, max_count=50)),
    )
}
