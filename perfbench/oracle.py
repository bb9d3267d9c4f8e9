"""Exact expected outputs and output checks, in pure integer arithmetic.

Nothing here uses ``fractions`` or streamshare's own index code: every index
is an integer numerator over one common denominator, reduced only when it is
formatted. Each ``check_*`` function returns a list of problems; an empty
list means the output is exactly right.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from workloads import Matrix

ALLOC_INDICES = ("shapley", "pro-rata", "user-centric")
# The published independence claims are wrong for exactly these two
# (rule, axiom) pairs; the CLI reports them as mismatches and exits 3.
KNOWN_INDEPENDENCE_MISMATCHES = frozenset({
    ("active-uniform", "reasonable_lower_bound"),
    ("user-weighted", "reasonable_lower_bound"),
})
GAME_SAMPLE_MASKS = 256


def frac(num: int, den: int) -> str:
    """``num/den`` in lowest terms, printed the way ``str(Fraction)`` prints it."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _shapley(mx: Matrix) -> tuple[list[int], int]:
    """Each user's unit split equally among the artists the user streamed."""
    den = math.lcm(*{len(col) for col in mx.columns})
    acc = [0] * mx.n
    for col in mx.columns:
        share = den // len(col)
        for i, _ in col:
            acc[i] += share
    return acc, den


def _pro_rata(mx: Matrix) -> tuple[list[int], int]:
    acc = [0] * mx.n
    for col in mx.columns:
        for i, x in col:
            acc[i] += x
    return acc, 1


def _user_centric(mx: Matrix) -> tuple[list[int], int]:
    """Each user's unit split in proportion to the user's own stream counts."""
    by_total: dict[int, list[int]] = {}
    for col in mx.columns:
        sums = by_total.setdefault(sum(x for _, x in col), [0] * mx.n)
        for i, x in col:
            sums[i] += x
    den = math.lcm(*by_total)
    acc = [0] * mx.n
    for total, sums in by_total.items():
        scale = den // total
        for i, s in enumerate(sums):
            if s:
                acc[i] += s * scale
    return acc, den


_KERNELS = {"shapley": _shapley, "pro-rata": _pro_rata, "user-centric": _user_centric}


@dataclass(frozen=True)
class AllocExpected:
    """Exact ``values`` and reward ``fraction`` strings per index."""

    values: dict[str, list[str]]
    rewards: dict[str, list[str]]
    m: int

    @property
    def max_den_digits(self) -> int:
        """Digits of the largest denominator among all expected fractions."""
        return max(
            len(s.partition("/")[2]) or 1
            for strings in (*self.values.values(), *self.rewards.values())
            for s in strings
        )


def expected_allocation(mx: Matrix) -> AllocExpected:
    values, rewards = {}, {}
    for name in ALLOC_INDICES:
        nums, den = _KERNELS[name](mx)
        total = sum(nums)
        values[name] = [frac(x, den) for x in nums]
        # payout = (x/den) / (total/den) * m; the common denominator cancels
        rewards[name] = [frac(x * mx.m, total) for x in nums]
    return AllocExpected(values, rewards, mx.m)


def _load_json(data: bytes, problems: list[str]):
    try:
        return json.loads(data)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_allocation(exit_code: int, data: bytes, exp: AllocExpected) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    doc = _load_json(data, problems)
    if doc is None:
        return problems
    sections = doc.get("sections", [])
    if [s.get("index") for s in sections] != list(ALLOC_INDICES):
        return problems + ["sections are not shapley, pro-rata, user-centric"]
    for sec in sections:
        name = sec["index"]
        if sec["values"] != exp.values[name]:
            problems.append(f"{name}: values differ from the oracle")
        if [r["fraction"] for r in sec["rewards"]] != exp.rewards[name]:
            problems.append(f"{name}: reward fractions differ from the oracle")
        if sec["reward_total"] != str(exp.m):
            problems.append(f"{name}: reward_total {sec['reward_total']!r} != {exp.m}")
    return problems


@dataclass(frozen=True)
class AuditCheck:
    problems: list[str]
    instances: int  # grid cases plus trials actually audited


def check_audit(seed: int, trials: int, outputs) -> AuditCheck:
    """Check the ``--table`` then ``--independence`` reports of one iteration.

    ``outputs`` is ``[(exit_code, bytes), (exit_code, bytes)]``. Independence
    must exit 3 with exactly the known mismatches; every counterexample
    witness must replay through streamshare's ``replay_witness``.
    """
    (table_code, table_data), (indep_code, indep_data) = outputs
    problems: list[str] = []
    if table_code != 0:
        problems.append(f"table: exit code {table_code}, expected 0")
    if indep_code != 3:
        problems.append(f"independence: exit code {indep_code}, expected 3")
    table = _load_json(table_data, problems)
    indep = _load_json(indep_data, problems)
    if table is None or indep is None:
        return AuditCheck(problems, 0)
    for doc in (table, indep):
        if (doc.get("seed"), doc.get("trials")) != (seed, trials):
            problems.append(f"{doc.get('kind')}: seed/trials not as requested")
    if table.get("all_match") is not True or len(table["cells"]) != 30:
        problems.append("table: not all 30 cells match")
    mismatched = {(c["rule"], c["axiom"]) for c in indep["cells"] if not c["matches"]}
    if indep.get("all_match") is not False or mismatched != KNOWN_INDEPENDENCE_MISMATCHES:
        problems.append(f"independence: mismatches {sorted(mismatched)}")
    # independence_suite audits each (rule, axiom) once and repeats the
    # verdict in every axiom set that contains it
    unique = {(c["rule"], c["axiom"]): c for c in indep["cells"]}
    verdicts = list(table["cells"]) + list(unique.values())
    problems += [f"witness of {v['axiom']} x {v['rule']} does not replay"
                 for v in verdicts if not _replays(v, seed)]
    instances = sum(v["grid_cases"] + v["trials"] for v in verdicts)
    return AuditCheck(problems, instances)


def _replays(cell: dict, seed: int) -> bool:
    if cell["outcome"] != "counterexample":
        return "witness" not in cell
    from streamshare.axioms import Verdict, replay_witness
    from streamshare.indices import make_rule

    verdict = Verdict(
        cell["axiom"], cell["rule"], cell["outcome"], cell["trials"],
        cell["grid_cases"], cell["skipped"], cell["seed"],
        witness=cell["witness"], details=cell["details"],
    )
    return replay_witness(verdict, make_rule(cell["rule"], seed=seed))


def check_game(seed: int, mx: Matrix, outputs) -> list[str]:
    """Check the ``--stance optimistic`` then ``--stance dual`` exports.

    The two must be byte-identical (the dual of the pessimistic game is the
    optimistic game). Line k is ``<k as n binary digits>,<worth>``: the empty
    mask is worth 0, the full mask m, and a seeded sample of masks must match
    the number of users who streamed at least one artist in the coalition.
    """
    (opt_code, opt), (dual_code, dual) = outputs
    problems = [f"{stance}: exit code {code}, expected 0"
                for stance, code in (("optimistic", opt_code), ("dual", dual_code)) if code]
    if opt != dual:
        problems.append("optimistic and dual exports differ")
    lines = opt.split(b"\n")
    size = 1 << mx.n
    if len(lines) != size + 1 or lines[-1] != b"":
        return problems + [f"export has {len(lines) - 1} lines, expected {size}"]
    user_masks = [sum(1 << i for i, _ in col) for col in mx.columns]
    rng = random.Random(f"game-check:{seed}")
    masks = [0, size - 1] + [rng.randrange(size) for _ in range(GAME_SAMPLE_MASKS)]
    for s in masks:
        worth = sum(1 for u in user_masks if u & s)
        if lines[s] != f"{s:0{mx.n}b},{worth}".encode():
            problems.append(f"mask {s}: {lines[s][:80]!r}, expected worth {worth}")
    return problems

