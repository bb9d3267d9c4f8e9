"""Reference index kernels: one ``Fraction`` add per streamed entry.

These are the straightforward per-user loops over the dense rows
``p.streams`` that the integer-accumulation kernels in ``streamshare.indices``
replaced. They are kept here, slow and obviously correct, so tests can
require the fast kernels to return exactly the same ``Fraction`` values.
The sums and the reward map likewise keep their ``Fraction``-by-``Fraction``
formulas, which the integer sums over one common denominator replaced, and the
allocation report's strings keep theirs: ``str`` of a ``Fraction`` and
:func:`decimal`, which the integer ``indices._ratio`` and ``reporting._dec`` replaced.

The allocation report's document (:func:`allocation_document`) and its text
rendering (:func:`text_allocation`) are kept too, as the oracles of the writers
``reporting.allocation_json`` and ``reporting.allocation_text``, which replaced
them by writing the report straight from the problem.
"""

from fractions import Fraction

from streamshare.indices import ZeroTotalIndex, _ratio, default_weight, make_rule, reward_shares
from streamshare.reporting import SCHEMA_VERSION, _dec

from helpers import vector


def total(index):
    """``IndexVector.total``: one ``Fraction`` add per value."""
    return sum(index.values, Fraction(0))


def rewards(index, p):
    """The payouts of ``indices.reward_shares``, one ``Fraction`` per artist, by
    the ``Fraction`` formula: each value divided by the total, times the user count."""
    t = total(index)
    if t <= 0:
        raise ZeroTotalIndex("index values sum to zero")
    return tuple(v / t * p.m for v in index.values)


def decimal(x):
    """The report's six-decimal rendering of the ``Fraction`` ``x``, ties to even."""
    q, r = divmod(x.numerator * 10**6, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10**6)
    return f"{sign}{whole}.{frac:06d}"


def reward_total(payouts):
    """The allocation report's ``reward_total``."""
    return sum(payouts, Fraction(0))


def listening(p):
    """Each user's streamed artists, by a double loop over the dense rows."""
    return {
        u: [a for i, a in enumerate(p.artists) if p.streams[i][j] > 0]
        for j, u in enumerate(p.users)
    }


def shapley_index(p):
    acc = {a: Fraction(0) for a in p.artists}
    for listened in listening(p).values():
        share = Fraction(1, len(listened))
        for a in listened:
            acc[a] += share
    return vector(p.artists, tuple(acc[a] for a in p.artists))


def pro_rata_index(p):
    return vector(p.artists, tuple(Fraction(sum(row)) for row in p.streams))


def user_centric_index(p):
    acc = {a: Fraction(0) for a in p.artists}
    for j in range(p.m):
        total = sum(row[j] for row in p.streams)
        for i, a in enumerate(p.artists):
            x = p.streams[i][j]
            if x:
                acc[a] += Fraction(x, total)
    return vector(p.artists, tuple(acc[a] for a in p.artists))


def active_uniform_index(p):
    active = [a for a, row in zip(p.artists, p.streams) if any(row)]
    share = Fraction(p.m, len(active))
    return vector(
        p.artists,
        tuple(share if a in set(active) else Fraction(0) for a in p.artists),
    )


def uniform_index(p):
    share = Fraction(p.m, p.n)
    return vector(p.artists, tuple(share for _ in p.artists))


def user_weighted_index(p, weights):
    acc = {a: Fraction(0) for a in p.artists}
    for u, listened in listening(p).items():
        share = Fraction(weights[u], len(listened))
        for a in listened:
            acc[a] += share
    return vector(p.artists, tuple(acc[a] for a in p.artists))


def artist_weighted_index(p, weights):
    acc = {a: Fraction(0) for a in p.artists}
    for listened in listening(p).values():
        denom = sum(Fraction(weights[a]) for a in listened)
        for a in listened:
            acc[a] += Fraction(weights[a], denom)
    return vector(p.artists, tuple(acc[a] for a in p.artists))


def reference_rule(name, seed=0, weights=None):
    """The reference counterpart of ``make_rule(name, seed, weights)``."""
    plain = {
        "shapley": shapley_index,
        "pro-rata": pro_rata_index,
        "user-centric": user_centric_index,
        "active-uniform": active_uniform_index,
        "uniform": uniform_index,
    }
    if name in plain:
        return plain[name]
    if name == "user-weighted":
        return lambda p: user_weighted_index(
            p, weights or {u: default_weight(seed, "user", u) for u in p.users})
    if name == "artist-weighted":
        return lambda p: artist_weighted_index(
            p, weights or {a: default_weight(seed, "artist", a) for a in p.artists})
    raise KeyError(name)


def allocation_document(p, rule_names, price: Fraction = Fraction(1),
                        seed: int = 42) -> dict:
    """One report section per requested index; ``price`` scales displayed payouts only.

    Payout ``i`` is ``pays[i] / total`` of ``indices.reward_shares``.
    """
    m, pn, pd = p.m, price.numerator, price.denominator
    sections = []
    for name in rule_names:
        vec = make_rule(name, seed=seed)(p)
        pays, total = reward_shares(vec, m)
        sections.append({
            "index": name,
            "values": [_ratio(x, vec.common) for x in vec.nums],
            "rewards": [{"artist": a, "fraction": _ratio(x, total),
                         "decimal": _dec(x, total), "payout": _dec(x * pn, total * pd)}
                        for a, x in zip(p.artists, pays)],
            "reward_total": str(m),  # the payouts sum to m exactly
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "allocation",
        "problem": {"artists": list(p.artists), "users": list(p.users), "n": p.n, "m": m},
        "price_multiplier": str(price),
        "sections": sections,
    }


def text_allocation(doc: dict) -> str:
    """The text report of an :func:`allocation_document`."""
    p = doc["problem"]
    lines = [
        f"problem: {p['n']} artists ({', '.join(p['artists'])}), "
        f"{p['m']} users ({', '.join(p['users'])})",
        f"price multiplier: {doc['price_multiplier']}",
    ]
    for sec in doc["sections"]:
        lines.append(f"index {sec['index']}:")
        for artist, value, rw in zip(p["artists"], sec["values"], sec["rewards"]):
            lines.append(
                f"  {artist}: value={value} reward={rw['fraction']} "
                f"({rw['decimal']}) payout={rw['payout']}"
            )
        lines.append(f"  reward total: {sec['reward_total']}")
    return "\n".join(lines) + "\n"
