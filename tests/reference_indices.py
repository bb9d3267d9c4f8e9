"""Reference index kernels: one ``Fraction`` add per streamed entry.

These are the straightforward per-user loops over :func:`derive` that the
integer-accumulation kernels in ``streamshare.indices`` replaced. They are
kept here, slow and obviously correct, so tests can require the fast kernels
to return exactly the same ``Fraction`` values.
"""

from fractions import Fraction

from streamshare import derive
from streamshare.indices import IndexVector, default_weight


def shapley_index(p):
    stats = derive(p)
    acc = {a: Fraction(0) for a in p.artists}
    for u in p.users:
        listened = stats.listening[u]
        share = Fraction(1, len(listened))
        for a in listened:
            acc[a] += share
    return IndexVector(p.artists, tuple(acc[a] for a in p.artists))


def pro_rata_index(p):
    stats = derive(p)
    return IndexVector(
        p.artists, tuple(Fraction(stats.total_by_artist[a]) for a in p.artists)
    )


def user_centric_index(p):
    stats = derive(p)
    acc = {a: Fraction(0) for a in p.artists}
    for j, u in enumerate(p.users):
        total = stats.total_by_user[u]
        for i, a in enumerate(p.artists):
            x = p.streams[i][j]
            if x:
                acc[a] += Fraction(x, total)
    return IndexVector(p.artists, tuple(acc[a] for a in p.artists))


def active_uniform_index(p):
    stats = derive(p)
    active = [a for a in p.artists if stats.fans[a]]
    share = Fraction(p.m, len(active))
    return IndexVector(
        p.artists,
        tuple(share if a in set(active) else Fraction(0) for a in p.artists),
    )


def uniform_index(p):
    share = Fraction(p.m, p.n)
    return IndexVector(p.artists, tuple(share for _ in p.artists))


def user_weighted_index(p, weights):
    stats = derive(p)
    acc = {a: Fraction(0) for a in p.artists}
    for u in p.users:
        listened = stats.listening[u]
        share = Fraction(weights[u], len(listened))
        for a in listened:
            acc[a] += share
    return IndexVector(p.artists, tuple(acc[a] for a in p.artists))


def artist_weighted_index(p, weights):
    stats = derive(p)
    acc = {a: Fraction(0) for a in p.artists}
    for u in p.users:
        listened = stats.listening[u]
        denom = sum(Fraction(weights[a]) for a in listened)
        for a in listened:
            acc[a] += Fraction(weights[a], denom)
    return IndexVector(p.artists, tuple(acc[a] for a in p.artists))


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
