"""Reference worth tables: the per-bit zeta transform and the literal
optimistic and dual definitions.

``user_mask_counts`` is the interpreted loop that the packed-integer transform
in ``streamshare.game._user_mask_counts`` replaced: one ``if s & bit`` step per
coalition and bit. The two worth functions read the table at ``N \\ S`` for
each coalition ``S``, exactly as the definitions say. They are kept here, slow
and obviously correct, so tests can require the fast tables to equal them.
"""


def user_mask_counts(p):
    """counts[S] = number of users whose whole listening list lies inside S."""
    n = p.n
    counts = [0] * (1 << n)
    for idx, _ in p.columns:
        mask = 0
        for i in idx:
            mask |= 1 << i
        counts[mask] += 1
    for b in range(n):
        bit = 1 << b
        for s in range(1 << n):
            if s & bit:
                counts[s] += counts[s ^ bit]
    return counts


def optimistic_worth(p):
    """worth(S) = m - counts[N \\ S]: the users who streamed someone in S."""
    counts = user_mask_counts(p)
    full = (1 << p.n) - 1
    return tuple(p.m - counts[full ^ s] for s in range(1 << p.n))


def dual_worth(worth):
    """worth*(S) = worth(N) - worth(N \\ S)."""
    full = len(worth) - 1
    return tuple(worth[full] - worth[full ^ s] for s in range(len(worth)))
