"""Rule mutants: the Shapley index with one planted fault each.

Each mutant agrees with ``shapley`` except on one family of problems, where it
switches to another table rule. An audit that reports "holds" for a mutant on an
axiom the substitute rule breaks has missed a fault, so the audits' kill table
(``tests/test_mutants.py``) measures how much a "holds" is worth, and where
each kill comes from: the exhaustive grid or the seeded trials.

An audit seeds an axiom's trials on the seed and the axiom alone, so every mutant
meets the same instances; the names only label the kill table's rows.
"""

from streamshare.axioms import MAX_ENTRY
from streamshare.indices import IndexRule, pro_rata_index, shapley_index, user_centric_index


def _large(p):
    """Pro-rata once the problem has 4 artists or 4 users, which no grid problem has."""
    return (pro_rata_index if max(len(p.artists), len(p.users)) >= 4 else shapley_index)(p)


def _three_by_three(p):
    """Pro-rata on exactly 3 artists and 3 users, the grid's largest shape."""
    return (pro_rata_index if (len(p.artists), len(p.users)) == (3, 3) else shapley_index)(p)


def _heavy(p):
    """User-centric once some stream count is 2 or more."""
    heavy = any(x >= 2 for _, counts in p.columns for x in counts)
    return (user_centric_index if heavy else shapley_index)(p)


def _pair(p):
    """Pro-rata once some user streams exactly two artists."""
    return (pro_rata_index if any(len(idx) == 2 for idx, _ in p.columns) else shapley_index)(p)


def _bulky(p):
    """Pro-rata once a count exceeds ``MAX_ENTRY``: heavy trials, planted multiples and dominating
    rows, and some modified grid problems."""
    bulky = any(x > MAX_ENTRY for _, counts in p.columns for x in counts)
    return (pro_rata_index if bulky else shapley_index)(p)


MUTANTS = (
    IndexRule("mutant-large", _large),
    IndexRule("mutant-3x3", _three_by_three),
    IndexRule("mutant-heavy", _heavy),
    IndexRule("mutant-pair", _pair),
    IndexRule("mutant-bulky", _bulky),
)
