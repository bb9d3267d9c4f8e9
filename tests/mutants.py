"""Rule mutants: the Shapley index with one planted fault each.

Each mutant agrees with ``shapley`` except on one family of problems, where it
switches to another table rule. An audit that reports "holds" for a mutant on an
axiom the substitute rule breaks has missed a fault, so the audits' kill table
(``tests/test_mutants.py``) measures how much a "holds" is worth, and where
each kill comes from: the exhaustive grid or the seeded trials.

The names are fixed because an audit seeds each rule's trials on its name.
"""

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


MUTANTS = (
    IndexRule("mutant-large", _large),
    IndexRule("mutant-3x3", _three_by_three),
    IndexRule("mutant-heavy", _heavy),
)
