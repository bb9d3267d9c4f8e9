"""One satisfaction-table run and one independence-suite run, shared by the
tests that only read their results. The acceptance tests time their own runs."""

import pytest

from streamshare.axioms import independence_suite, reproduce_table


@pytest.fixture(scope="session")
def table_run():
    return reproduce_table(trials=40, seed=2)


@pytest.fixture(scope="session")
def independence_run():
    return independence_suite(trials=60, seed=2)
