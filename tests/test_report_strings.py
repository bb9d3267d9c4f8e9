"""The allocation report's strings, built from integer numerators, equal the
``Fraction`` formulas they replaced: ``str(Fraction(num, den))`` for values
and reward fractions, and the six-decimal rounding (ties to even) of the
reward and of the reward times the price."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_indices as ref
from streamshare.indices import ALL_RULE_NAMES, _ratio, make_rule
from streamshare.reporting import _dec, allocation_json

from helpers import problems

pytestmark = pytest.mark.oracle

numerators = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**330, 10**330))
denominators = st.one_of(st.integers(1, 10**6), st.integers(10**299, 10**330))
prices = st.builds(F, st.integers(1, 10**40), st.integers(1, 10**40))


def assert_strings(num, den, price):
    x = F(num, den)
    assert _ratio(num, den) == str(x)
    assert _dec(num, den) == ref.decimal(x)
    assert _dec(num * price.numerator, den * price.denominator) == ref.decimal(x * price)


@settings(max_examples=400)
@given(numerators, denominators, prices, st.integers(1, 10**20))
@example(-1, 2 * 10**6, F(1), 1)  # -0.0000005: the tie rounds to "0.000000", unsigned
@example(-3, 2 * 10**6, F(1), 7)
def test_property_integer_strings_equal_fraction_formulas(num, den, price, scale):
    assert_strings(num, den, price)
    assert_strings(num * scale, den * scale, price)  # unreduced, as the report passes them


@settings(max_examples=200)
@given(st.integers(-10**12, 10**12), st.integers(0, 3), st.integers(1, 10**20))
def test_property_half_unit_ties_at_the_seventh_decimal(k, digits, scale):
    # (2k + 1) / (2 * 10**6) lies exactly halfway between two six-decimal
    # numbers; k odd or even decides the direction. A 300-digit factor makes
    # the denominator large without moving the tie.
    num, den = 2 * k + 1, 2 * 10**6
    big = scale * 10**(100 * digits)
    for n, d in ((num, den), (num * big, den * big)):
        x = F(n, d)
        assert ref.decimal(x) == ref.decimal(F(2 * k + 1 + (1 if k % 2 else -1), den))
        assert _dec(n, d) == ref.decimal(x)
        assert_strings(n, d, F(1))


@settings(max_examples=60)
@given(problems(max_n=5, max_m=6, max_entry=200), st.integers(0, 10**6), prices)
def test_property_report_strings_equal_fraction_formulas(p, seed, price):
    doc = json.loads(allocation_json(p, ALL_RULE_NAMES, price=price, seed=seed))
    for section in doc["sections"]:
        vec = make_rule(section["index"], seed=seed)(p)
        payouts = ref.rewards(vec, p)
        assert section["values"] == [str(v) for v in vec.values]
        assert [r["fraction"] for r in section["rewards"]] == [str(r) for r in payouts]
        assert [r["decimal"] for r in section["rewards"]] == [ref.decimal(r) for r in payouts]
        assert [r["payout"] for r in section["rewards"]] == [
            ref.decimal(r * price) for r in payouts]
