from fractions import Fraction

import pytest

from team_disclosure.rationals import (
    MAX_DECIMAL_EXPONENT,
    as_fraction,
    decimal_str,
    ratio_decimal_str,
)

from oracles import decimal_by_objects

F = Fraction


class TestAsFraction:
    @pytest.mark.parametrize(
        "text, value",
        [
            (f"1e{MAX_DECIMAL_EXPONENT}", F(10) ** MAX_DECIMAL_EXPONENT),
            (f"2.5E-{MAX_DECIMAL_EXPONENT}", F(5, 2) / F(10) ** MAX_DECIMAL_EXPONENT),
            ("3e+0_000_000_002 ", F(300)),
        ],
    )
    def test_exponent_within_the_bound_accepted(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            f"1e{MAX_DECIMAL_EXPONENT + 1}",
            f"1e-{MAX_DECIMAL_EXPONENT + 1}",
            "1e999999999",
            "0.5E-1_000_000",
            # longer than int() reads from a string by default
            pytest.param("1e" + "9" * 10_000, id="1e<10000 nines>"),
        ],
    )
    def test_exponent_beyond_the_bound_refused(self, text):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)



class TestDecimalStr:
    @pytest.mark.parametrize(
        "value, text",
        [
            (F(1, 3), "0.333333333333"),
            (F(-2, 7), "-0.285714285714"),
            (F(1, 10**9), "1E-9"),
            (F(1234567, 3), "411522.333333"),
            (3, "3"),
            (0, "0"),
        ],
    )
    def test_significant_digits(self, value, text):
        assert decimal_str(value) == text

    @pytest.mark.parametrize(
        "num, den",
        [
            (-2, 7),
            (0, 5),
            (1, 4),
            (100, 1),
            (10**12, 1),
            (10**13, 1),
            (1, 10**9),
            (7**3550 + 1, 3**1000),
        ],
        ids=["negative", "zero", "1/4", "100", "10**12", "10**13", "1/10**9", "3000-digit"],
    )
    def test_ratio_against_decimal_objects(self, num, den):
        # the plain-int division against two Decimal objects in a context of
        # the oracle's own
        text = ratio_decimal_str(num, den)
        assert text == decimal_by_objects(F(num, den))
        if (num, den) == (10**13, 1):
            assert text == "1.00000000000E+13"
        if (num, den) == (1, 10**9):
            assert text == "1E-9"


def test_one_zero_and_one_for_the_package():
    # the fast paths read 0 and 1 by identity (``v is ZERO``), so every
    # module shares the objects of ``rationals``, and ``evaluate`` returns them
    from team_disclosure import _poly, audit, equilibrium, incentives, outcomes, protocols, rationals
    from team_disclosure.protocols import make_k_majority

    for module in (outcomes, protocols, equilibrium, incentives, audit, _poly):
        assert module.ZERO is rationals.ZERO and module.ONE is rationals.ONE, module.__name__
    protocol = make_k_majority(2, 1)
    assert protocol.evaluate([1, 0]) is rationals.ONE
    assert protocol.evaluate([0, "0"]) is rationals.ZERO
    assert protocol.evaluate([F(1, 2), F(1, 3)]) == F(2, 3)
