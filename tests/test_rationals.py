from fractions import Fraction

import pytest

from team_disclosure.rationals import MAX_DECIMAL_EXPONENT, as_fraction, decimal_str

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
