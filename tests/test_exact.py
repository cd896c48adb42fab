from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votelab.exact import ExactNumber, exact


def test_rational_normalization():
    assert ExactNumber(4, 0, 0, 8) == Fraction(1, 2)
    assert ExactNumber(-3, 0, 0, -6) == Fraction(1, 2)
    assert str(ExactNumber(7)) == "7"
    assert str(ExactNumber(5, 0, 0, 8)) == "5/8"


def test_square_factor_extraction():
    assert ExactNumber(8, 1, 192, 32) == ExactNumber(1, 1, 3, 4)
    assert str(ExactNumber(8, 1, 192, 32)) == "(1+sqrt(3))/4"
    # perfect squares collapse to rationals
    assert ExactNumber(0, 1, 49, 7) == 1
    assert ExactNumber(0, 3, 16, 4) == 3


def test_negative_discriminant_rejected():
    with pytest.raises(ValueError):
        ExactNumber(0, 1, -5, 1)


def test_quadratic_roots():
    lo, hi = ExactNumber.quadratic_roots(4, 1, -2)
    assert hi == ExactNumber(-1, 1, 33, 8)
    assert lo < 0 < hi
    # negative leading coefficient keeps ascending order
    lo2, hi2 = ExactNumber.quadratic_roots(-4, -1, 2)
    assert (lo2, hi2) == (lo, hi)
    (single,) = ExactNumber.quadratic_roots(0, 2, -1)
    assert single == Fraction(1, 2)
    (double,) = ExactNumber.quadratic_roots(1, -2, 1)
    assert double == 1
    assert ExactNumber.quadratic_roots(1, 0, 1) == ()


def test_comparisons_same_radical():
    a = ExactNumber(-1, 1, 33, 8)
    assert Fraction(1, 2) < a < Fraction(3, 5)
    assert a > 0
    assert a == ExactNumber(-2, 2, 33, 16)


def test_comparisons_distinct_radicals():
    assert ExactNumber.sqrt(2) < ExactNumber.sqrt(3)
    assert ExactNumber.sqrt(2) + 1 > ExactNumber.sqrt(3)
    # 1 + sqrt(17) vs sqrt(33): 4.123 vs 5.745 -> (1+sqrt(17))/8 > (-1+sqrt(33))/8
    assert ExactNumber(1, 1, 17, 8) > ExactNumber(-1, 1, 33, 8)
    assert ExactNumber(0, 2, 2, 1) == ExactNumber.sqrt(8)


def test_arithmetic():
    a = ExactNumber(1, 1, 5, 2)
    assert a + a == ExactNumber(2, 2, 5, 2)
    assert a - Fraction(1, 2) == ExactNumber(0, 1, 5, 2)
    assert a * 2 / 2 == a
    # (1+sqrt(5))/2 squared = (3+sqrt(5))/2
    assert a * a == ExactNumber(3, 1, 5, 2)
    with pytest.raises(ValueError):
        ExactNumber.sqrt(2) + ExactNumber.sqrt(3)
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_decimal_rounding_half_up():
    assert exact(Fraction(9, 16)).decimal() == "0.563"
    assert exact(Fraction(11, 16)).decimal() == "0.688"
    assert exact(Fraction(1, 2)).decimal() == "0.500"
    assert exact(Fraction(2, 3)).decimal() == "0.667"
    assert exact(Fraction(1, 3)).decimal() == "0.333"
    assert ExactNumber(-1, 1, 33, 8).decimal() == "0.593"
    assert ExactNumber(1, 1, 17, 8).decimal() == "0.640"
    assert exact(1).decimal() == "1.000"
    assert exact(Fraction(107, 25)).decimal() == "4.280"


def test_decimal_past_float_range():
    """decimal rounds in integers: a value too small or too large for a
    float renders exactly."""
    assert ExactNumber(1, 0, 0, 10**400).decimal() == "0.000"
    assert ExactNumber(10**400).decimal() == "1" + "0" * 400 + ".000"
    assert ExactNumber(-(10**400) - 1, 0, 0, 2000).decimal() == "-5" + "0" * 396 + ".001"


def test_decimal_is_the_half_up_neighbour():
    """The decimal z / 1000 of x is the one with z - 1/2 <= 1000 x < z + 1/2,
    checked by exact comparison for rationals and quadratic irrationals."""
    values = [exact(Fraction(a, b)) for b in range(1, 40) for a in range(0, 3 * b)]
    values += [ExactNumber(p, r, d, s) for p in range(-9, 10) for r in (-2, 1, 3)
               for d in (2, 5, 33) for s in (1, 7, 8, 2000)]
    for x in values:
        text = abs(x).decimal()
        z = int(text.replace(".", ""))
        assert exact(Fraction(2 * z - 1, 2000)) <= abs(x) < exact(Fraction(2 * z + 1, 2000)), x


def test_decimal_negative_values():
    """A negative value renders as "-" and the decimal of its absolute value;
    one that rounds to 0.000 has no sign."""
    assert exact(Fraction(-1, 3)).decimal() == "-0.333"
    assert exact(-2).decimal() == "-2.000"
    assert exact(Fraction(-1, 3000)).decimal() == "0.000"


def test_fraction_interop_and_hash():
    half = ExactNumber(1, 0, 0, 2)
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert half.as_fraction() == Fraction(1, 2)
    with pytest.raises(ValueError):
        ExactNumber.sqrt(2).as_fraction()


@given(
    st.integers(-50, 50), st.integers(-10, 10), st.integers(0, 60), st.integers(1, 30),
    st.integers(-50, 50), st.integers(-10, 10), st.integers(0, 60), st.integers(1, 30),
)
def test_comparison_matches_float(p1, r1, d1, s1, p2, r2, d2, s2):
    x = ExactNumber(p1, r1, d1, s1)
    y = ExactNumber(p2, r2, d2, s2)
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)
        assert (x > y) == (fx > fy)
    if x == y:
        assert abs(fx - fy) < 1e-9


def test_floor_times_matches_exact_comparison():
    """floor(q*n) is the largest support s with exact(s) > q*n false, for
    every q = a/b with b < 20, four quadratic irrationals (the last with a
    negative radical coefficient) and every n < 60; at q = 1 it is n, so
    no support exceeds the share."""
    quotas = [exact(Fraction(a, b)) for b in range(1, 20) for a in range(b + 1)]
    quotas += [
        ExactNumber(-1, 1, 33, 8), ExactNumber(-5, 1, 145, 12),
        ExactNumber(1, 1, 17, 8), ExactNumber(7, -1, 17, 8),
    ]
    for q in quotas:
        for n in range(60):
            threshold = q * n
            brute = max(s for s in range(n + 1) if not exact(s) > threshold)
            assert q.floor_times(n) == brute, (q, n)
    assert exact(1).floor_times(7) == 7
