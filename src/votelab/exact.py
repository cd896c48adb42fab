"""Exact numbers of the form (p + r*sqrt(d)) / s.

Quota bounds and rule scores in this package are either rationals or
quadratic irrationals (roots of integer quadratics).  Both are represented
here in a canonical form that supports decision-procedure comparisons using
integer arithmetic only, so strict-vs-weak threshold tests never depend on
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rationalish = int | Fraction


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _strip_square(d: int) -> tuple[int, int]:
    """Split d = f*f * rest with rest free of square factors."""
    f = 1
    i = 2
    while i * i <= d:
        sq = i * i
        while d % sq == 0:
            d //= sq
            f *= i
        i += 1
    return f, d


def _sign_two(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) with d > 0 not a perfect square (unless b = 0)."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    if a > 0:  # b < 0: positive iff a > |b|*sqrt(d)
        return _sign(a * a - b * b * d)
    return _sign(b * b * d - a * a)  # a < 0, b > 0


def _sign_three(a: int, b: int, d1: int, c: int, d2: int) -> int:
    """Sign of a + b*sqrt(d1) + c*sqrt(d2), d1 != d2, both non-square, b,c != 0."""
    left = _sign_two(a, b, d1)  # sign of a + b*sqrt(d1)
    right = -_sign(c)  # sign of -c*sqrt(d2)
    if left != right:
        return 1 if left > right else -1
    if left == 0:
        return 0
    # Same nonzero sign: compare squares, (a + b*sqrt(d1))^2 vs c^2*d2.
    t = _sign_two(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    return t if left > 0 else -t


class ExactNumber:
    """Canonical (p + r*sqrt(d)) / s with integer fields and s > 0.

    Rational values have r == d == 0.  Irrational values keep d > 1 free of
    square factors.  Instances are immutable and totally ordered; comparisons
    with int and Fraction are exact.
    """

    __slots__ = ("p", "r", "d", "s")

    def __init__(self, p: int, r: int = 0, d: int = 0, s: int = 1):
        if s == 0:
            raise ZeroDivisionError("denominator is zero")
        if s < 0:
            p, r, s = -p, -r, -s
        if r == 0 or d == 0:
            r, d = 0, 0
        else:
            if d < 0:
                raise ValueError("negative discriminant: not a real number")
            f, d = _strip_square(d)
            r *= f
            if d == 1:
                p, r, d = p + r, 0, 0
        g = math.gcd(p, r, s)
        if g > 1:
            p, r, s = p // g, r // g, s // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, value):
        raise AttributeError("ExactNumber is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, x: "ExactNumber | Rationalish") -> "ExactNumber":
        if isinstance(x, ExactNumber):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a number here")
        if isinstance(x, int):
            return cls(x)
        if isinstance(x, Fraction):
            return cls(x.numerator, 0, 0, x.denominator)
        raise TypeError(f"cannot convert {type(x).__name__} to ExactNumber")

    @classmethod
    def sqrt(cls, x: Rationalish) -> "ExactNumber":
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative number")
        return cls(0, 1, x.numerator * x.denominator, x.denominator)

    @classmethod
    def quadratic_roots(cls, a: int, b: int, c: int) -> "tuple[ExactNumber, ...]":
        """Real roots of a*t^2 + b*t + c = 0, ascending (a may be negative)."""
        if a == 0:
            if b == 0:
                raise ValueError("degenerate equation")
            return (cls(-c, 0, 0, b),)
        disc = b * b - 4 * a * c
        if disc < 0:
            return ()
        lo = cls(-b, -1, disc, 2 * a)
        hi = cls(-b, 1, disc, 2 * a)
        if a < 0:
            lo, hi = hi, lo
        if lo == hi:
            return (lo,)
        return (lo, hi)

    # -- predicates and conversions ---------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.r == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.s)

    def floor_times(self, n: int) -> int:
        """floor(self * n) for an integer n >= 0, in integers only.

        self * n = (p*n + r*n*sqrt(d)) / s.  With R = r*n, isqrt(R*R*d) is
        floor(|R|*sqrt(d)), and |R|*sqrt(d) is never an integer unless R = 0,
        d being free of square factors; so floor(R*sqrt(d)) is that root, or
        its negation less 1 when R < 0.  Adding the fractional part of
        R*sqrt(d), in [0, 1), to p*n + floor(R*sqrt(d)) cannot carry the
        quotient by s past the next integer.  A rational has R = 0.
        """
        radical = self.r * n
        root = math.isqrt(radical * radical * self.d)
        return (self.p * n + (root if radical >= 0 else -root - 1)) // self.s

    def __float__(self) -> float:
        return (self.p + self.r * math.sqrt(self.d)) / self.s

    def __bool__(self) -> bool:
        return not (self.p == 0 and self.r == 0)

    def __abs__(self) -> "ExactNumber":
        return -self if self._cmp(0) < 0 else self

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "ExactNumber") -> tuple[int, int, int, int, int]:
        """Common radical for self and other; error if radicals differ."""
        if self.d and other.d and self.d != other.d:
            raise ValueError("cannot mix distinct radicals in arithmetic")
        d = self.d or other.d
        return self.p, self.r, other.p, other.r, d

    def __add__(self, other):
        try:
            o = ExactNumber.of(other)
        except TypeError:
            return NotImplemented
        p1, r1, p2, r2, d = self._combine(o)
        return ExactNumber(p1 * o.s + p2 * self.s, r1 * o.s + r2 * self.s, d, self.s * o.s)

    __radd__ = __add__

    def __neg__(self):
        return ExactNumber(-self.p, -self.r, self.d, self.s)

    def __sub__(self, other):
        try:
            o = ExactNumber.of(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            o = ExactNumber.of(other)
        except TypeError:
            return NotImplemented
        p1, r1, p2, r2, d = self._combine(o)
        return ExactNumber(p1 * p2 + r1 * r2 * d, p1 * r2 + p2 * r1, d, self.s * o.s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = ExactNumber.of(other)
        except TypeError:
            return NotImplemented
        if not o.is_rational:
            raise ValueError("division by an irrational is not supported")
        if o.p == 0:
            raise ZeroDivisionError("division by zero")
        return ExactNumber(self.p * o.s, self.r * o.s, self.d, self.s * o.p)

    # -- comparisons --------------------------------------------------------

    def _cmp(self, other) -> int:
        o = ExactNumber.of(other)
        a = self.p * o.s - o.p * self.s
        b = self.r * o.s
        c = -o.r * self.s
        if b == 0 and c == 0:
            return _sign(a)
        if b == 0:
            return _sign_two(a, c, o.d)
        if c == 0:
            return _sign_two(a, b, self.d)
        if self.d == o.d:
            return _sign_two(a, b + c, self.d)
        return _sign_three(a, b, self.d, c, o.d)

    def __eq__(self, other):
        if not isinstance(other, (ExactNumber, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        if not isinstance(other, (ExactNumber, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other):
        if not isinstance(other, (ExactNumber, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if not isinstance(other, (ExactNumber, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other):
        if not isinstance(other, (ExactNumber, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self.p, self.s))
        return hash((self.p, self.r, self.d, self.s))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            if self.s == 1:
                return str(self.p)
            return f"{self.p}/{self.s}"
        if self.r == 1:
            rad = f"sqrt({self.d})"
        elif self.r == -1:
            rad = f"-sqrt({self.d})"
        else:
            rad = f"{self.r}*sqrt({self.d})"
        if self.p == 0:
            body = rad
        elif rad.startswith("-"):
            body = f"{self.p}{rad}"
        else:
            body = f"{self.p}+{rad}"
        if self.s == 1:
            return f"({body})" if self.p != 0 else body
        return f"({body})/{self.s}"

    def __repr__(self) -> str:
        return f"ExactNumber({self})"

    def decimal(self, places: int = 3) -> str:
        """Round the absolute value half up to the given number of decimal
        places; a negative value gets a minus sign unless it rounds to 0."""
        negative = self._cmp(0) < 0
        x = -self if negative else self
        scale = 10**places
        # floor(x * scale + 1/2) is floor((floor(2 x * scale) + 1) / 2)
        z = (x.floor_times(2 * scale) + 1) // 2
        sign = "-" if negative and z else ""
        return f"{sign}{z // scale}.{z % scale:0{places}d}"


def exact(x: "ExactNumber | Rationalish") -> ExactNumber:
    """Shorthand coercion used throughout the package."""
    return ExactNumber.of(x)
