"""Exact scalar types: rationals and quadratic surds q*sqrt(k).

Every quantity in this package is either rational or of the form
``shift + coeff*sqrt(radicand)`` with a square-free integer radicand.
Anything of higher algebraic degree is a hard error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def parse_rat(s) -> Fraction:
    """Parse a canonical "p/q" (or "p") string into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if type(s) is int:  # a bool is not a rational
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"not a rational literal: {s!r}")
    text = s.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational literal: {s!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def _rat(v):
    try:
        return parse_rat(v)
    except ValueError:
        return None


def _rats(v):
    try:
        return tuple(map(parse_rat, v)) if isinstance(v, list) else None
    except ValueError:
        return None


def _rat_lists(v):
    rows = list(map(_rats, v)) if isinstance(v, list) else [None]
    return None if None in rows else rows


def _int_lists(v):
    if isinstance(v, list) and all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in v):
        return tuple(map(tuple, v))
    return None


# JSON value readers for _read_json: (read, what it must be); read returns
# the value as the constructor takes it, or None.  A bool is not a number.
_INT = (lambda v: v if type(v) is int else None, "an integer")
_STR = (lambda v: v if isinstance(v, str) else None, "a string")
_RAT = (_rat, "a rational")
_RATS = (_rats, "a list of rationals")
_RAT_LISTS = (_rat_lists, "a list of rational lists")
_INT_LISTS = (_int_lists, "a list of integer lists")
_FLAGS = (lambda v: _int_lists(v) or None, "a nonempty list of integer lists")


def _read_json(obj, of, defaults={}, **readers):
    """The values of the keys of the JSON object obj, in the order of
    readers (key -> a reader above, or a from_json whose ValueError goes
    through); a key left out takes its value in defaults (never written
    to).  A ValueError names the first key refused: unknown, missing or of
    the wrong shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"{of} must be an object, got {obj!r}")
    unknown = sorted(obj.keys() - readers.keys())
    if unknown:
        raise ValueError(f"{of} key {unknown[0]!r} is unknown; accepted: "
                         f"{', '.join(readers)}")
    out = []
    for key, (read, what) in readers.items():
        v = read(obj[key]) if key in obj else defaults.get(key)
        if v is None:
            got = repr(obj[key]) if key in obj else "no such key"
            raise ValueError(f"{of} key {key!r} must be {what}, got {got}")
        out.append(v)
    return out


def format_rat(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s^2 * f with f square-free; return (s, f).  n must be >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return (1, n)
    s, f = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    f *= m
    return (s, f)


_ZERO = Fraction(0)


def _fraction(x) -> Fraction:
    # A Fraction is immutable, so one passed in is shared, not copied.
    return x if type(x) is Fraction else Fraction(x)


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _sign_surd(s: Fraction, a: Fraction, k: int) -> int:
    """Exact sign of s + a*sqrt(k) for k >= 0."""
    if a == 0 or k == 0:
        return _sign(s)
    t = _sign(a)  # sign of the radical part (sqrt(k) > 0 here)
    if s == 0:
        return t
    u = _sign(s)
    if u == t:
        return u
    # Opposite signs: compare s^2 against a^2*k; larger magnitude wins.
    return u if s * s > a * a * k else (t if s * s < a * a * k else 0)


@dataclass(frozen=True)
class RadVal:
    """Exact value shift + coeff*sqrt(radicand), radicand square-free.

    Pure volumes and thresholds have shift == 0; rational values are
    normalized to radicand == 1 (so radicand == 1 iff the value is
    rational, matching the serialization contract).  A radicand that
    is not an int is refused.
    """

    coeff: Fraction
    radicand: int
    shift: Fraction = _ZERO

    def __post_init__(self):
        k = self.radicand
        if type(k) is not int:
            raise ValueError(f"radicand must be an int, got {k!r}")
        coeff, shift = _fraction(self.coeff), _fraction(self.shift)
        if k != 1:
            s, k = squarefree_split(k)  # a negative radicand raises
            if k == 0 or coeff == 0:
                coeff, k = _ZERO, 1
            elif s != 1:
                coeff *= s
        if k == 1 and shift:
            # rational value: keep it entirely in coeff, shift = 0
            coeff, shift = shift + coeff, _ZERO
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", k)
        object.__setattr__(self, "shift", shift)

    # -- constructors ------------------------------------------------
    @staticmethod
    def rational(q) -> "RadVal":
        return RadVal(q, 1)

    @staticmethod
    def sqrt(q) -> "RadVal":
        """sqrt of a nonnegative rational, as coeff*sqrt(k)."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        # sqrt(p/q) = sqrt(p*q)/q
        return RadVal(Fraction(1, q.denominator), q.numerator * q.denominator)

    # -- predicates --------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def squared(self) -> Fraction:
        """Exact square; defined only when shift == 0."""
        if self.shift != 0:
            raise ValueError("squared() requires a pure surd")
        return self.coeff * self.coeff * self.radicand

    # -- arithmetic (closed only within one radicand) ----------------
    def _parts(self) -> tuple[Fraction, Fraction, int]:
        if self.is_rational:
            return (self.coeff, _ZERO, 1)
        return (self.shift, self.coeff, self.radicand)

    def __add__(self, other) -> "RadVal":
        other = _coerce(other)
        s1, a1, k1 = self._parts()
        s2, a2, k2 = other._parts()
        if k1 == 1 or a1 == 0:
            return RadVal(a2, k2, s1 + s2)
        if k2 == 1 or a2 == 0:
            return RadVal(a1, k1, s1 + s2)
        if k1 != k2:
            raise ValueError(f"cannot add surds over sqrt({k1}) and sqrt({k2})")
        return RadVal(a1 + a2, k1, s1 + s2)

    def __neg__(self) -> "RadVal":
        s, a, k = self._parts()
        return RadVal(-a, k, -s)

    def __sub__(self, other) -> "RadVal":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "RadVal":
        other = _coerce(other)
        s1, a1, k1 = self._parts()
        s2, a2, k2 = other._parts()
        if a1 == 0:
            return RadVal(s1 * a2, k2, s1 * s2)
        if a2 == 0:
            return RadVal(s2 * a1, k1, s1 * s2)
        if k1 != k2:
            raise ValueError(f"cannot multiply surds over sqrt({k1}) and sqrt({k2})")
        return RadVal(s1 * a2 + s2 * a1, k1, s1 * s2 + a1 * a2 * k1)

    __rmul__ = __mul__

    def __radd__(self, other):
        return self + other

    def reciprocal(self) -> "RadVal":
        s, a, k = self._parts()
        if a == 0:
            if s == 0:
                raise ZeroDivisionError("reciprocal of zero")
            return RadVal.rational(1 / s)
        if s == 0:
            return RadVal(Fraction(1) / (a * k), k)
        # 1/(s + a*sqrt(k)) = (s - a*sqrt(k)) / (s^2 - a^2 k)
        denom = s * s - a * a * k
        if denom == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return RadVal(-a / denom, k, s / denom)

    def __truediv__(self, other) -> "RadVal":
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "RadVal":
        return _coerce(other) * self.reciprocal()

    # -- exact ordering ----------------------------------------------
    def _cmp(self, other) -> int:
        other = _coerce(other)
        s1, a1, k1 = self._parts()
        s2, a2, k2 = other._parts()
        # sign of (s1 - s2) + a1*sqrt(k1) - a2*sqrt(k2)
        s = s1 - s2
        if a1 == 0 or k1 == 1:
            return _sign_surd(s, -a2, k2)
        if a2 == 0 or k2 == 1:
            return _sign_surd(s, a1, k1)
        if k1 == k2:
            return _sign_surd(s, a1 - a2, k1)
        # Compare (s + a1*sqrt(k1)) against a2*sqrt(k2).
        left = _sign_surd(s, a1, k1)
        right = _sign(a2)
        if left != right:
            if left == 0:
                return -right
            if right == 0:
                return left
            return left
        if left == 0:
            return 0
        # Same nonzero sign: square both sides and recurse one level.
        # (s + a1*sqrt(k1))^2 = s^2 + a1^2*k1 + 2*s*a1*sqrt(k1)
        inner = _sign_surd(s * s + a1 * a1 * k1 - a2 * a2 * k2, 2 * s * a1, k1)
        return left * inner

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        return hash((self.shift, self.coeff, self.radicand))

    def __repr__(self):
        if self.is_rational:
            return f"RadVal({format_rat(self.coeff)})"
        if self.shift == 0:
            return f"RadVal({format_rat(self.coeff)}*sqrt({self.radicand}))"
        return (f"RadVal({format_rat(self.shift)} + "
                f"{format_rat(self.coeff)}*sqrt({self.radicand}))")

    # -- serialization -----------------------------------------------
    def to_json(self) -> dict:
        out = {"coeff": format_rat(self.coeff), "radicand": str(self.radicand)}
        if self.shift != 0:
            out["shift"] = format_rat(self.shift)
        return out

    @staticmethod
    def from_json(obj: dict) -> "RadVal":
        return RadVal(
            parse_rat(obj["coeff"]),
            int(obj["radicand"]),
            parse_rat(obj.get("shift", "0")),
        )


def _coerce(x) -> RadVal:
    if isinstance(x, RadVal):
        return x
    if isinstance(x, (int, Fraction)):
        return RadVal.rational(x)
    raise TypeError(f"cannot coerce {x!r} to RadVal")
