"""Exact scalar types: rationals and quadratic surds q*sqrt(k).

Every quantity in this package is either rational or of the form
``shift + coeff*sqrt(radicand)`` with a square-free integer radicand.
Anything of higher algebraic degree is a hard error.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


# The Fractions of the integers -256..256, built once and shared by every
# reader: Fraction(int) costs about 0.5 us in pure Python, and a body's
# vertex and facet entries are mostly small integers.
_FRACTION = {k: Fraction(k) for k in range(-256, 257)}


def _fraction(x: int) -> Fraction:
    """The integer x as a Fraction, from _FRACTION when it is there."""
    return _FRACTION[x] if x in _FRACTION else Fraction(x)


def parse_rat(x, what="value") -> Fraction:
    """x as a Fraction: a Fraction as is, an int, or a string "p" or "p/q".
    Anything else is refused with a ValueError naming x as a what: a float
    (a binary fraction, not the rational it was written as), a bool, a
    Decimal, None, and a malformed string."""
    # A Fraction is immutable, so one passed in is shared, not copied.
    if type(x) is Fraction:
        return x
    if type(x) is int:  # a bool is not a rational
        return Fraction(x)
    if not isinstance(x, str):
        raise ValueError(f"{type(x).__name__} {what} {x!r}; give an exact "
                         f"rational")
    num, slash, den = x.strip().partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"{what} {x!r} is not a rational \"p\" or "
                         f"\"p/q\"") from None
    if q == 0:
        raise ValueError(f"zero denominator in {what} {x!r}")
    return Fraction(p, q)


def _integer(x, what="value", low=None) -> int:
    """x, an int and not a bool, and at least low when low is given; else a
    ValueError naming x as a what."""
    if type(x) is not int or low is not None and x < low:
        raise ValueError(f"{what} {x!r} is not an integer"
                         + ("" if low is None else f" >= {low}"))
    return x


def _or_none(read, v):
    """read(v), or None where read refuses v: a JSON value of the wrong
    shape.  read is a parse_rat or _integer, or reads a list with them."""
    try:
        return read(v)
    except ValueError:
        return None


def _rats(v):
    if isinstance(v, list):
        return _or_none(lambda v: tuple(map(parse_rat, v)), v)
    return None


def _rat_lists(v):
    rows = list(map(_rats, v)) if isinstance(v, list) else [None]
    return None if None in rows else rows


def _int_lists(v):
    if isinstance(v, list) and all(isinstance(r, list) for r in v):
        return _or_none(lambda v: tuple(tuple(map(_integer, r)) for r in v), v)
    return None


# JSON value readers for _read_json: (read, what it must be); read returns
# the value as the constructor takes it, or None.  A bool is not a number.
_INT = (lambda v: _or_none(_integer, v), "an integer")
_STR = (lambda v: v if isinstance(v, str) else None, "a string")
_RAT = (lambda v: _or_none(parse_rat, v), "a rational")
_RATS = (_rats, "a list of rationals")
_RAT_LISTS = (_rat_lists, "a list of rational lists")
_INT_LISTS = (_int_lists, "a list of integer lists")
_FLAGS = (lambda v: _int_lists(v) or None, "a nonempty list of integer lists")
_OBJECT = (lambda v: v if isinstance(v, dict) else None, "an object")
_SCHEMA = (lambda v: v if _or_none(_integer, v) == 1 else None, "1")
_RADICAND = (lambda v: int(v) if isinstance(v, str) and v.isascii()
             and v.isdigit() else _or_none(lambda v: _integer(v, low=0), v),
             "a non-negative integer")


def _read_json(obj, of, defaults={}, **readers):
    """The values of the keys of the JSON object obj, in the order of
    readers (key -> a reader above, or a from_json); a key left out takes
    its value in defaults (never written to), None included.  A ValueError
    names the first key refused: unknown, missing, of the wrong shape, or
    refused by its from_json, whose message follows the key's."""
    if not isinstance(obj, dict):
        raise ValueError(f"{of} must be an object, got {obj!r}")
    unknown = sorted(obj.keys() - readers.keys())
    if unknown:
        raise ValueError(f"{of} key {unknown[0]!r} is unknown; accepted: "
                         f"{', '.join(readers)}")
    out = []
    for key, (read, what) in readers.items():
        if key not in obj:
            if key not in defaults:
                raise ValueError(f"missing {of} key {key!r} ({what})")
            out.append(defaults[key])
            continue
        try:
            v = read(obj[key])
        except ValueError as exc:
            raise ValueError(f"{of} key {key!r} must be {what}: "
                             f"{exc}") from None
        if v is None:
            raise ValueError(f"{of} key {key!r} must be {what}, got "
                             f"{obj[key]!r}")
        out.append(v)
    return out


def format_rat(q: Fraction) -> str:
    q = parse_rat(q)
    return _ratio(q.numerator, q.denominator)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s^2 * f with f square-free; return (s, f).  n must be >= 0.
    Past trial division up to the cube root, what is left of n is 1, a prime,
    two distinct primes or a prime squared, which isqrt tells apart."""
    if n < 0:
        raise ValueError("negative radicand")
    s, f, m, p = 1, 1, n, 2
    while p * p * p <= m:
        if m % p:
            p += 1 if p == 2 else 2
        elif m % (p * p):
            m, f = m // p, f * p
        else:
            m, s = m // (p * p), s * p
    r = isqrt(m)
    return (s * r, f) if m > 1 and r * r == m else (s, f * m)


def _ratio(p: int, q: int) -> str:
    """format_rat(Fraction(p, q)) for q > 0, with no Fraction built."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def surd_sign(s: int, a: int, k: int) -> int:
    """Exact sign of s + a*sqrt(k) for integers s, a and k >= 0."""
    u = (s > 0) - (s < 0)
    if not a or not k:
        return u
    t = 1 if a > 0 else -1  # the sign of the radical part
    if u != -t:
        return t
    # Opposite signs: compare s^2 against a^2*k; larger magnitude wins.
    c = s * s - a * a * k
    return u if c > 0 else (t if c < 0 else 0)


def _surd(n: int, a: int, k: int, d: int) -> "RadVal":
    """The RadVal (n + a*sqrt(k)) / d of integers, k square-free or 0 and
    d != 0, in lowest terms."""
    if k < 2 or not a:  # rational: sqrt(1) = 1 and sqrt(0) = 0
        n, a, k = n + a * k, 0, 1
    g = gcd(n, a, d) if d > 0 else -gcd(n, a, d)
    v = object.__new__(RadVal)
    _SET_V(v, (n // g, a // g, k, d // g))
    return v


def _ints(x) -> tuple[int, int, int, int]:
    """The integers (n, a, k, d) of a RadVal, an int or a Fraction."""
    if type(x) is RadVal:
        return x._v
    if isinstance(x, (int, Fraction)):
        return (x.numerator, 0, 1, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to RadVal")


class RadVal:
    """Exact value shift + coeff*sqrt(radicand), radicand square-free.

    Held as integers (n + a*sqrt(k)) / d with d > 0, gcd(n, a, d) = 1, k
    square-free, and a = 0 exactly when k = 1: a rational value has
    radicand 1 (matching the serialization contract), coeff its value and
    shift 0.  Pure volumes and thresholds have shift == 0.  A radicand
    that is not an int is refused.  Immutable.
    """

    __slots__ = ("_v",)

    def __new__(cls, coeff, radicand, shift=0):
        if type(radicand) is not int:
            raise ValueError(f"radicand must be an int, got {radicand!r}")
        c, t = parse_rat(coeff, "coeff"), parse_rat(shift, "shift")
        r, k = squarefree_split(radicand)  # a negative radicand raises
        # t + c r sqrt(k), over the product of the denominators
        return _surd(t.numerator * c.denominator,
                     c.numerator * r * t.denominator, k,
                     t.denominator * c.denominator)

    def __setattr__(self, name, *value):
        raise AttributeError(f"RadVal is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # __setattr__ refuses, so pickle and copy rebuild through _surd.
        return _surd, self._v

    # -- the public fields -------------------------------------------
    @property
    def coeff(self) -> Fraction:
        n, a, _, d = self._v
        return Fraction(a or n, d)

    @property
    def radicand(self) -> int:
        return self._v[2]

    @property
    def shift(self) -> Fraction:
        n, a, _, d = self._v
        return Fraction(n if a else 0, d)

    # -- constructors ------------------------------------------------
    @staticmethod
    def rational(q) -> "RadVal":
        return _surd(*_ints(parse_rat(q)))

    @staticmethod
    def sqrt(q) -> "RadVal":
        """sqrt of a nonnegative rational, as coeff*sqrt(k)."""
        q = parse_rat(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        # sqrt(p/q) = sqrt(p*q)/q
        r, k = squarefree_split(q.numerator * q.denominator)
        return _surd(0, r, k, q.denominator)

    # -- predicates --------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return not self._v[1]

    def as_rational(self) -> Fraction:
        n, a, _, d = self._v
        if a:
            raise ValueError(f"{self} is irrational")
        return Fraction(n, d)

    def squared(self) -> Fraction:
        """Exact square; defined only when shift == 0."""
        n, a, k, d = self._v
        if n and a:
            raise ValueError("squared() requires a pure surd")
        return Fraction(n * n + a * a * k, d * d)

    # -- arithmetic (closed only within one radicand) ----------------
    def __add__(self, other) -> "RadVal":
        n1, a1, k1, d1 = self._v
        n2, a2, k2, d2 = _ints(other)
        if a1 and a2 and k1 != k2:
            raise ValueError(f"cannot add surds over sqrt({k1}) and sqrt({k2})")
        return _surd(n1 * d2 + n2 * d1, a1 * d2 + a2 * d1, k1 if a1 else k2,
                     d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "RadVal":
        return self * -1

    def __sub__(self, other) -> "RadVal":
        return -(-self + other)

    def __mul__(self, other) -> "RadVal":
        n1, a1, k1, d1 = self._v
        n2, a2, k2, d2 = _ints(other)
        if a1 and a2 and k1 != k2:
            raise ValueError(f"cannot multiply surds over sqrt({k1}) and sqrt({k2})")
        k = k1 if a1 else k2
        return _surd(n1 * n2 + a1 * a2 * k, n1 * a2 + n2 * a1, k, d1 * d2)

    __rmul__ = __mul__

    def reciprocal(self) -> "RadVal":
        n, a, k, d = self._v
        if not (n or a):
            raise ZeroDivisionError("reciprocal of zero")
        # d/(n + a*sqrt(k)) = d (n - a*sqrt(k)) / (n^2 - a^2 k), and with k
        # square-free and a != 0 the denominator is not 0.
        return _surd(d * n, -d * a, k, n * n - a * a * k)

    def __truediv__(self, other) -> "RadVal":
        return self * _surd(*_ints(other)).reciprocal()

    def __rtruediv__(self, other) -> "RadVal":
        return self.reciprocal() * other

    def __bool__(self) -> bool:
        return bool(self._v[0] or self._v[1])

    # -- exact ordering ----------------------------------------------
    def _cmp(self, other) -> int:
        n1, a1, k1, d1 = self._v
        n2, a2, k2, d2 = _ints(other)
        # d1 d2 (self - other) = s + a sqrt(k1) - b sqrt(k2)
        s, a, b = n1 * d2 - n2 * d1, a1 * d2, a2 * d1
        if not (a and b) or k1 == k2:
            return surd_sign(s, a - b, k1 if a else k2)
        # Compare s + a*sqrt(k1), which is not 0, against b*sqrt(k2).
        left = surd_sign(s, a, k1)
        if (left > 0) != (b > 0):
            return left
        # Same sign: square both sides.
        # (s + a*sqrt(k1))^2 = s^2 + a^2*k1 + 2*s*a*sqrt(k1)
        return left * surd_sign(s * s + a * a * k1 - b * b * k2, 2 * s * a, k1)

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
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # A rational value hashes as the Fraction it equals.
        n, a, _, d = self._v
        return hash(self._v) if a else hash(Fraction(n, d))

    def __repr__(self):
        n, a, k, d = self._v
        if not a:
            return f"RadVal({_ratio(n, d)})"
        if not n:
            return f"RadVal({_ratio(a, d)}*sqrt({k}))"
        return f"RadVal({_ratio(n, d)} + {_ratio(a, d)}*sqrt({k}))"

    # -- serialization -----------------------------------------------
    def to_json(self) -> dict:
        n, a, k, d = self._v
        out = {"coeff": _ratio(a or n, d), "radicand": str(k)}
        if n and a:
            out["shift"] = _ratio(n, d)
        return out

    @staticmethod
    def from_json(obj: dict) -> "RadVal":
        return RadVal(*_read_json(obj, "RadVal", {"shift": 0}, coeff=_RAT,
                                  radicand=_RADICAND, shift=_RAT))


_SET_V = RadVal._v.__set__  # sets the slot past RadVal.__setattr__
