"""Reference routines that the tests check the program against; the
program itself has no use for them."""
from fractions import Fraction


def dot(a, b) -> Fraction:
    """The exact dot product of two vectors of the same length."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def squarefree_split(n: int) -> tuple[int, int]:
    """(s, f) with n = s^2 f and f square-free, by trial division up to the
    square root of what is left: O(sqrt n)."""
    s, f, m, p = 1, 1, n, 2
    while p * p <= m:
        if m % p:
            p += 1 if p == 2 else 2
        elif m % (p * p):
            m, f = m // p, f * p
        else:
            m, s = m // (p * p), s * p
    return (s, f * m)
