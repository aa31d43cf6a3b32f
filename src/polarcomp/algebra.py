"""Small finite fields and projective-space primitives.

Field elements are stored as plain ints in ``range(q)``: the base-p digits of
the int, least significant first, are the coefficients of a polynomial over
GF(p) reduced modulo one fixed monic irreducible modulus per order.  All
arithmetic is table driven, which is comfortable because every supported field
has order at most sixteen; products come from addition and multiplication by x.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import ConfigurationError

__all__ = [
    "GF",
    "DEFAULT_MODULI",
    "normalize_point",
    "pg_points",
    "pg_line",
]

MAX_ORDER = 16

# Modulus polynomials for the extension fields we support, written with the
# constant coefficient first.  (2, 2) maps to x^2 + x + 1 and so on.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
}


class GF:
    """The finite field of order ``q = p ** k <= 16``.

    Elements are the ints ``0 .. q-1``.  The digit expansion of an element in
    base ``p`` (least significant digit first) gives the coefficients of its
    polynomial representative.  The arithmetic is read off the tables
    ``add[a][b]``, ``mul[a][b]`` and ``neg[a]``; ``conj[a]`` is the involution
    ``a -> a ** sqrt(q)`` for even degree, and ``conj`` is None otherwise.
    """

    def __init__(self, q: int):
        if q < 2:
            raise ConfigurationError(f"no field of order {q}")
        if q > MAX_ORDER:  # before factoring: the order may be huge
            raise ConfigurationError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
        p = next(d for d in range(2, q + 1) if q % d == 0)  # the least prime factor
        k = next(k for k in range(1, q) if p**k >= q)
        if p**k != q:
            raise ConfigurationError(f"{q} is not a prime power")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = (0, 1) if k == 1 else DEFAULT_MODULI[(p, k)]
        self._build_tables()

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        digits = [self.coeffs(a) for a in range(q)]

        def pack(poly: Sequence[int]) -> int:
            return sum((c % p) * p**i for i, c in enumerate(poly))

        self.add = [[pack([x + y for x, y in zip(u, v)]) for v in digits] for u in digits]
        self.neg = [pack([-x for x in u]) for u in digits]
        # x * u: shift the digits up, fold the top one back through the monic modulus
        times_x = [
            pack([lo - u[-1] * m for lo, m in zip((0, *u[:-1]), self.modulus)]) for u in digits
        ]
        # a * b by Horner over the digits of b: a * (b % p) + x * (a * (b // p))
        add = self.add
        self.mul = [[0] * q for _ in range(q)]
        for a, row in enumerate(self.mul):
            for b in range(1, q):
                row[b] = add[row[b - 1]][a] if b < p else add[row[b % p]][times_x[row[b // p]]]
        self.conj: list[int] | None = None
        if self.k % 2 == 0:
            self.conj = list(range(q))
            for _ in range(p ** (self.k // 2) - 1):
                self.conj = [self.mul[c][a] for a, c in enumerate(self.conj)]

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of ``a``, least significant first, padded to length k."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)


# -- projective space primitives ---------------------------------------------


def normalize_point(field: GF, vec: Iterable[int]) -> tuple[int, ...]:
    """Scale a nonzero coordinate vector so its first nonzero entry is 1."""
    v = tuple(vec)
    for c in v:
        if c != 0:
            if c == 1:
                return v
            row = field.mul[field.mul[c].index(1)]
            return tuple(row[x] for x in v)
    raise ValueError("the zero vector is not a projective point")


def pg_points(field: GF, n: int) -> list[tuple[int, ...]]:
    """All points of PG(n, q) as normalized tuples, in ascending lex order."""
    if n < 0:
        raise ValueError("projective dimension must be nonnegative")
    points = []
    for pivot in range(n, -1, -1):
        head = (0,) * pivot + (1,)
        for tail in itertools.product(range(field.q), repeat=n - pivot):
            points.append(head + tail)
    return points


def pg_line(field: GF, a: tuple[int, ...], b: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The q+1 points of the projective line through two distinct points."""
    a = normalize_point(field, a)
    b = normalize_point(field, b)
    if a == b:
        raise ValueError("a line needs two distinct points")
    pts = {a}
    for t in range(field.q):
        pts.add(normalize_point(field, tuple(field.add[field.mul[t][x]][y] for x, y in zip(a, b))))
    return frozenset(pts)
