"""Field arithmetic and projective primitives, checked exhaustively.

Every supported order is small enough to verify the full field axioms by
brute force, so that is what we do; a few frozen multiplication facts pin
down the choice of modulus on top.
"""

import pytest

from polarcomp.algebra import DEFAULT_MODULI, GF, normalize_point, pg_line, pg_points
from polarcomp.errors import ConfigurationError
from oracles import field_digits, field_mul, field_pack, is_irreducible

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.fixture(scope="module", params=ORDERS)
def field(request):
    return GF(request.param)


# ---------------------------------------------------------------------------
# field axioms, exhaustive
# ---------------------------------------------------------------------------


def test_identities_and_inverses(field):
    q = field.q
    for a in range(q):
        assert field.add[a][0] == a
        assert field.mul[a][1] == a
        assert field.mul[a][0] == 0
        assert field.add[a][field.neg[a]] == 0
        if a:
            assert field.mul[a].count(1) == 1


def test_commutativity(field):
    q = field.q
    for a in range(q):
        for b in range(q):
            assert field.add[a][b] == field.add[b][a]
            assert field.mul[a][b] == field.mul[b][a]


def test_associativity_and_distributivity(field):
    q = field.q
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert field.add[field.add[a][b]][c] == field.add[a][field.add[b][c]]
                assert field.mul[field.mul[a][b]][c] == field.mul[a][field.mul[b][c]]
                assert field.mul[a][field.add[b][c]] == field.add[field.mul[a][b]][field.mul[a][c]]


def test_inv_of_zero(field):
    assert 1 not in field.mul[0]


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [4, 9, 16])
def test_conj_is_involutory_automorphism(q):
    f = GF(q)
    for a in range(q):
        assert f.conj[f.conj[a]] == a
        for b in range(q):
            assert f.conj[f.add[a][b]] == f.add[f.conj[a]][f.conj[b]]
            assert f.conj[f.mul[a][b]] == f.mul[f.conj[a]][f.conj[b]]
    fixed = [a for a in range(q) if f.conj[a] == a]
    assert len(fixed) ** 2 == q


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_conj_needs_even_degree(q):
    assert GF(q).conj is None


# ---------------------------------------------------------------------------
# frozen facts pinning the default moduli
# ---------------------------------------------------------------------------


def test_gf4_table(gf4):
    # x^2 = x + 1, so 2 * 2 = 3 and 2 * 3 = 1
    assert gf4.mul[2][2] == 3
    assert gf4.mul[2][3] == 1
    assert gf4.add[2][3] == 1
    assert gf4.mul[2].index(1) == 3 and gf4.mul[3].index(1) == 2
    assert gf4.conj[2] == 3 and gf4.conj[3] == 2
    assert gf4.conj[0] == 0 and gf4.conj[1] == 1


def test_gf8_and_gf16_generators():
    f8 = GF(8)
    assert f8.mul[2][4] == 3  # x * x^2 = x + 1
    f16 = GF(16)
    assert f16.mul[2][8] == 3  # x * x^3 = x + 1
    assert f16.conj[2] == 3  # x ** 4


def test_gf9_table(gf3):
    f9 = GF(9)
    assert f9.mul[3][3] == 2  # x^2 = -1
    assert f9.conj[3] == 6  # x ** 3 = -x
    assert all(f9.conj[a] == a for a in range(3))
    assert f9.add[1][2] == 0
    assert gf3.add[1][2] == 0


def test_tables_match_polynomial_arithmetic(field):
    # every entry, not only the axioms: point ids depend on the labels
    p, k, q = field.p, field.k, field.q
    modulus = DEFAULT_MODULI.get((p, k), (0, 1))
    for a in range(q):
        da = field_digits(a, p, k)
        assert field.neg[a] == field_pack([-x % p for x in da], p)
        for b in range(q):
            db = field_digits(b, p, k)
            assert field.add[a][b] == field_pack([(x + y) % p for x, y in zip(da, db)], p)
            assert field.mul[a][b] == field_mul(p, k, modulus, a, b)
        if k % 2 == 0:
            power = 1
            for _ in range(p ** (k // 2)):
                power = field_mul(p, k, modulus, power, a)
            assert field.conj[a] == power


def test_coeffs_roundtrip():
    f = GF(16)
    for a in range(16):
        digits = f.coeffs(a)
        assert len(digits) == 4
        assert sum(d << i for i, d in enumerate(digits)) == a


# ---------------------------------------------------------------------------
# construction errors
# ---------------------------------------------------------------------------


def test_of_order_rejects_non_prime_powers():
    for q in (1, 6, 12, 0):
        with pytest.raises(ConfigurationError):
            GF(q)


def test_order_cap():
    with pytest.raises(ConfigurationError):
        GF(32)
    with pytest.raises(ConfigurationError):
        GF(17)


def test_default_moduli_are_irreducible():
    for (p, k), modulus in DEFAULT_MODULI.items():
        assert len(modulus) == k + 1 and modulus[-1] == 1
        assert is_irreducible(modulus, p), (p, k)
    assert not is_irreducible((1, 0, 0, 1), 2)  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    assert not is_irreducible((2, 0, 1), 3)  # x^2 - 1


# ---------------------------------------------------------------------------
# projective primitives
# ---------------------------------------------------------------------------


def test_normalize_point(gf3):
    assert normalize_point(gf3, (0, 2, 1)) == (0, 1, 2)
    assert normalize_point(gf3, (2, 1, 0)) == (1, 2, 0)
    with pytest.raises(ValueError):
        normalize_point(gf3, (0, 0, 0))
    for lam in (1, 2):
        scaled = tuple(gf3.mul[lam][c] for c in (0, 1, 2))
        assert normalize_point(gf3, scaled) == (0, 1, 2)


@pytest.mark.parametrize(
    "q,n,count",
    [(2, 2, 7), (2, 5, 63), (3, 2, 13), (4, 1, 5), (2, 0, 1)],
)
def test_pg_points_counts(q, n, count):
    f = GF(q)
    pts = pg_points(f, n)
    assert len(pts) == count
    assert len(set(pts)) == count
    assert pts == sorted(pts)
    for p in pts:
        nz = next(c for c in p if c != 0)
        assert nz == 1


def test_pg_points_negative_dimension(gf2):
    with pytest.raises(ValueError):
        pg_points(gf2, -1)


def test_pg_line_gf2(gf2):
    line = pg_line(gf2, (1, 0, 0), (0, 1, 0))
    assert line == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_pg_line_sizes_and_regeneration(gf3):
    line = pg_line(gf3, (1, 0, 0), (0, 0, 1))
    assert len(line) == 4
    pts = sorted(line)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert pg_line(gf3, pts[i], pts[j]) == line


def test_pg_line_accepts_unnormalized_input(gf3):
    assert pg_line(gf3, (2, 0), (0, 2)) == pg_line(gf3, (1, 0), (0, 1))


def test_pg_line_rejects_equal_points(gf2):
    with pytest.raises(ValueError):
        pg_line(gf2, (1, 0), (1, 0))
