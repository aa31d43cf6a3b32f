"""Polar space construction: counts, ranks, perps, axiom checking.

The frozen numbers are classical: point and line counts of the small
symplectic, quadric and hermitian spaces, which double as oracles for the
enumeration code.
"""

import functools
import itertools
import random

import pytest

import polarcomp.polar as polar_module
from polarcomp.algebra import GF
from polarcomp.cli import parse_form
from polarcomp.complement import resolve_horizon
from polarcomp.errors import ConfigurationError
from polarcomp.incidence import IncidenceStructure, bits, partial_linear_witness
from polarcomp.polar import (
    FormSpec,
    PolarSpace,
    _anisotropic_coeff,
    _one_or_all_witness,
    build_polar,
    check_polar_axioms,
    compute_rank,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    parabolic_form,
    symplectic_form,
)
from oracles import (
    axioms_scan,
    bilin,
    closure_scan,
    covector_sections,
    form_lines,
    hyperplane_sections,
    line_through_scan,
    lines_in,
    one_or_all_scan,
    pair_perp,
    partial_linear_scan,
    quad_scan,
    rank_scan,
    span_planes,
)

ORACLE_SPACES = ["sp:6:2", "q+:5:2", "q:6:2", "q+:5:3", "q-:7:2", "herm:3:4"]


@functools.cache
def _space(desc):
    """One build per descriptor for the whole session; rank 2 allowed."""
    return PolarSpace(parse_form(desc))


def test_sp62_counts(sp62):
    st = sp62.structure
    assert st.n_points == 63
    assert len(st.lines) == 315
    assert sp62.rank == 3
    assert all(len(line) == 3 for line in st.lines)
    assert len(sp62.singular_planes()) == 135
    assert all(m.bit_count() == 7 for m in sp62.singular_planes())


def test_q52_counts(q52):
    st = q52.structure
    assert st.n_points == 35
    assert len(st.lines) == 105
    assert q52.rank == 3
    assert len(q52.singular_planes()) == 30


def test_q62_counts(q62):
    st = q62.structure
    assert st.n_points == 63
    assert len(st.lines) == 315
    assert q62.rank == 3
    assert len(q62.singular_planes()) == 135


def test_q53_counts(q53):
    st = q53.structure
    assert st.n_points == 130
    assert len(st.lines) == 520
    assert all(len(line) == 4 for line in st.lines)
    assert q53.rank == 3
    assert len(q53.singular_planes()) == 80
    assert st.adj[0].bit_count() == 49
    assert st.set_perp(st.line_masks[0]).bit_count() == 22


def test_elliptic_72_counts(gf2):
    ps = build_polar(elliptic_form(7, gf2))
    assert ps.structure.n_points == 119
    assert len(ps.structure.lines) == 1071
    assert ps.rank == 3


@pytest.mark.parametrize("desc", ["sp:6:2", "q+:5:2", "q:6:2", "q+:5:3", "q-:7:2"])
def test_singular_planes_match_span_oracle(desc):
    ps = build_polar(parse_form(desc))
    assert ps.singular_planes() == span_planes(ps)


def _is_singular_plane(st, plane, q):
    """``q^2+q+1`` pairwise collinear points meeting every line in 0, 1 or all."""
    if plane.bit_count() != q * q + q + 1:
        return False
    for p in bits(plane):
        if plane & ~st.adj[p]:
            return False
        for i in st.lines_at[p]:
            m = st.line_masks[i]
            if m & ~plane and (m & plane).bit_count() > 1:
                return False
    return True


@pytest.mark.parametrize(
    "desc, q, n_planes",
    [
        ("sp:6:3", 3, 1120),  # (q+1)(q^2+1)(q^3+1)
        ("herm:5:4", 4, 891),  # (r+1)(r^3+1)(r^5+1) with r^2 = q = 4
    ],
)
def test_singular_planes_of_larger_spaces(desc, q, n_planes):
    ps = _space(desc)
    planes = ps.singular_planes()
    assert len(planes) == n_planes
    assert len(set(planes)) == n_planes
    assert all(_is_singular_plane(ps.structure, m, q) for m in planes)
    # both walks emit in lexicographic point order
    assert [tuple(bits(m)) for m in planes] == sorted(tuple(bits(m)) for m in planes)
    assert ps.structure.lines == sorted(ps.structure.lines)


@pytest.mark.parametrize("desc", ["sp:6:2", "q+:5:3", "q-:7:2", "sp:6:3"])
def test_singular_plane_lines_match_lines_in(desc):
    ps = _space(desc)
    st = ps.structure
    found = ps.planes_on(range(len(st.lines)))
    assert list(found) == ps.singular_planes()
    assert list(found.values()) == [tuple(lines_in(st, m)) for m in ps.singular_planes()]


@pytest.mark.parametrize("desc", ["sp:6:2", "q+:5:3", "q-:7:2"])
def test_plane_walk_from_some_lines_finds_exactly_their_planes(desc):
    """Started from a subset of the lines, the walk returns exactly the
    planes holding a start line, each with all its line ids."""
    ps = _space(desc)
    st = ps.structure
    starts = random.Random(desc).sample(range(len(st.lines)), len(st.lines) // 20)
    found = ps.planes_on(sorted(starts))
    expected = {
        m: tuple(lines_in(st, m)) for m in ps.singular_planes()
        if any(not st.line_masks[k] & ~m for k in starts)
    }
    assert found == expected
    assert ps.planes_on([]) == {}


@pytest.mark.parametrize("desc", ["sp:6:2", "q+:5:3", "q-:7:2", "herm:5:4", "sp:8:2"])
def test_line_through_matches_scan(desc):
    """The line read from ``{a, b}^⊥`` is the first line holding both points,
    and None for a noncollinear pair, in either order."""
    ps = _space(desc)
    st = ps.structure
    wrong = [
        (a, b) for a, b in itertools.combinations(range(st.n_points), 2)
        if not ps.line_through(a, b) == ps.line_through(b, a) == line_through_scan(st, a, b)
    ]
    assert wrong == []
    with pytest.raises(ValueError):
        ps.line_through(3, 3)


def test_singular_planes_build_each_plane_once(monkeypatch):
    """Each of the 80 planes of q+:5:3 is built once with its 13 lines: at
    most 17 ``line_through`` calls per plane (4160 when a plane was rebuilt
    from each of its lines)."""
    ps = PolarSpace(parse_form("q+:5:3"))
    calls = 0
    line_through = PolarSpace.line_through

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return line_through(self, a, b)

    monkeypatch.setattr(PolarSpace, "line_through", counting)
    assert len(ps.singular_planes()) == 80
    assert calls <= 80 * 17


@pytest.mark.parametrize(
    "desc, rank", [("herm:5:4", 3), ("q:6:3", 3), ("sp:8:2", 4)]
)
def test_axioms_and_rank_of_larger_spaces(desc, rank):
    ps = _space(desc)
    assert ps.rank == rank
    rep = check_polar_axioms(ps)
    assert rep["all_ok"], rep["witnesses"]
    assert rep["rank"] == rank


@pytest.mark.parametrize("desc", [*ORACLE_SPACES, "q+:7:2", "sp:8:2"])
def test_lines_match_pairwise_oracle(desc):
    ps = _space(desc)
    assert ps.structure.lines == form_lines(ps)


@pytest.mark.parametrize("desc", ORACLE_SPACES)
def test_hyperplane_candidates_match_oracle(desc):
    ps = _space(desc)
    assert ps.hyperplane_candidates() == hyperplane_sections(ps)


@pytest.mark.parametrize("desc", ORACLE_SPACES)
def test_candidates_over_a_set_match_oracle(desc):
    ps = _space(desc)
    st = ps.structure
    sections = hyperplane_sections(ps)
    far = next(p for p in range(st.n_points) if not (st.adj[0] >> p & 1))
    specs = ["point 0", "line 0", "perp 0", "meet perp 0 perp 3", f"span 0,{far}"]
    if ps.rank >= 3:
        specs.append("plane 0")
    over = [0, *(resolve_horizon(ps, spec) for spec in specs)]
    # a section that is no point's perp, where the space has one
    over += [h for h in sections if h not in st.adj][:1]
    for w in over:
        assert ps.hyperplane_candidates(w) == [h for h in sections if not w & ~h], w


@pytest.mark.parametrize("desc", ORACLE_SPACES)
def test_axiom_witnesses_match_oracles(desc):
    st = _space(desc).structure
    lines = st.lines
    mid = len(lines) // 2
    far = [p for p in range(st.n_points) if not (st.adj[0] >> p & 1)]

    def overlap(i, off):
        """A second line on point 0 and another point of line ``i``."""
        return tuple(sorted((0, next(p for p in lines[i] if p), off)))

    # Through point 0, "two overlaps" makes a later pair overlap first in
    # line order but an earlier line overlap first in pair order.
    first, middle = st.lines_at[0][0], st.lines_at[0][len(st.lines_at[0]) // 2]
    variants = {
        "intact": lines,
        "overlap first": [overlap(first, far[0]), *lines],
        "overlap middle": [*lines[:mid], overlap(middle, far[0]), *lines[mid:]],
        "overlap twice": [
            *lines[:middle + 1], overlap(middle, far[0]), *lines[middle + 1:],
            overlap(first, far[1]),
        ],
        "dropped first": lines[1:],
        "dropped middle": lines[:mid] + lines[mid + 1:],
    }
    for name, variant in variants.items():
        tampered = IncidenceStructure(st.n_points, variant)
        pl = partial_linear_witness(tampered.line_masks)
        oa = _one_or_all_witness(tampered)
        assert pl == partial_linear_scan(tampered), name
        assert oa == one_or_all_scan(tampered), name
        assert (pl is not None) == name.startswith("overlap"), name
        assert (oa is None) == (name == "intact"), name


@pytest.mark.parametrize("desc", [*ORACLE_SPACES, "herm:5:4", "sp:8:2", "sp:10:2"])
def test_section_table_matches_direct_evaluation(desc):
    """The met-in-the-middle table gives every covector's section, and each
    point's perp read from it is its collinearity row."""
    ps = _space(desc)
    table = ps.sections
    assert [table[c] for c in table.projective] == covector_sections(ps)
    perps = [table[table.id_of(ps.form.perp_covector(p))] for p in ps.points]
    assert perps == ps.structure.adj


@pytest.mark.parametrize("desc", ["q+:5:3", "herm:5:4"])
def test_candidates_over_horizons_match_oracle(desc):
    ps = _space(desc)
    sections = hyperplane_sections(ps)
    specs = ["point 0", "point 5", "line 0", "line 7", "plane 0", "perp 0", "meet perp 0 perp 1"]
    for spec in specs:
        w = resolve_horizon(ps, spec)
        assert ps.hyperplane_candidates(w) == [h for h in sections if not w & ~h], spec


def _random_sets(st, rnd, count):
    """Seeded random point sets of one to six points."""
    return [
        sum(1 << p for p in rnd.sample(range(st.n_points), rnd.randint(1, 6)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("desc", ["sp:6:2", "q+:5:3"])
def test_closure_and_rank_match_line_scan(desc):
    st = _space(desc).structure
    dropped = IncidenceStructure(st.n_points, st.lines[1:])
    rnd = random.Random(desc)
    for s in (st, dropped):
        sets = _random_sets(s, rnd, 40) + [s.line_masks[0], s.adj[0], s.adj[0] & s.adj[1]]
        assert [s.closure_of(xs) for xs in sets] == [closure_scan(s, xs) for xs in sets]
        assert compute_rank(s) == rank_scan(s)


def _tampered_structures(st):
    """Variants of a space's lines that break its axioms in known ways."""
    lines = st.lines
    mid = len(lines) // 2
    far = [p for p in range(st.n_points) if not (st.adj[0] >> p & 1)]

    def overlap(i, off):
        return tuple(sorted((0, next(p for p in lines[i] if p), off)))

    first, middle = st.lines_at[0][0], st.lines_at[0][len(st.lines_at[0]) // 2]
    return {
        "intact": lines,
        "overlap first": [overlap(first, far[0]), *lines],
        "overlap middle": [*lines[:mid], overlap(middle, far[0]), *lines[mid:]],
        "overlap twice": [
            *lines[:middle + 1], overlap(middle, far[0]), *lines[middle + 1:],
            overlap(first, far[1]),
        ],
        "dropped first": lines[1:],
        "dropped middle": lines[:mid] + lines[mid + 1:],
        "duplicated": [*lines[:mid], lines[mid], *lines[mid:]],
    }


def test_axioms_once_guard_catches_a_balanced_line(sp62):
    """On line 0, a point ``a`` off it stops seeing its one point ``p`` and
    another point ``b`` starts seeing a second one.  The perps of the line's
    points keep their summed sizes and their intersection, so the counting
    identity balances and only the points reached at all tell."""
    st = sp62.structure
    line0, p = st.line_masks[0], st.lines[0][0]
    sees_one = [x for x in range(st.n_points) if (st.adj[x] & line0).bit_count() == 1]
    k, a = next((k, x) for k in st.lines_at[p] for x in st.lines[k] if x in sees_one)
    b = next(x for x in sees_one if x != a)
    y = next(y for y in st.lines[0] if not (st.adj[b] >> y) & 1)
    lines = list(st.lines)
    lines[k] = tuple(x for x in lines[k] if x != a)
    tampered = IncidenceStructure(st.n_points, [*lines, (b, y)])
    adj, n = tampered.adj, tampered.n_points
    assert not adj[a] & line0 and (adj[b] & line0).bit_count() == 2
    total = sum(adj[x].bit_count() for x in st.lines[0])
    every = functools.reduce(int.__and__, (adj[x] for x in st.lines[0]))
    assert total - 9 == n - 3 + 2 * (every.bit_count() - 3)
    rep = check_polar_axioms(tampered)
    assert rep == axioms_scan(tampered)
    assert rep["witnesses"]["one_or_all"] == {"point": min(a, b), "line": 0, "collinear_count": 0 if a < b else 2}


@pytest.mark.parametrize("desc", ORACLE_SPACES)
def test_axiom_reports_match_plain_scans(desc):
    st = _space(desc).structure
    for name, variant in _tampered_structures(st).items():
        tampered = IncidenceStructure(st.n_points, variant)
        assert check_polar_axioms(tampered) == axioms_scan(tampered), name


def test_axiom_reports_match_plain_scans_on_small_variants(sp62):
    lines = sp62.structure.lines
    variants = [
        (63, [(0, 3, 5), *lines[1:]]),
        (63, lines[1:]),
        (4, [(0, 1), (2, 3)]),
        (3, [(0, 1, 2)]),
    ]
    for n, variant in variants:
        st = IncidenceStructure(n, variant)
        assert check_polar_axioms(st) == axioms_scan(st), variant[:2]


def test_from_form_builds_each_line_once(gf3, monkeypatch):
    emitted = []

    def recording_structure(n_points, lines):
        emitted.extend(lines)
        return IncidenceStructure(n_points, lines)

    monkeypatch.setattr(polar_module, "IncidenceStructure", recording_structure)
    ps = build_polar(hyperbolic_form(5, gf3))
    assert len(emitted) == 520
    # each formed at its least point, its other points ascending after it
    assert all(list(line) == sorted(line) for line in emitted)
    # strictly increasing: lexicographic order, and no line emitted twice
    assert all(a < b for a, b in zip(emitted, emitted[1:]))
    assert emitted == ps.structure.lines == form_lines(ps)


def test_hermitian_gq(gf4):
    """The order-(4,2) generalized quadrangle on the 3-dimensional hermitian
    variety: 45 points, 27 lines, rank 2."""
    ps = PolarSpace(hermitian_form(3, gf4))
    assert ps.structure.n_points == 45
    assert len(ps.structure.lines) == 27
    assert ps.rank == 2
    # every line is its own perp, so the plane walk finds nothing
    assert ps.line_perps == ps.structure.line_masks
    assert ps.singular_planes() == []
    with pytest.raises(ConfigurationError, match="rank 2"):
        build_polar(hermitian_form(3, gf4))


def test_rank_gate(gf2, gf4):
    with pytest.raises(ConfigurationError, match="rank 2 < 3"):
        build_polar(symplectic_form(4, gf2))
    with pytest.raises(ConfigurationError, match="rank 1"):
        build_polar(elliptic_form(3, gf2))
    with pytest.raises(ConfigurationError, match="rank 2"):
        build_polar(hermitian_form(4, gf4))


def test_form_constructor_validation(gf2, gf3):
    with pytest.raises(ConfigurationError):
        symplectic_form(5, gf2)
    with pytest.raises(ConfigurationError):
        hyperbolic_form(4, gf2)
    with pytest.raises(ConfigurationError):
        parabolic_form(5, gf2)
    with pytest.raises(ConfigurationError):
        elliptic_form(4, gf2)
    with pytest.raises(ConfigurationError):
        hermitian_form(3, gf3)  # no quadratic subfield
    with pytest.raises(ConfigurationError):
        symplectic_form(12, gf2)  # above the vector-dimension cap
    with pytest.raises(ConfigurationError):
        FormSpec("weird", gf2, 4, ((0,),))


def test_symplectic_has_all_points(sp62, gf2):
    # every projective point is singular for an alternating form
    assert sp62.structure.n_points == 63
    assert all(sp62.form.vec_singular(p) for p in sp62.points)
    with pytest.raises(ValueError):
        sp62.form.quad_value((1, 0, 0, 0, 0, 0))


def test_quadric_points_satisfy_the_form(q52):
    for p in q52.points:
        assert q52.form.quad_value(p) == 0


CONSTRUCTORS = {
    "symplectic": symplectic_form,
    "parabolic": parabolic_form,
    "hyperbolic": hyperbolic_form,
    "elliptic": elliptic_form,
    "hermitian": hermitian_form,
}


def _form_cases():
    """Each dimension a kind accepts up to the vector-dimension cap (the
    vector dimension for ``sp``, the projective one otherwise), over the
    orders 2, 3, 4, 5, 8 and 9; hermitian forms need a square order."""
    top = polar_module.MAX_VECTOR_DIM
    accepted = {
        "symplectic": range(2, top + 1, 2),
        "parabolic": range(2, top, 2),
        "hyperbolic": range(1, top, 2),
        "elliptic": range(1, top, 2),
        "hermitian": range(1, top),
    }
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
    return [
        pytest.param(kind, n, p, k, id=f"{kind}-{n}-{p ** k}")
        for kind, ns in accepted.items()
        for p, k in fields
        if kind != "hermitian" or k % 2 == 0
        for n in ns
    ]


def _written_quad(kind, dim, d):
    """The coefficients of the polynomial each quadric is defined by: the
    hyperbolic pairs x_i x_(i+1) after a head of 0, 1 or 2 coordinates,
    the head being x0^2 (parabolic) or x0^2 + x0x1 + d*x1^2 (elliptic)."""
    quad = [[0] * dim for _ in range(dim)]
    head = {"hyperbolic": 0, "parabolic": 1, "elliptic": 2}[kind]
    for i in range(head, dim, 2):
        quad[i][i + 1] = 1
    if kind != "hyperbolic":
        quad[0][0] = 1
    if kind == "elliptic":
        quad[0][1], quad[1][1] = 1, d
    return quad


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_anisotropic_coeff_over_every_supported_order(q):
    """x^2 + xy + d*y^2 vanishes only at (0, 0), for every order GF accepts."""
    f = GF(q)
    d = _anisotropic_coeff(f)
    assert 0 < d < q
    assert all(
        f.add[f.add[f.mul[x][x]][f.mul[x][y]]][f.mul[d][f.mul[y][y]]]
        for x in range(q) for y in range(q) if x or y
    )


@pytest.mark.parametrize("kind, n, p, k", _form_cases())
def test_forms_match_their_definitions(kind, n, p, k):
    f = GF(p**k)
    form = CONSTRUCTORS[kind](n, f)
    dim = n if kind == "symplectic" else n + 1
    assert (form.kind, form.dim) == (kind, dim)
    if kind == "symplectic":  # P - P^T for the pairs P
        pairs = _written_quad("hyperbolic", dim, None)
        gram = [[f.add[pairs[i][j]][f.neg[pairs[j][i]]] for j in range(dim)] for i in range(dim)]
        assert form.quad is None
    elif kind == "hermitian":
        gram = [[int(i == j) for j in range(dim)] for i in range(dim)]
        assert form.quad is None
    else:  # Q + Q^T
        d = form.quad[1][1]
        if kind == "elliptic":
            assert all(
                f.add[f.add[f.mul[x][x]][f.mul[x][y]]][f.mul[d][f.mul[y][y]]]
                for x in range(f.q) for y in range(f.q) if x or y
            )
        quad = _written_quad(kind, dim, d)
        assert form.quad == tuple(map(tuple, quad))
        gram = [[f.add[quad[i][j]][quad[j][i]] for j in range(dim)] for i in range(dim)]
    assert form.gram == tuple(map(tuple, gram))

    # the sparse evaluations against the full matrices
    rnd = random.Random(f"{kind}:{n}:{p}:{k}")
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    for _ in range(20):
        u, v = (tuple(rnd.randrange(f.q) for _ in range(dim)) for _ in range(2))
        # u is orthogonal to v iff sum c_j v_j == 0; hermitian covectors are conjugate
        cov = tuple(bilin(form, u, e) for e in units)
        if kind == "hermitian":
            cov = tuple(map(f.conj.__getitem__, cov))
        assert form.perp_covector(u) == cov
        if form.quad is None:
            assert form.vec_singular(v) == (bilin(form, v, v) == 0)
        else:
            assert form.quad_value(v) == quad_scan(form, v)
            assert form.vec_singular(v) == (quad_scan(form, v) == 0)


def test_form_perp_matches_collinearity(sp62):
    st = sp62.structure
    n = st.n_points
    for a in range(n):
        assert pair_perp(sp62.form, sp62.points[a], sp62.points[a])
        for b in range(a + 1, n):
            assert pair_perp(sp62.form, sp62.points[a], sp62.points[b]) == (st.adj[a] >> b & 1)


def test_perp_sizes_and_hyperplanes(sp62, q52):
    st = sp62.structure
    for a in range(st.n_points):
        assert st.adj[a].bit_count() == 31
        assert st.is_hyperplane(st.adj[a])
    assert all(q52.structure.adj[a].bit_count() == 19 for a in range(35))


def test_lines_per_point(sp62, q52):
    assert all(len(sp62.structure.lines_at[p]) == 15 for p in range(63))
    assert all(len(q52.structure.lines_at[p]) == 9 for p in range(35))


def test_hyperplane_candidates(sp62, q52, q62, gf2, gf4):
    # for the symplectic and hyperbolic models every ambient section is a
    # perp; the parabolic model has genuinely more sections
    assert len(sp62.hyperplane_candidates()) == 63
    assert len(q52.hyperplane_candidates()) == 63
    assert len(q62.hyperplane_candidates()) == 127
    st = sp62.structure
    for h in sp62.hyperplane_candidates():
        assert st.is_hyperplane(h)
    # every perp is an ambient section, hermitian and rank-2 spaces included
    rank2 = [
        PolarSpace(hermitian_form(3, gf4)),
        PolarSpace(elliptic_form(5, gf2)),
    ]
    for ps in (sp62, q52, q62, *rank2):
        cands = set(ps.hyperplane_candidates())
        assert all(adj in cands for adj in ps.structure.adj)


def test_axioms_pass_on_the_three_spaces(sp62, q52, q62):
    for ps in (sp62, q52, q62):
        rep = check_polar_axioms(ps)
        assert rep["all_ok"]
        assert rep["rank"] == 3
        assert rep["witnesses"] == {}
        assert rep["all_ok"] is True and rep["rank"] == 3


def test_axioms_catch_a_tampered_line(sp62):
    lines = list(sp62.structure.lines)
    lines[0] = (0, 3, 5)  # now two lines pass through the pair {0, 3}
    rep = check_polar_axioms(IncidenceStructure(63, lines))
    assert not rep["partial_linear"]
    assert not rep["all_ok"]
    assert "partial_linear" in rep["witnesses"]


def test_axioms_catch_a_dropped_line(sp62):
    rep = check_polar_axioms(IncidenceStructure(63, sp62.structure.lines[1:]))
    assert rep["partial_linear"] and rep["thick"] and rep["nondegenerate"]
    assert not rep["one_or_all"]
    w = rep["witnesses"]["one_or_all"]
    assert {"point", "line", "collinear_count"} <= set(w)


def test_axioms_catch_thin_and_degenerate():
    thin = IncidenceStructure(4, [(0, 1), (2, 3)])
    rep = check_polar_axioms(thin)
    assert not rep["thick"]
    cone = IncidenceStructure(3, [(0, 1, 2)])
    assert "nondegenerate" in check_polar_axioms(cone)["witnesses"]


def test_compute_rank_on_small_structures():
    line = IncidenceStructure(3, [(0, 1, 2)])
    assert compute_rank(line) == 2
    assert compute_rank(IncidenceStructure(0, [])) == 0


def test_point_order_is_deterministic(sp62, gf2):
    rebuilt = build_polar(symplectic_form(6, gf2))
    assert rebuilt.points == sp62.points
    assert rebuilt.structure == sp62.structure
    assert rebuilt.singular_planes() == sp62.singular_planes()


def test_degenerate_form_is_rejected(gf2):
    # a symplectic gram with a zero block pairs nothing with coordinate 4/5
    g = [[0] * 6 for _ in range(6)]
    g[0][1], g[1][0] = 1, 1
    g[2][3], g[3][2] = 1, 1
    form = FormSpec("symplectic", gf2, 6, tuple(tuple(r) for r in g))
    with pytest.raises(ConfigurationError, match="points 0 and 3 span no line of 3 points"):
        PolarSpace(form)
    # the zero form on a projective line: one line, every point on it
    zero = FormSpec("symplectic", gf2, 2, ((0, 0), (0, 0)))
    with pytest.raises(ConfigurationError, match="point 0 is collinear with every point"):
        PolarSpace(zero)


def test_repr(sp62):
    assert "symplectic" in repr(sp62)
    assert "rank 3" in repr(sp62)
