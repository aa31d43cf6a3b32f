"""Intrinsic parallelism, the derived relations, and reassembly of the base.

The order-2 symplectic complements cover the plain cases; the order-3
hyperbolic line-perp horizon has a genuinely unreachable horizon line and
so exercises the first new-line family.  Two pinned cases document that the
crossing-configuration relation underdetects parallelism on perp-meet
horizons at order 2; those horizons are deliberately not in the default
suite.
"""

import copy
import itertools
import random
import types

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as hst

from polarcomp.complement import Complement, build_complement, resolve_horizon
from polarcomp.errors import HorizonRefusal
from polarcomp.incidence import bits, is_isomorphism
from polarcomp.polar import build_polar, hermitian_form
from polarcomp.reconstruct import Parallelism, Run, canonical_map, reconstruct

from oracles import (
    class_equiv,
    class_reach_scan,
    crossing_scan,
    drop_proper_line,
    lines_prime_scan,
    lines_second_scan,
    plane_crossing_rows,
    random_reach,
    star_parallel,
    star_table,
    ternary_scan,
)


# ---------------------------------------------------------------------------
# the relation itself
# ---------------------------------------------------------------------------


def test_star_matches_precomputed_rows(comp_line, par_line):
    aff = comp_line.affine_lines()
    sample = aff[:6] + aff[20:24]
    for i, k in enumerate(sample):
        for l in sample[i + 1 :]:
            assert star_parallel(comp_line, k, l) == bool((par_line.star_rows[k] >> l) & 1)


def test_star_is_irreflexive_on_meeting_lines(comp_point, par_point):
    # lines sharing a proper point are never star-related
    k = comp_point.affine_lines()[0]
    p = next(iter(bits(comp_point.line_trace[k])))
    for l in bits(comp_point.lines_at_point(p)):
        if l != k:
            assert not (par_point.star_rows[k] >> l) & 1
            assert not star_parallel(comp_point, k, l)


MATRIX_SPECS = ["point 0", "line 0", "span", "meet perp 0 perp 3", "plane 0", ""]
MATRIX_SPACES = ["sp62", "q52", "q62"]


def _matrix_complements(space, spec, request):
    """The complement of ``spec`` in ``space``, intact and with line 0 dropped;
    ``span`` spans point 0 and the first point not collinear with it."""
    ps = request.getfixturevalue(space)
    if spec == "span":
        st = ps.structure
        spec = f"span 0,{next(j for j in range(1, st.n_points) if not (st.adj[0] >> j & 1))}"
    comp = build_complement(ps, resolve_horizon(ps, spec))
    return comp, drop_proper_line(comp, 0)


@pytest.mark.parametrize("spec", MATRIX_SPECS)
@pytest.mark.parametrize("space", MATRIX_SPACES)
def test_star_rows_match_pairwise_oracle(space, spec, request):
    for c in _matrix_complements(space, spec, request):
        rows = star_table(c)
        assert Parallelism(c).star_rows == rows
        assert crossing_scan(c) == rows


def test_star_rows_match_pairwise_oracle_q53(comp_q53_lperp, par_q53):
    assert par_q53.star_rows == star_table(comp_q53_lperp)


def test_star_rows_match_pairwise_oracle_q53_perp(q53):
    comp = build_complement(q53, q53.structure.adj[0])
    rows = Parallelism(comp).star_rows
    assert any(rows)
    assert rows == star_table(comp)


def test_star_rows_match_crossing_scan_sp63(sp63):
    # the pairwise oracle takes minutes here; the global crossing scan does not
    comp = build_complement(sp63, sp63.structure.line_masks[0])
    rows = Parallelism(comp).star_rows
    assert any(rows)
    assert rows == crossing_scan(comp)


@pytest.mark.parametrize(
    "space, spec",
    [("sp62", "point 0"), ("sp62", "line 0"), ("q53", "meet perp 0 perp 3"), ("herm54", "line 0")],
)
def test_star_rows_match_plane_crossing_oracle(space, spec, request):
    """One bit test per disjoint pair gives the relation that the crossing
    sets of each plane give, also with a line gone."""
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, spec))
    aff = comp.affine_lines()
    for c in (comp, drop_proper_line(comp, 0), drop_proper_line(comp, aff[len(aff) // 2])):
        rows = Parallelism(c).star_rows
        assert any(rows)
        assert rows == plane_crossing_rows(c)


# no shrink phase: every shrink step would rerun the slow oracle
@settings(max_examples=8, derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    hst.sampled_from(["sp62", "q52", "q62"]),
    hst.sampled_from(["point", "line", "span", "perp-meet"]),
    hst.integers(0, 10**6),
    hst.integers(0, 10**6),
)
def test_star_rows_match_pairwise_oracle_on_random_horizons(request, space, kind, i, j):
    ps = request.getfixturevalue(space)
    st = ps.structure
    spec = {
        "point": f"point {i % st.n_points}",
        "line": f"line {i % len(st.lines)}",
        "span": f"span {i % st.n_points},{j % st.n_points}",
        "perp-meet": f"meet perp {i % st.n_points} perp {j % st.n_points}",
    }[kind]
    try:
        comp = build_complement(ps, resolve_horizon(ps, spec))
    except HorizonRefusal:
        assume(False)
    assert Parallelism(comp).star_rows == star_table(comp)


def test_herm54_point_horizon_is_recovered(gf4):
    ps = build_polar(hermitian_form(5, gf4))
    comp = build_complement(ps, 1 << 0)
    run = Run(comp)
    par = run.parallelism
    assert par.table() == comp.parallel_table()
    ok, cert = run.canonical_isomorphism
    assert ok, cert
    assert par.star_rows == crossing_scan(comp)


def _ternary_triples(par):
    triples = itertools.combinations(range(par.n_classes), 3)
    return {t for t in triples if par.ternary_collinear(*t)}


@pytest.mark.parametrize("spec", MATRIX_SPECS)
@pytest.mark.parametrize("space", MATRIX_SPACES)
def test_ternary_collinear_matches_global_scan(space, spec, request):
    for c in _matrix_complements(space, spec, request):
        par = Parallelism(c)
        assert _ternary_triples(par) == ternary_scan(par)


def test_ternary_collinear_matches_global_scan_q53(par_q53):
    triples = _ternary_triples(par_q53)
    assert 0 < len(triples) < 1540
    assert triples == ternary_scan(par_q53)


@pytest.mark.parametrize("spec", MATRIX_SPECS)
@pytest.mark.parametrize("space", MATRIX_SPACES)
def test_class_tables_match_per_line_oracles(space, spec, request):
    for c in _matrix_complements(space, spec, request):
        par = Parallelism(c)
        full = (1 << par.n_classes) - 1
        assert par.related == [full & ~row for row in class_reach_scan(par)]
        assert par.lines_second() == lines_second_scan(par)


def test_class_tables_match_per_line_oracles_q53(par_q53):
    full = (1 << par_q53.n_classes) - 1
    assert par_q53.related == [full & ~row for row in class_reach_scan(par_q53)]
    assert par_q53.lines_second() == lines_second_scan(par_q53)


def test_point_horizon_single_class(comp_point, par_point):
    assert par_point.n_classes == 1
    assert par_point.classes == [tuple(comp_point.affine_lines())]
    assert par_point.table() == comp_point.parallel_table()
    assert comp_point.affine_lines()[0] in par_point.class_id
    assert 300 not in par_point.class_id
    assert par_point.lines_prime() == []
    assert par_point.lines_second() == []


def test_affine_detection_matches_ground(comp_point, comp_line, par_point, par_line):
    assert set(par_point.class_id) == set(comp_point.affine_lines())
    assert set(par_line.class_id) == set(comp_line.affine_lines())


def test_line_horizon_classes(comp_line, par_line):
    assert par_line.n_classes == 3
    # classes are fibers over the three horizon points
    for members in par_line.classes:
        dirs = {comp_line.point_at_infinity(k) for k in members}
        assert len(dirs) == 1
    assert par_line.table() == comp_line.parallel_table()


def test_parallel_is_reflexive_exactly_on_affine(par_line, comp_line):
    table = par_line.table()
    for k in range(comp_line.n_lines):
        assert bool((table[k] >> k) & 1) == comp_line.is_affine(k)


# The complement's ground-truth horizon geometry, and the plane transpose and
# chain trees that only the battery reads; the reconstruction must read
# neither.
NOT_READ_BY_RECOVERY = [
    "semiaffine_planes",
    "deep_points",
    "deep_lines",
    "parallel_table",
    "point_at_infinity",
    "horizon_parallel",
    "direction_of",
    "is_affine",
    "affine_lines",
    "line_planes",
    "plane_paths",
    "plane_path",
    "lines_at_point",
]


@pytest.mark.parametrize("space, spec", [("q53", "meet perp 0 perp 3"), ("sp62", "line 0")])
def test_reconstruction_reads_no_horizon_data(space, spec, request, monkeypatch):
    ps = request.getfixturevalue(space)
    horizon = resolve_horizon(ps, spec)
    # not mutually related, so ternary_collinear searches the planes they share
    triple = {"q53": (0, 2, 10), "sp62": (0, 1, 2)}[space]

    def families():
        par = Parallelism(build_complement(ps, horizon))
        collinear = par.ternary_collinear(*triple)
        return par.lines_prime(), par.lines_second(), reconstruct(par).families, collinear

    expected = families()
    assert expected[3] is True

    def refuse(*args):
        raise AssertionError("the reconstruction read data it must not")

    for name in NOT_READ_BY_RECOVERY:
        monkeypatch.setattr(Complement, name, refuse)
    assert families() == expected


# ---------------------------------------------------------------------------
# derived relations
# ---------------------------------------------------------------------------


def test_equiv_is_antireflexive(par_line):
    for c in range(par_line.n_classes):
        assert not (par_line.related[c] >> c & 1)


@pytest.mark.parametrize(
    "space, spec",
    [
        ("q53", "meet perp 0 perp 3"),  # the line-perp fixture: one deep line
        ("sp63", "line 0"),
        ("qm72", "meet perp 0 perp 1"),  # order 2: the intrinsic relation diverges
    ],
)
def test_related_rows_match_oracle(space, spec, request):
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, spec))
    for c in (comp, drop_proper_line(comp, 0)):
        par = Parallelism(c)
        nc = par.n_classes
        full = (1 << nc) - 1
        reach = class_reach_scan(par)
        assert len(par.related) == nc
        for c1, row in enumerate(reach):  # symmetric and reflexive
            assert row >> nc == 0 and (row >> c1) & 1
            assert all((reach[c2] >> c1) & 1 for c2 in bits(row))
            assert par.related[c1] == full & ~row
        for c1, row in enumerate(par.related):
            assert row >> nc == 0 and not (row >> c1) & 1  # irreflexive
            for c2 in range(nc):
                related = bool((row >> c2) & 1)
                assert related == bool((par.related[c2] >> c1) & 1)  # symmetric
                assert related == class_equiv(reach, c1, c2) == (par.related[c1] >> c2 & 1)
        assert par.lines_prime() == lines_prime_scan(par, reach)


@pytest.mark.parametrize("density", [0.05, 0.2, 0.5])
def test_related_rows_match_oracle_on_random_reach(par_q53, density):
    # Reach rows of real complements are symmetric and reflexive, and so are
    # these random ones; their related classes, unlike real ones, need not
    # form cliques.
    nc = par_q53.n_classes
    par = copy.copy(par_q53)
    reach = random_reach(nc, density, random.Random(density))
    par.related = [((1 << nc) - 1) & ~row for row in reach]
    for c1 in range(nc):
        for c2 in range(nc):
            assert (par.related[c1] >> c2 & 1) == class_equiv(reach, c1, c2)
    assert par.lines_prime() == lines_prime_scan(par, reach)
    assert len(par.lines_prime()) > 1


def test_line_horizon_has_no_equiv_pairs(par_line):
    # the horizon line is realized by the planes over it, hence not deep,
    # and the relation on classes must agree
    assert [
        (a, b)
        for a in range(3)
        for b in range(a + 1, 3)
        if par_line.related[a] >> b & 1
    ] == []
    assert par_line.lines_prime() == []


def test_line_horizon_second_family(par_line):
    # every semiaffine plane with a full direction triple sees the whole
    # horizon line, so one set survives deduplication
    assert par_line.lines_second() == [(0, 1, 2)]


def test_ternary_on_the_line_horizon(par_line):
    assert par_line.ternary_collinear(0, 1, 2)
    with pytest.raises(ValueError, match="distinct"):
        par_line.ternary_collinear(0, 1, 1)


def test_reconstruct_point_horizon(par_point, sp62):
    recon = reconstruct(par_point)
    st = recon.structure
    assert st.n_points == 63
    assert len(st.lines) == 315
    assert len(par_point.comp.proper_points) == 62
    assert len(recon.families["extended"]) == 315
    assert recon.families["prime"] == []
    assert recon.families["second"] == []
    mapping = canonical_map(par_point)
    assert mapping[len(par_point.comp.proper_points)] == 0  # the class lands on the removed point
    ok, cert = is_isomorphism(st, sp62.structure, mapping)
    assert ok, cert


def test_reconstruct_line_horizon(par_line, sp62):
    recon = reconstruct(par_line)
    assert recon.structure.n_points == 63
    assert len(recon.structure.lines) == 315
    assert len(recon.families["second"]) == 1
    ok, cert = is_isomorphism(recon.structure, sp62.structure, canonical_map(par_line))
    assert ok, cert


def test_reconstruct_refuses_hyperplane_horizon(sp62):
    comp = build_complement(sp62, sp62.structure.adj[0])
    run = Run(comp)
    with pytest.raises(HorizonRefusal, match="delegated"):
        run.parallelism
    with pytest.raises(HorizonRefusal, match="delegated"):
        run.reconstruction


def test_package_attribute_is_the_reconstruct_module():
    import polarcomp.reconstruct as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.reconstruct)


def test_reconstruct_empty_horizon(sp62):
    run = Run(build_complement(sp62, 0))
    recon = run.reconstruction
    assert run.parallelism.n_classes == 0
    ok, _ = is_isomorphism(recon.structure, sp62.structure, run.canonical_map)
    assert ok


# ---------------------------------------------------------------------------
# the deep-line configuration over order 3
# ---------------------------------------------------------------------------


def test_q53_line_perp_horizon_shape(comp_q53_lperp, q53):
    st = q53.structure
    assert comp_q53_lperp.horizon.bit_count() == 22
    assert len(comp_q53_lperp.proper_points) == 108
    assert comp_q53_lperp.n_lines == 495
    assert len(comp_q53_lperp.horizon_line_ids) == 25
    assert comp_q53_lperp.deep_points() == 0
    assert comp_q53_lperp.deep_lines() == [0]
    assert not st.is_hyperplane(comp_q53_lperp.horizon)


def test_q53_classes_and_tables(comp_q53_lperp, par_q53):
    assert par_q53.n_classes == 22
    assert par_q53.table() == comp_q53_lperp.parallel_table()
    assert set(par_q53.class_id) == set(comp_q53_lperp.affine_lines())


def test_q53_prime_family_recovers_the_deep_line(comp_q53_lperp, par_q53, q53):
    prime = par_q53.lines_prime()
    assert prime == [(0, 1, 8, 9)]
    (group,) = prime
    assert len(group) == q53.form.field.q + 1
    # its directions are exactly the deep line
    dirs = set()
    for c in group:
        for k in par_q53.classes[c]:
            dirs.add(comp_q53_lperp.point_at_infinity(k))
    assert dirs == set(q53.structure.lines[0])
    # generating pairs are related, and so are all pairs inside the group
    for i, c1 in enumerate(group):
        for c2 in group[i + 1 :]:
            assert par_q53.related[c1] >> c2 & 1


def test_q53_second_family(par_q53):
    second = par_q53.lines_second()
    assert len(second) == 24
    assert all(len(g) == 4 for g in second)
    assert set(second).isdisjoint(par_q53.lines_prime())


def test_q53_ternary_against_ground(comp_q53_lperp, par_q53, q53):
    st = q53.structure
    dirs = []
    for members in par_q53.classes:
        dirs.append(comp_q53_lperp.point_at_infinity(members[0]))
    checked = disagree = 0
    for a in range(0, 22, 3):
        for b in range(a + 1, 22, 2):
            for c in range(b + 1, 22):
                line = comp_q53_lperp.base.line_through(dirs[a], dirs[b]) if st.adj[dirs[a]] >> dirs[b] & 1 else None
                ground = line is not None and (st.line_masks[line] >> dirs[c]) & 1
                checked += 1
                if par_q53.ternary_collinear(a, b, c) != bool(ground):
                    disagree += 1
    assert checked > 300
    assert disagree == 0


def test_q53_reconstruction_counts(par_q53, q53):
    recon = reconstruct(par_q53)
    assert recon.structure.n_points == 130
    assert len(recon.structure.lines) == 495 + 1 + 24
    # every line is built ascending: class points follow the proper points
    for lines in recon.families.values():
        assert all(a < b for line in lines for a, b in zip(line, line[1:]))
    ok, cert = is_isomorphism(recon.structure, q53.structure, canonical_map(par_q53))
    assert ok, cert


# ---------------------------------------------------------------------------
# pinned divergence on perp-meet horizons at order 2
# ---------------------------------------------------------------------------


def test_perp_meet_horizon_diverges_collinear_pair(sp62):
    st = sp62.structure
    comp = build_complement(sp62, st.adj[0] & st.adj[3])  # 0 and 3 share line 0
    assert comp.horizon.bit_count() == 15
    par = Parallelism(comp)
    ground_dirs = {comp.point_at_infinity(k) for k in comp.affine_lines()}
    assert len(ground_dirs) == 15
    assert par.n_classes == 12  # too few: some fibers are not connected
    assert par.table() != comp.parallel_table()


def test_perp_meet_horizon_diverges_noncollinear_pair(sp62):
    st = sp62.structure
    assert not (st.adj[0] >> 1 & 1)
    comp = build_complement(sp62, st.adj[0] & st.adj[1])
    par = Parallelism(comp)
    assert par.table() != comp.parallel_table()
