"""Complements: proper points and lines, horizon data, searches, resolver."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from polarcomp.algebra import GF
from polarcomp.complement import Complement, build_complement, horizon_atoms, resolve_horizon
from polarcomp.errors import ConfigurationError, HorizonRefusal, LemmaFalsified
from polarcomp.incidence import bits, mask_of
from polarcomp.polar import build_polar, hyperbolic_form
from polarcomp.reconstruct import Parallelism
from oracles import (
    affine_plane_horizon,
    affine_semiaffine_planes,
    drop_proper_line,
    plane_lines_scan,
    plane_path_scan,
    realized_deep_points,
    unrealized_deep_lines,
)


def test_point_horizon_counts(comp_point):
    assert len(comp_point.proper_points) == 62
    assert comp_point.n_lines == 315
    assert len(comp_point.affine_lines()) == 15
    assert comp_point.deep_points() == 0
    assert comp_point.horizon_line_ids == []
    assert comp_point.deep_lines() == []


def test_point_horizon_parallel_fibers(comp_point):
    # all affine lines pass through the removed point, one common direction
    aff = comp_point.affine_lines()
    assert all(comp_point.point_at_infinity(k) == 0 for k in aff)
    table = comp_point.parallel_table()
    fiber = mask_of(aff)
    for k in range(comp_point.n_lines):
        assert table[k] == (fiber if k in aff else 0)
    assert comp_point.horizon_parallel(aff[0], aff[1])
    assert not comp_point.horizon_parallel(aff[0], 300)


def test_line_horizon_counts(comp_line, sp62):
    assert len(comp_line.proper_points) == 60
    assert comp_line.n_lines == 314
    assert len(comp_line.affine_lines()) == 42
    assert comp_line.deep_points() == 0
    assert comp_line.horizon_line_ids == [0]
    assert comp_line.deep_lines() == []  # planes over the line realize it
    # each horizon point is hit by 14 affine lines
    for d in bits(comp_line.horizon):
        assert sum(1 for k in comp_line.affine_lines()
                   if comp_line.point_at_infinity(k) == d) == 14


def test_perp_horizon(sp62):
    st = sp62.structure
    comp = build_complement(sp62, st.adj[0])
    assert len(comp.proper_points) == 32
    assert comp.n_lines == 240
    assert comp.deep_points() == 1 << 0
    assert comp.deep_points() & ~st.radical_of(st.adj[0]) == 0
    # a hyperplane horizon meets every line, so every proper line is affine
    assert len(comp.affine_lines()) == comp.n_lines


def test_empty_horizon(sp62):
    comp = build_complement(sp62, 0)
    assert len(comp.proper_points) == 63
    assert comp.affine_lines() == []
    assert comp.deep_points() == 0
    assert comp.semiaffine_planes() == []
    assert comp.line_trace == sp62.structure.line_masks


def test_traces_and_closures(comp_line, sp62):
    st = sp62.structure
    for k in range(comp_line.n_lines):
        base_mask = st.line_masks[comp_line.line_closure[k]]
        assert comp_line.line_trace[k] == base_mask & comp_line.proper_mask
        assert comp_line.line_trace[k].bit_count() in (2, 3)
    assert len(set(comp_line.line_closure)) == comp_line.n_lines


def test_affine_flag_against_closure(comp_line, sp62):
    st = sp62.structure
    for k in range(comp_line.n_lines):
        meets = st.line_masks[comp_line.line_closure[k]] & comp_line.horizon
        assert comp_line.is_affine(k) == (meets != 0)
        assert meets.bit_count() <= 1
    with pytest.raises(ValueError):
        comp_line.point_at_infinity(comp_line.n_lines - 1)  # disjoint from horizon


def test_direction_of(comp_line):
    """The one shared point at infinity, or None for mixed, non-affine or no lines."""
    by_direction = {}
    for k in comp_line.affine_lines():
        by_direction.setdefault(comp_line.point_at_infinity(k), []).append(k)
    (d1, fiber1), (d2, fiber2) = list(by_direction.items())[:2]
    assert comp_line.direction_of(fiber1) == d1
    assert comp_line.direction_of(fiber2[:1]) == d2
    assert comp_line.direction_of(fiber1 + fiber2[:1]) is None
    ground = next(k for k in range(comp_line.n_lines) if not comp_line.is_affine(k))
    assert comp_line.direction_of(fiber1 + [ground]) is None
    assert comp_line.direction_of([ground]) is None
    assert comp_line.direction_of([]) is None


def test_lines_off_the_horizon_keep_their_base_mask(q53):
    comp = build_complement(q53, resolve_horizon(q53, "point 0"))
    masks = q53.structure.line_masks
    whole = [k for k in range(comp.n_lines) if not comp.is_affine(k)]
    assert whole
    for k in whole:
        assert comp.line_trace[k] is masks[comp.line_closure[k]], k


def test_lines_at_point(comp_point):
    for p in comp_point.proper_points[:10]:
        ids = list(bits(comp_point.lines_at_point(p)))
        assert len(ids) == 15
        assert all((comp_point.line_trace[k] >> p) & 1 for k in ids)


@pytest.mark.parametrize("space, spec", [("q53", "meet perp 0 perp 3"), ("qm72", "point 0")])
@pytest.mark.parametrize("dropped", [False, True])
def test_lines_at_point_match_trace_scan(space, spec, dropped, request):
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, spec))
    if dropped:
        comp = drop_proper_line(comp, comp.n_lines // 2)
    for p in comp.proper_points:
        scan = mask_of(k for k, trace in enumerate(comp.line_trace) if trace >> p & 1)
        assert comp.lines_at_point(p) == scan, p


def test_planes_and_semiaffine(comp_point):
    # 135 base planes off the removed point's horizon, the complement's 15 over it
    assert _counted(comp_point) == (135, 15)
    planes = comp_point.planes()
    assert all(plane & comp_point.proper_mask for plane in planes)
    assert comp_point.semiaffine_planes() == list(range(15))
    for pi in range(15):
        assert comp_point.planes()[pi] & comp_point.horizon == 1 << 0


@pytest.mark.parametrize(
    "space, spec, n_deep_points, n_deep_lines",
    [
        ("sp62", "perp 0", 1, 15),
        ("q53", "perp 0", 1, 16),
        ("q53", "meet perp 0 perp 3", 0, 1),
        ("sp62", "meet perp 0 perp 3", 0, 1),
        ("qm72", "meet perp 0 perp 1", 0, 0),
        ("sp63", "line 0", 0, 0),
        ("sp62", "", 0, 0),
    ],
)
def test_horizon_notions_match_affine_line_oracles(
    space, spec, n_deep_points, n_deep_lines, request
):
    """Deep points and lines read from perps, and semiaffine planes and their
    infinities read from plane masks, agree with the affine-line definitions:
    every plane of the complement holds an affine line."""
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, spec))
    assert comp.deep_points() == realized_deep_points(comp)
    assert comp.deep_points().bit_count() == n_deep_points
    assert comp.semiaffine_planes() == affine_semiaffine_planes(comp)
    for pi in range(len(comp.planes())):
        assert comp.planes()[pi] & comp.horizon == affine_plane_horizon(comp, pi) != 0, pi
    assert comp.deep_lines() == unrealized_deep_lines(comp)
    assert len(comp.deep_lines()) == n_deep_lines


def _horizon(ps, spec):
    """A horizon by spec; ``span`` joins point 0 to its first noncollinear
    point, ``line-perp`` is the perp of line 0, ``section`` the first ambient
    hyperplane section that is no perp."""
    st = ps.structure
    if spec == "section":
        return next(c for c in ps.hyperplane_candidates() if c not in st.adj)
    if spec == "span":
        b = next(j for j in range(1, st.n_points) if not (st.adj[0] >> j & 1))
        return resolve_horizon(ps, f"span 0,{b}")
    if spec == "line-perp":
        return st.set_perp(st.line_masks[0])
    return resolve_horizon(ps, spec)


@pytest.mark.parametrize("space", ["sp62", "q62", "q53"])
@pytest.mark.parametrize("spec", ["point 0", "line 0", "plane 0", "perp 0", "span"])
def test_plane_lines_match_scan_oracle(space, spec, request):
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, _horizon(ps, spec))
    # ascending id tuples, equal as sets to the scan's masks
    rows = [comp.plane_lines(pi) for pi in range(len(comp.planes()))]
    assert rows == [tuple(bits(m)) for m in plane_lines_scan(comp)]
    # drop a line that lies in a plane, so the rows lose it
    k = next(r[0] for r in rows if r)
    dropped = drop_proper_line(comp, k)
    rows = [dropped.plane_lines(pi) for pi in range(len(dropped.planes()))]
    assert rows == [tuple(bits(m)) for m in plane_lines_scan(dropped)]


def _counted(comp):
    """The base planes not inside the horizon and those meeting it, counted
    from the base planes; the complement's planes are the second list."""
    off = [m for m in comp.base.singular_planes() if m & comp.proper_mask]
    meeting = [m for m in off if m & comp.horizon]
    assert comp.planes() == meeting
    return len(off), len(meeting)


@pytest.mark.parametrize("space", ["sp62", "q52"])
def test_plane_counts_match_enumeration_on_every_atom(space, request):
    """Counts read from the line perps equal the enumerated planes on every
    point, line, plane and perp horizon that the complement accepts."""
    ps = request.getfixturevalue(space)
    seen = 0
    for kind in ("point", "line", "plane", "perp"):
        for h in horizon_atoms(ps, kind):
            try:
                comp = build_complement(ps, h)
            except HorizonRefusal:
                continue
            assert comp.plane_counts() == _counted(comp), (kind, h)
            seen += 1
    assert seen > 200


def test_horizon_atoms_takes_only_the_four_kinds(sp62):
    with pytest.raises(ValueError, match="^unknown horizon atom kind 'points'$") as raised:
        horizon_atoms(sp62, "points")
    assert raised.type is ValueError  # no spec the CLI reads gets here


LARGE_COUNT_CASES = [
    ("herm54", "line 0"),
    ("sp82", "point 0"),
    ("q63", "meet perp 0 perp 1"),
    ("sp63", "perp 0"),
    ("qm72", "line 0"),
    ("q62", ""),
]


@pytest.mark.parametrize("space,spec", LARGE_COUNT_CASES)
def test_plane_counts_match_enumeration_beyond_order_two(space, spec, request):
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, spec))
    assert comp.plane_counts() == _counted(comp)


def test_plane_counts_match_enumeration_on_a_rank_four_order_three_space():
    ps = build_polar(hyperbolic_form(7, GF(3)))
    st = ps.structure
    assert ps.line_perps == [st.set_perp(m) for m in st.line_masks]
    comp = build_complement(ps, resolve_horizon(ps, "point 0"))
    n_planes, n_semiaffine = comp.plane_counts()
    assert (n_planes, n_semiaffine) == _counted(comp)
    assert n_planes == 44800


@pytest.mark.parametrize(
    "space, spec", [("sp62", "line 0"), ("q53", "meet perp 0 perp 3"), ("qm72", "point 0")]
)
def test_dropping_a_line_loses_no_plane(space, spec, request):
    """A plane meeting the horizon holds at least ``q + 1`` short lines, so a
    complement short of one line, short or whole, still finds every plane."""
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, spec))
    whole = next(k for k in range(comp.n_lines) if not comp.is_affine(k))
    for k in (comp.affine_lines()[0], whole):
        dropped = drop_proper_line(comp, k)
        assert _counted(dropped) == comp.plane_counts()
        assert dropped.planes() == comp.planes()


@pytest.mark.parametrize("space", ["sp62", "q52", "herm54", "sp82", "q63", "sp63", "qm72"])
def test_line_perps_are_the_perps_of_the_lines(space, request):
    ps = request.getfixturevalue(space)
    st = ps.structure
    assert ps.line_perps == [st.set_perp(m) for m in st.line_masks]


def test_plane_counts_refuse_a_perp_that_is_no_union_of_planes(sp62):
    """A perp short of one point covers no whole number of planes: the count
    raises rather than rounding."""
    comp = build_complement(sp62, 1 << 0)
    perps = list(sp62.line_perps)
    perps[0] &= perps[0] - 1
    comp.base = copy.copy(sp62)
    comp.base.line_perps = perps
    with pytest.raises(LemmaFalsified, match="not a multiple"):
        comp.plane_counts()


def test_plane_horizon_sizes_on_a_line_horizon(comp_line):
    sizes = {(comp_line.planes()[pi] & comp_line.horizon).bit_count()
             for pi in comp_line.semiaffine_planes()}
    assert sizes == {1, 3}
    assert len(comp_line.semiaffine_planes()) == 39


def test_avoiding_hyperplane_postconditions(comp_point, sp62):
    st = sp62.structure
    aff = comp_point.affine_lines()
    for k, l in [(aff[0], aff[1]), (aff[2], aff[9]), (aff[13], aff[14])]:
        h = comp_point.avoiding_hyperplane(k, l)
        assert st.is_hyperplane(h)
        assert not comp_point.horizon & ~h
        assert st.line_masks[comp_point.line_closure[k]] & ~h
        assert st.line_masks[comp_point.line_closure[l]] & ~h


def test_avoiding_hyperplane_usage_errors(comp_point):
    aff = comp_point.affine_lines()
    with pytest.raises(ValueError, match="distinct"):
        comp_point.avoiding_hyperplane(aff[0], aff[0])
    with pytest.raises(ValueError, match="not parallel"):
        comp_point.avoiding_hyperplane(aff[0], 300)


@pytest.mark.parametrize(
    "space, horizon",
    [("sp62", "perp 0"), ("q62", "perp 0"), ("q53", "perp 5"), ("q53", "section")],
)
def test_hyperplane_horizon_avoids_via_itself(space, horizon, request):
    """The only candidate over a hyperplane horizon is the horizon itself."""
    ps = request.getfixturevalue(space)
    h = _horizon(ps, horizon)
    assert ps.structure.is_hyperplane(h)
    comp = build_complement(ps, h)
    fibers = {}
    for k in comp.affine_lines():
        fibers.setdefault(comp.point_at_infinity(k), []).append(k)
    pairs = [(k, l) for ks in fibers.values() for i, k in enumerate(ks) for l in ks[i + 1 :]]
    assert pairs
    for k, l in pairs:
        assert comp.avoiding_hyperplane(k, l) == comp.horizon


@pytest.mark.parametrize(
    "space, horizon",
    [
        ("sp62", "perp 0"), ("q62", "perp 0"), ("q53", "perp 5"), ("q53", "section"),
        ("sp62", "point 0"), ("q62", "line 0"), ("q53", "span"),
    ],
)
def test_delegated_exactly_over_hyperplanes(space, horizon, request):
    """The one candidate hyperplane over the horizon is the horizon itself
    exactly when the horizon is a hyperplane."""
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, _horizon(ps, horizon))
    delegated = comp.horizon_is_hyperplane
    assert delegated == ps.structure.is_hyperplane(comp.horizon)
    assert delegated == horizon.startswith(("perp", "section"))


def test_plane_path(comp_point, monkeypatch):
    aff = comp_point.affine_lines()
    a = comp_point.point_at_infinity(aff[0])
    lengths = set()
    for l in aff[1:]:
        path = comp_point.plane_path(aff[0], l)
        lengths.add(len(path))
        assert aff[0] in comp_point.plane_lines(path[0])
        assert l in comp_point.plane_lines(path[-1])
        for pi in path:
            assert (comp_point.planes()[pi] >> a) & 1
        for pi, pj in zip(path, path[1:]):
            assert set(comp_point.plane_lines(pi)) & set(comp_point.plane_lines(pj))
    assert 1 in lengths  # coplanar pairs exist
    assert any(n >= 2 for n in lengths)  # and noncoplanar ones need a chain
    # with no tree reaching it, the chain search raises
    monkeypatch.setattr(Complement, "plane_paths", lambda self, k: {})
    error = f"no plane chain joins lines {aff[0]} and {aff[1]} through their point at infinity"
    with pytest.raises(LemmaFalsified, match=f"^{error}$"):
        comp_point.plane_path(aff[0], aff[1])


PAIR_CASES = [
    (space, spec) for space in ("sp62", "q52", "q62") for spec in ("point 0", "line 0", "span")
] + [("q53", "line-perp")]


def _pair_complements(space, spec, request):
    """The complement, and a copy with its first affine line dropped."""
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, _horizon(ps, spec))
    return comp, drop_proper_line(comp, comp.affine_lines()[0])


def _parallel_pairs(comp):
    return [(k, l) for k in comp.affine_lines() for l in comp.affine_lines()
            if k < l and comp.horizon_parallel(k, l)]


@pytest.mark.parametrize("space,spec", PAIR_CASES)
def test_plane_path_matches_scan_oracle(space, spec, request):
    for comp in _pair_complements(space, spec, request):
        pairs = _parallel_pairs(comp)
        assert pairs
        for k, l in pairs:
            try:
                path = comp.plane_path(k, l)
            except LemmaFalsified:
                path = None
            assert path == plane_path_scan(comp, k, l), (k, l)


def _fibres(comp):
    """The affine lines grouped by point at infinity, each ascending."""
    out: dict[int, list[int]] = {}
    for k in comp.affine_lines():
        out.setdefault(comp.point_at_infinity(k), []).append(k)
    return list(out.values())


def test_plane_chains_step_only_through_the_fibre(q53, monkeypatch):
    """``line_planes`` is the transpose of ``plane_lines``, and a chain search
    asks it only about lines through the pair's point at infinity."""
    st = q53.structure
    comp = build_complement(q53, st.set_perp(st.line_masks[0]))
    for c in (comp, drop_proper_line(comp, comp.affine_lines()[0])):
        for k in range(c.n_lines):
            planes = [pi for pi in range(len(c.planes())) if k in c.plane_lines(pi)]
            assert c.line_planes(k) == planes, k
    asked = []
    line_planes = Complement.line_planes

    def spy(self, k):
        asked.append(k)
        return line_planes(self, k)

    monkeypatch.setattr(Complement, "line_planes", spy)
    for head, *rest in _fibres(comp):
        for l in rest:
            asked.clear()
            comp.plane_path(head, l)
            assert asked
            assert all(comp.horizon_parallel(head, j) for j in asked), (head, l)


ORDER_CASES = [
    ("herm54", "line 0"),
    ("sp63", "line 0"),
    ("q63", "meet perp 0 perp 1"),
    ("sp82", "point 0"),
    ("q54", "line 0"),
    ("q72", "line 0"),
]


@pytest.mark.parametrize("space,spec", ORDER_CASES)
def test_plane_tables_match_oracles_beyond_order_two(space, spec, request):
    """Chains from each fibre head to its second and last member match the
    scan, and the planes of each class are the transpose of the classes of
    each plane."""
    for comp in _pair_complements(space, spec, request):
        fibres = [f for f in _fibres(comp) if len(f) > 1]
        assert fibres
        for head, *rest in fibres:
            for l in {rest[0], rest[-1]}:
                try:
                    path = comp.plane_path(head, l)
                except LemmaFalsified:
                    path = None
                assert path == plane_path_scan(comp, head, l), (head, l)
        par = Parallelism(comp)
        assert par.n_classes
        assert par.class_planes == [
            mask_of(pi for pi, row in enumerate(par.plane_classes) if (row >> c) & 1)
            for c in range(par.n_classes)
        ]


@pytest.mark.parametrize("space,spec", PAIR_CASES)
def test_parallel_table_matches_horizon_parallel(space, spec, request):
    for comp in _pair_complements(space, spec, request):
        table = comp.parallel_table()
        for k in range(comp.n_lines):
            for l in range(comp.n_lines):
                assert bool((table[k] >> l) & 1) == comp.horizon_parallel(k, l), (k, l)


def test_drop_proper_line(comp_point):
    dropped = drop_proper_line(comp_point, 0)
    assert dropped.n_lines == comp_point.n_lines - 1
    gone = comp_point.line_closure[0]
    assert gone not in dropped.line_closure
    assert dropped._line_ids == sorted(dropped._line_ids)
    # the original complement is untouched
    assert comp_point.n_lines == 315


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


def test_rejects_non_subspace(sp62):
    first_line = sp62.structure.lines[0]
    with pytest.raises(ValueError, match="subspace"):
        build_complement(sp62, mask_of(first_line[:2]))
    with pytest.raises(ValueError, match="out-of-range"):
        Complement(sp62, 1 << 63)


def test_refuses_everything(sp62):
    with pytest.raises(HorizonRefusal, match="whole point set"):
        build_complement(sp62, sp62.structure.full_mask)


def test_refuses_horizon_without_candidate_hyperplane(sp62):
    """A quadric carved out of the symplectic structure is a subspace that
    spans the whole vector space, so no perp can contain it."""

    def qval(v):
        return (v[0] * v[0] + v[0] * v[1] + v[1] * v[1] + v[2] * v[3] + v[4] * v[5]) % 2

    w = mask_of(i for i, v in enumerate(sp62.points) if qval(v) == 0)
    st = sp62.structure
    assert w.bit_count() == 27
    assert st.is_subspace(w) and st.is_hyperplane(w)
    with pytest.raises(HorizonRefusal, match="no candidate hyperplane"):
        build_complement(sp62, w)


def test_lemma_falsified_is_not_raised_spuriously(comp_point):
    # sanity: the two guaranteed searches never raise on a valid pair
    aff = comp_point.affine_lines()
    try:
        comp_point.avoiding_hyperplane(aff[0], aff[1])
        comp_point.plane_path(aff[0], aff[1])
    except LemmaFalsified as exc:  # pragma: no cover
        pytest.fail(f"guaranteed search failed: {exc}")


# ---------------------------------------------------------------------------
# horizon mini-language
# ---------------------------------------------------------------------------


def test_resolver_basic_specs(sp62):
    st = sp62.structure
    assert resolve_horizon(sp62, "point 5") == 1 << 5
    assert resolve_horizon(sp62, "perp 0") == st.adj[0]
    assert resolve_horizon(sp62, "line 2") == st.line_masks[2]
    assert resolve_horizon(sp62, "plane 0") == sp62.singular_planes()[0]
    assert resolve_horizon(sp62, "meet perp 0 perp 1") == st.adj[0] & st.adj[1]
    assert resolve_horizon(sp62, "span 0") == 1 << 0
    assert resolve_horizon(sp62, "") == 0


def test_resolver_span_closes_up(sp62):
    st = sp62.structure
    a, b, c = st.lines[0]
    assert resolve_horizon(sp62, f"span {a},{b}") == st.line_masks[0]
    assert resolve_horizon(sp62, f"span {a},{b},{c}") == st.line_masks[0]


def test_resolver_nested_meet(sp62):
    st = sp62.structure
    spec = "meet perp 0 meet perp 1 perp 2"
    assert resolve_horizon(sp62, spec) == st.adj[0] & st.adj[1] & st.adj[2]
    spec = "meet meet perp 0 perp 1 meet line 0 perp 2"
    assert resolve_horizon(sp62, spec) == st.adj[0] & st.adj[1] & st.line_masks[0] & st.adj[2]


def test_resolver_nesting_is_not_bounded_by_recursion(sp62):
    st = sp62.structure
    deep = "meet perp 0 " * 5000
    assert resolve_horizon(sp62, deep + "perp 1") == st.adj[0] & st.adj[1]
    with pytest.raises(ConfigurationError, match="ended early"):
        resolve_horizon(sp62, deep)


@pytest.mark.parametrize(
    "spec",
    [
        "point",
        "point x",
        "point 99",
        "perp -1",
        "line 999",
        "plane 9999",
        "meet perp 0",
        "span",
        "span ,",
        "span a,b",
        "span 0,99",
        "orbit 3",
        "point 0 extra",
    ],
)
def test_resolver_rejects_malformed_specs(sp62, spec):
    with pytest.raises(ConfigurationError):
        resolve_horizon(sp62, spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("plane 99999", "plane id 99999 out of range"),
        ("perp -1", "perp id -1 out of range"),
        ("point 63", "point id 63 out of range"),
    ],
)
def test_resolver_out_of_range_messages(sp62, spec, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        resolve_horizon(sp62, spec)


_SPEC_TOKEN = hst.one_of(
    hst.sampled_from(["point", "line", "plane", "perp", "meet", "span"]),
    hst.integers(-5, 400).map(str),
    hst.lists(hst.integers(-3, 70), max_size=4).map(lambda ids: ",".join(map(str, ids))),
    hst.text(max_size=6),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(hst.lists(_SPEC_TOKEN, max_size=8).map(" ".join))
def test_resolver_raises_only_value_error(sp62, text):
    st = sp62.structure
    try:
        mask = resolve_horizon(sp62, text)
    except ConfigurationError:
        return
    assert not mask & ~st.full_mask
    assert st.is_subspace(mask)
