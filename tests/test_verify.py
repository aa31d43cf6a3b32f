"""Isomorphism checking, the independent search, and the check battery."""

import copy
import hashlib
import itertools
import json
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as hst

import polarcomp.verify as verify_module
from polarcomp.complement import Complement, build_complement, resolve_horizon
from polarcomp.errors import HorizonRefusal, LemmaFalsified
from polarcomp.incidence import IncidenceStructure, bits, is_isomorphism
from polarcomp.polar import PolarSpace
from polarcomp.reconstruct import Parallelism, Run, reconstruct
from polarcomp.verify import (
    CheckResult,
    _horizon_collinear,
    _joint_colors,
    find_isomorphism,
    run_lemma_battery,
)
from oracles import (
    class_equiv,
    drop_proper_line,
    fibration_mismatch,
    partial_linear_scan,
    random_reach,
    refined_colors,
    tuple_is_isomorphism,
    unforced_isomorphism,
)

BATTERY_IDS = [
    "partial_linear",
    "affine_fibration",
    "deep_points",
    "avoiding_hyperplane",
    "plane_chains",
    "parallel_tables_match",
    "self_parallel_affine",
    "affine_detection",
    "deep_line_equivalence",
    "equiv_triples_collinear",
    "ternary_collinearity",
    "new_line_families",
    "class_point_bijection",
    "ambient_recovery",
]


def relabel(st, seed):
    rnd = random.Random(seed)
    perm = list(range(st.n_points))
    rnd.shuffle(perm)
    lines = [tuple(perm[p] for p in line) for line in st.lines]
    return perm, IncidenceStructure(st.n_points, lines)


# ---------------------------------------------------------------------------
# is_isomorphism
# ---------------------------------------------------------------------------


def test_identity_is_an_isomorphism(sp62):
    st = sp62.structure
    assert is_isomorphism(st, st, {p: p for p in range(st.n_points)}) == (True, {})


def test_relabeling_is_an_isomorphism(q52):
    perm, moved = relabel(q52.structure, seed=5)
    assert is_isomorphism(q52.structure, moved, dict(enumerate(perm))) == (True, {})


def test_wrong_map_returns_a_witness(sp62):
    st = sp62.structure
    mapping = {p: p for p in range(st.n_points)}
    mapping[0], mapping[1] = 1, 0  # 0 and 1 are noncollinear, lines must break
    ok, cert = is_isomorphism(st, st, mapping)
    assert not ok
    assert "reason" in cert


def test_mapping_usage_errors(sp62, q52):
    st = sp62.structure
    with pytest.raises(ValueError, match="total"):
        is_isomorphism(st, st, {0: 0})
    squash = {p: 0 for p in range(st.n_points)}
    with pytest.raises(ValueError, match="bijection"):
        is_isomorphism(st, st, squash)
    with pytest.raises(ValueError, match="bijection"):
        is_isomorphism(st, q52.structure, {p: p for p in range(st.n_points)})
    shifted = {p: p + 1 for p in range(st.n_points)}
    with pytest.raises(ValueError, match="out-of-range"):
        is_isomorphism(st, st, shifted)


def test_is_isomorphism_matches_tuple_oracle(q52):
    """Mask counts give the tuple oracle's answer and witness, on mutated
    mappings and on targets with a duplicated, a missing or a swapped line."""
    st = q52.structure
    perm, moved = relabel(st, seed=3)
    lines = moved.lines
    targets = [
        moved,
        IncidenceStructure(st.n_points, lines + [lines[5]]),
        IncidenceStructure(st.n_points, lines[1:]),
        IncidenceStructure(st.n_points, lines[1:] + [lines[2]]),
    ]
    doubled = IncidenceStructure(st.n_points, st.lines + [st.lines[5]])
    rnd = random.Random(11)
    failures = 0
    for trial in range(60):
        image = list(perm)
        for _ in range(trial % 4):  # zero to three swaps
            x, y = rnd.sample(range(st.n_points), 2)
            image[x], image[y] = image[y], image[x]
        mapping = dict(enumerate(image))
        for a, b in [(st, t) for t in targets] + [(doubled, targets[1]), (doubled, moved)]:
            got = is_isomorphism(a, b, mapping)
            assert got == tuple_is_isomorphism(a, b, mapping)
            failures += not got[0]
    assert failures > 200


# ---------------------------------------------------------------------------
# find_isomorphism
# ---------------------------------------------------------------------------


def test_find_isomorphism_on_self(q52):
    st = q52.structure
    m = find_isomorphism(st, st)
    assert m is not None
    assert is_isomorphism(st, st, m)[0]


def test_find_isomorphism_after_relabeling(sp62):
    _, moved = relabel(sp62.structure, seed=7)
    m = find_isomorphism(sp62.structure, moved)
    assert m is not None
    assert is_isomorphism(sp62.structure, moved, m)[0]


def test_find_isomorphism_distinguishes_spaces(sp62, q52, q62):
    assert find_isomorphism(sp62.structure, q52.structure) is None
    # same point and line counts, different geometry
    m = find_isomorphism(sp62.structure, q62.structure)
    # the order-2 symplectic and parabolic spaces are famously isomorphic,
    # so the search must actually find a witness here
    assert m is not None
    assert is_isomorphism(sp62.structure, q62.structure, m)[0]


def test_find_isomorphism_rejects_mutilations(sp62):
    st = sp62.structure
    dropped = IncidenceStructure(63, st.lines[1:])
    assert find_isomorphism(st, dropped) is None
    assert find_isomorphism(dropped, st) is None


def test_find_isomorphism_small_negatives():
    tri = IncidenceStructure(3, [(0, 1), (1, 2), (0, 2)])
    path = IncidenceStructure(3, [(0, 1), (1, 2)])
    star = IncidenceStructure(4, [(0, 1), (0, 2), (0, 3)])
    chain = IncidenceStructure(4, [(0, 1), (1, 2), (2, 3)])
    assert find_isomorphism(tri, path) is None
    assert find_isomorphism(star, chain) is None
    m = find_isomorphism(chain, chain)
    assert m is not None and is_isomorphism(chain, chain, m)[0]


def test_find_isomorphism_is_not_bounded_by_recursion(sp62, par_point):
    recon = reconstruct(par_point)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)  # fewer spare frames than the 63 points
    try:
        m = find_isomorphism(sp62.structure, recon.structure)
    finally:
        sys.setrecursionlimit(old)
    # the mapping the depth-first search has always returned here
    digest = hashlib.sha256(json.dumps(sorted(m.items())).encode()).hexdigest()
    assert digest == "c2733333361857a6c034c790f826acb7766fe1c41fa099b5d2df7e1aade13147"


def test_find_isomorphism_is_fast_in_either_order(q53, par_q53):
    # Placing a point onto the line through two placed images keeps the
    # reconstruction-first order fast too; without it that order took seconds.
    recon = reconstruct(par_q53).structure
    for a, b in ((q53.structure, recon), (recon, q53.structure)):
        t0 = time.perf_counter()
        m = find_isomorphism(a, b)
        assert time.perf_counter() - t0 < 1
        assert m is not None and is_isomorphism(a, b, m)[0]


def test_forcing_keeps_the_first_mapping(sp62, q52, q62, q53, par_point, par_line, par_q53):
    pairs = [(sp62.structure, q62.structure), (q52.structure, relabel(q52.structure, 3)[1])]
    for ps, par in ((sp62, par_point), (sp62, par_line), (q53, par_q53)):
        recon = reconstruct(par).structure
        pairs += [(ps.structure, recon), (recon, ps.structure)]
    pairs.pop()  # the unforced search takes seconds on the last one
    for a, b in pairs:
        m = find_isomorphism(a, b)
        assert m is not None and m == unforced_isomorphism(a, b)


def test_static_order_ties_break_on_class_size(sp62):
    """Less one line, ``sp:6:2`` refines into color classes of different
    sizes, so the static order's tie-break on class size decides the order;
    the first mapping is still the unforced search's, in either order."""
    st = sp62.structure
    a = IncidenceStructure(st.n_points, st.lines[1:])
    b = relabel(a, 5)[1]
    assert len(set(Counter(_joint_colors(a, b)[0]).values())) >= 2
    for x, y in ((a, b), (b, a)):
        m = find_isomorphism(x, y)
        assert m is not None and m == unforced_isomorphism(x, y)


def test_joint_colors_match_refinement_oracle(sp62, q52, q62):
    """Reading the first round from line sizes gives the oracle's colors, on
    uniform structures, on mixed line sizes, and where mixed sizes still
    leave one class."""
    st = sp62.structure
    minus = IncidenceStructure(st.n_points, st.lines[1:])
    prism = IncidenceStructure(6, [(0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5)])
    # every point on two lines, sizes (2, 3) on the prism and (2, 2) on the hexagon
    hexagon = [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    prism_hexagon = IncidenceStructure(12, prism.lines + hexagon)
    comp = build_complement(q52, resolve_horizon(q52, "meet perp 0 perp 1"))
    mixed = reconstruct(Parallelism(comp)).structure
    assert {len(line) for line in mixed.lines} == {2, 3}
    pairs = [
        (st, q62.structure),
        (st, minus),
        (minus, relabel(minus, 5)[1]),
        (prism, relabel(prism, 2)[1]),
        (prism_hexagon, relabel(prism_hexagon, 4)[1]),
        (mixed, relabel(mixed, 7)[1]),
        (q52.structure, mixed),
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert _joint_colors(x, y) == refined_colors(x, y)


# no shrink phase: every shrink step would rerun the slow oracle
@settings(max_examples=25, derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(hst.sampled_from(["sp62", "q52", "q62", "minus"]), hst.integers(0, 10**6))
def test_search_matches_unforced_on_random_relabellings(sp62, q52, q62, space, seed):
    if space == "minus":
        a = IncidenceStructure(sp62.structure.n_points, sp62.structure.lines[1:])
    else:
        a = {"sp62": sp62, "q52": q52, "q62": q62}[space].structure
    b = relabel(a, seed)[1]
    for x, y in ((a, b), (b, a)):
        m = find_isomorphism(x, y)
        assert m is not None and m == unforced_isomorphism(x, y)


def test_forcing_keeps_the_first_mapping_at_order_three(sp63):
    recon = reconstruct(Parallelism(build_complement(sp63, sp63.structure.line_masks[0])))
    for a, b in ((sp63.structure, recon.structure), (recon.structure, sp63.structure)):
        m = find_isomorphism(a, b)
        assert m is not None and m == unforced_isomorphism(a, b)


@pytest.mark.parametrize("space", ["sp62", "q52", "q62"])
def test_forcing_keeps_the_first_mapping_on_mixed_line_sizes(space, request):
    # The order-2 perp-meet reconstructions have lines of 2 and 3 points, so
    # forcing alone does not map lines onto lines there.
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, resolve_horizon(ps, "meet perp 0 perp 1"))
    a = reconstruct(Parallelism(comp)).structure
    assert {len(line) for line in a.lines} == {2, 3}
    b = relabel(a, 7)[1]
    for x, y in ((a, b), (b, a)):
        m = find_isomorphism(x, y)
        assert m is not None and m == unforced_isomorphism(x, y)


def test_find_isomorphism_exhausts_one_color_class():
    """A hexagon and two triangles: six points on six 2-point lines each,
    every point on two lines, so refinement leaves all twelve points one
    color and only the search tells them apart, by trying every candidate."""
    hexagon = IncidenceStructure(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = IncidenceStructure(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert _joint_colors(hexagon, triangles) == ([0] * 6, [0] * 6)
    for a, b in ((hexagon, triangles), (triangles, hexagon)):
        assert find_isomorphism(a, b) is None
        assert unforced_isomorphism(a, b) is None


def test_full_check_backtracks_from_a_non_isomorphism(monkeypatch):
    # Two lines share the pair {0, 1} (and {2, 3}), so the first full
    # assignment that forcing and adjacency allow is no isomorphism; the
    # search backtracks from it to the unforced search's mapping.
    calls = []
    check = verify_module.is_isomorphism
    monkeypatch.setattr(
        verify_module, "is_isomorphism", lambda a, b, m: calls.append(m) or check(a, b, m)
    )
    a = IncidenceStructure(5, [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)])
    perm = [3, 0, 4, 2, 1]
    b = IncidenceStructure(5, [tuple(sorted(perm[p] for p in line)) for line in a.lines])
    for x, y in ((a, b), (b, a)):
        calls.clear()
        m = find_isomorphism(x, y)
        assert len(calls) == 2 and not check(x, y, calls[0])[0]
        assert m is not None and m == unforced_isomorphism(x, y)


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------


def test_battery_passes_on_point_horizon(comp_point):
    results = run_lemma_battery(Run(comp_point))
    assert [r.check_id for r in results] == BATTERY_IDS
    assert all(r.status == "pass" for r in results), [
        (r.check_id, r.witness) for r in results if r.status != "pass"
    ]


def test_battery_and_reconstruction_walk_no_base_plane_list(qm72, monkeypatch):
    """The complement walks only the planes on its short lines: the
    parallelism, the battery and the reconstruction never ask for the base
    space's plane list."""
    comp = build_complement(qm72, resolve_horizon(qm72, "point 0"))

    def refuse(self):
        raise AssertionError("every singular plane enumerated")

    monkeypatch.setattr(PolarSpace, "singular_planes", refuse)
    run = Run(comp)
    results = run_lemma_battery(run)
    assert [r.check_id for r in results] == BATTERY_IDS
    assert all(r.status == "pass" for r in results)
    assert run.parallelism.n_classes == 1
    assert run.canonical_isomorphism[0] is True


@pytest.mark.parametrize("space", ["sp62", "q53", "sp63"])
def test_battery_delegates_hyperplane_horizons(space, request):
    # Over a hyperplane horizon the run refuses its parallelism, so only the
    # ground-side checks are in scope and everything intrinsic must report a
    # skip, at every order.
    ps = request.getfixturevalue(space)
    comp = build_complement(ps, ps.structure.adj[0])
    results = {r.check_id: r for r in run_lemma_battery(Run(comp))}
    for check_id in ("partial_linear", "affine_fibration", "deep_points",
                     "avoiding_hyperplane", "plane_chains"):
        assert results[check_id].status == "pass", check_id
    skipped = {r.check_id for r in results.values() if r.status == "skip"}
    assert skipped == {
        "parallel_tables_match",
        "self_parallel_affine",
        "affine_detection",
        "deep_line_equivalence",
        "equiv_triples_collinear",
        "ternary_collinearity",
        "new_line_families",
        "class_point_bijection",
        "ambient_recovery",
    }
    for check_id in skipped:
        assert results[check_id].witness == {"reason": "hyperplane horizon: delegated case"}
    failed = [r.check_id for r in results.values() if r.status == "fail"]
    assert failed == []


def test_battery_skips_on_the_runs_refusal(sp62, monkeypatch):
    """The battery skips exactly when the run refuses its parallelism, and
    gives the refusal as the reason, whatever the horizon."""
    comp = build_complement(sp62, resolve_horizon(sp62, "point 0"))

    def refuse(self):
        raise HorizonRefusal("stand-in reason")

    monkeypatch.setattr(Run, "parallelism", property(refuse))
    results = run_lemma_battery(Run(comp))
    assert [r.check_id for r in results] == BATTERY_IDS
    assert [r.status for r in results] == ["pass"] * 5 + ["skip"] * 9
    for r in results[5:]:
        assert r.witness == {"reason": "stand-in reason"}, r.check_id


def test_deep_points_read_the_base_space(sp62):
    """The deep-point check asks the base space whether the horizon is a
    hyperplane, not the complement's candidate list."""
    comp = build_complement(sp62, resolve_horizon(sp62, "perp 0"))
    comp.over_horizon = [comp.horizon] * 2  # the run no longer refuses
    results = {r.check_id: r for r in run_lemma_battery(Run(comp))}
    assert results["deep_points"].status == "pass", results["deep_points"].witness


def test_battery_detects_a_dropped_line(comp_point):
    mutated = drop_proper_line(comp_point, 0)
    results = run_lemma_battery(Run(mutated))
    failed = {r.check_id: r.witness for r in results if r.status == "fail"}
    assert "ambient_recovery" in failed
    assert failed["ambient_recovery"] is not None


def test_battery_flags_perp_meet_divergence(sp62):
    comp = build_complement(sp62, sp62.structure.adj[0] & sp62.structure.adj[3])
    results = run_lemma_battery(Run(comp))
    failed = [r.check_id for r in results if r.status == "fail"]
    assert "parallel_tables_match" in failed
    # the ground-side properties still hold there
    passed = {r.check_id for r in results if r.status == "pass"}
    assert {"deep_points", "avoiding_hyperplane", "plane_chains"} <= passed


def _battery(ps, spec):
    results = run_lemma_battery(Run(build_complement(ps, resolve_horizon(ps, spec))))
    return {r.check_id: r for r in results}


@pytest.mark.parametrize("space", ["qm72", "q72", "q62", "sp82", "q82", "qm92"])
def test_order_two_perp_meet_fails_the_affine_checks(space, request):
    # Boundary behaviour: at order 2 the crossing configuration leaves
    # affine lines of ``meet perp 0 perp 1`` without a class, line 0 first.
    results = _battery(request.getfixturevalue(space), "meet perp 0 perp 1")
    failed = {check_id for check_id, r in results.items() if r.status == "fail"}
    assert failed == {
        "parallel_tables_match", "self_parallel_affine", "affine_detection", "ambient_recovery"
    }
    assert results["self_parallel_affine"].witness == {
        "line": 0, "reason": "affine line is not self-parallel"
    }
    assert results["affine_detection"].witness == {
        "only_intrinsic": [], "only_ground": list(range(8))
    }
    assert results["ambient_recovery"].witness == {
        "line": 0,
        "image": [0, 4] if space == "sp82" else [0, 3],
        "reason": "image is not a line of the target",
    }


LARGER_SPACES = ["q53", "qm72", "q72", "sp63", "q63", "herm54", "sp82", "q54"]
# at order 2 the perp-meet is the boundary pinned above
ORDER_THREE_UP = ["q53", "sp63", "q63", "herm54", "q54"]
LARGER_MATRIX = [
    (space, horizon) for space in LARGER_SPACES for horizon in ("point 0", "line 0", "span 0,1")
] + [(space, "meet perp 0 perp 1") for space in ORDER_THREE_UP]


@pytest.mark.parametrize("space, horizon", LARGER_MATRIX)
def test_larger_spaces_are_recovered(space, horizon, request):
    ps = request.getfixturevalue(space)
    assert not (ps.structure.adj[0] >> 1 & 1)  # so ``span 0,1`` is no singular line
    run = Run(build_complement(ps, resolve_horizon(ps, horizon)))
    results = run_lemma_battery(run)
    assert [r.check_id for r in results if r.status != "pass"] == []
    assert run.canonical_isomorphism[0] is True
    assert find_isomorphism(ps.structure, run.reconstruction.structure) is not None


def test_triple_checks_survive_classes_sharing_a_direction(q52):
    # On ``plane 0`` of ``q+:5:2`` classes 0 and 1 share direction 0.  The
    # triple checks look up no line through one point twice: a failure
    # names its classes and directions.
    results = _battery(q52, "plane 0")
    assert results["class_point_bijection"].witness == {"reason": "two classes share a direction"}
    for check_id in ("equiv_triples_collinear", "ternary_collinearity"):
        r = results[check_id]
        if r.status == "fail":
            assert "error" not in r.witness and {"classes", "directions"} <= r.witness.keys()
    assert results["ternary_collinearity"].witness == {
        "classes": [0, 2, 6], "directions": [0, 2, 3], "ground_collinear": True
    }
    failed = {check_id for check_id, r in results.items() if r.status == "fail"}
    assert failed == {
        "parallel_tables_match",
        "deep_line_equivalence",
        "ternary_collinearity",
        "new_line_families",
        "class_point_bijection",
        "ambient_recovery",
    }


def test_horizon_collinear_needs_three_distinct_points(comp_line):
    a, b, c = bits(comp_line.horizon)
    assert _horizon_collinear(comp_line, a, b, c)
    for triple in ((a, b, a), (a, b, b), (a, a, b), (a, a, a)):
        assert not _horizon_collinear(comp_line, *triple), triple


def test_avoiding_hyperplane_checks_every_parallel_pair(comp_q53_lperp, monkeypatch):
    # 1,332 parallel pairs; (454, 471) is the third from last in fibre order
    # and one that a seeded 500-pair sample would leave out.
    bad = (454, 471)
    assert comp_q53_lperp.horizon_parallel(*bad)
    table = comp_q53_lperp.parallel_table()
    assert sum(row.bit_count() - 1 for row in table if row) // 2 == 1332
    search = Complement.avoiding_hyperplane

    def broken(self, k, l):
        if (k, l) == bad:
            raise LemmaFalsified(f"no hyperplane for lines {k} and {l}")
        return search(self, k, l)

    monkeypatch.setattr(Complement, "avoiding_hyperplane", broken)
    results = {r.check_id: r for r in run_lemma_battery(Run(comp_q53_lperp))}
    result = results["avoiding_hyperplane"]
    assert (result.status, result.witness) == (
        "fail", {"error": "no hyperplane for lines 454 and 471"}
    )


def test_avoiding_hyperplane_search_failure_is_reported(comp_point):
    """With no candidate avoiding the closures, the search itself raises, and
    the battery reports its message on that check alone."""
    comp = copy.copy(comp_point)
    error = "no candidate hyperplane over the horizon avoids the closures of lines 0 and 1"

    def inject(run):
        comp.over_horizon = [comp.base.structure.full_mask]
        with pytest.raises(LemmaFalsified, match=f"^{error}$"):
            comp.avoiding_hyperplane(0, 1)

    _assert_faults(comp, inject, {"avoiding_hyperplane": {"error": error}})


def test_plane_chains_join_each_line_to_its_fibre_head(comp_q53_lperp, monkeypatch):
    """One tree grows from the first line of each fibre, fibre by fibre, and
    the check reports the first line, in fibre order, that a tree misses."""
    comp = comp_q53_lperp
    fibres: dict[int, list[int]] = {}
    for k in comp.affine_lines():
        fibres.setdefault(comp.point_at_infinity(k), []).append(k)
    star = [(f[0], l) for f in fibres.values() for l in f[1:]]
    assert len(star) == 230
    # a line of the last fibre, not its first
    x = 201
    first = fibres[comp.point_at_infinity(x)][0]
    assert (first, x) == (146, 201)
    trees = Complement.plane_paths
    calls = []

    def broken(self, k):
        calls.append(k)
        # x and the later lines of its fibre fall out of the tree
        return {l: path for l, path in trees(self, k).items() if k != first or l < x}

    monkeypatch.setattr(Complement, "plane_paths", broken)
    results = {r.check_id: r for r in run_lemma_battery(Run(comp))}
    result = results["plane_chains"]
    error = f"no plane chain joins lines {first} and {x} through their point at infinity"
    assert (result.status, result.witness) == ("fail", {"error": error})
    heads = [f[0] for f in fibres.values()]
    # one tree per fibre, each grown once, up to the failing fibre
    assert calls == heads[: heads.index(first) + 1]


@pytest.mark.parametrize("fixture", ["comp_point", "comp_line", "comp_q53_lperp"])
def test_fibration_witness_matches_oracle(fixture, request):
    comp = request.getfixturevalue(fixture)
    assert fibration_mismatch(comp) is None
    aff = comp.affine_lines()
    for k in (aff[0], aff[len(aff) // 2]):
        # move one affine line to another point at infinity (a proper point
        # when the horizon has no other)
        bad = copy.copy(comp)
        bad._infinity = list(comp._infinity)
        others = comp.horizon & ~(1 << comp.point_at_infinity(k))
        bad._infinity[k] = next(bits(others)) if others else comp.proper_points[0]
        expected = fibration_mismatch(bad)
        assert expected is not None
        results = run_lemma_battery(Run(bad))
        result = next(r for r in results if r.check_id == "affine_fibration")
        assert result.status == "fail"
        assert result.witness == {
            "lines": expected, "reason": "parallel table disagrees with closures"
        }


def _battery_rows(run):
    return [(r.check_id, r.status, r.witness) for r in run_lemma_battery(run)]


def _assert_faults(comp, inject, faults):
    """The battery fails nothing on ``comp``; on a second run, after
    ``inject(run)`` plants a fault, its 14 rows are the same except that each
    check named in ``faults`` fails with its witness there."""
    clean = _battery_rows(Run(comp))
    assert [check_id for check_id, _, _ in clean] == BATTERY_IDS
    assert all(status != "fail" for _, status, _ in clean), clean
    run = Run(comp)
    inject(run)
    assert _battery_rows(run) == [
        (c, "fail", faults[c]) if c in faults else (c, status, witness)
        for c, status, witness in clean
    ]


def _first_parallel_pair(comp):
    """The pair the pair checks visit first: the two least lines of the
    least affine line's fibre."""
    k = comp.affine_lines()[0]
    return [k, next(bits(comp.parallel_table()[k] & ~(1 << k)))]


@pytest.mark.parametrize(
    "case, reason",
    [
        ("closure in the horizon", "closure meets the horizon in 3 points"),
        ("flag on", "affine flag disagrees with the closure"),
        ("flag off", "affine flag disagrees with the closure"),
    ],
)
def test_fibration_ground_witnesses(sp62, monkeypatch, case, reason):
    """On a line horizon: a closure inside the horizon, or an affine flag
    set on a line missing the horizon or cleared on an affine one."""
    comp = build_complement(sp62, resolve_horizon(sp62, "line 0"))
    if case == "flag off":
        k = comp.affine_lines()[0]
    else:
        k = next(j for j in range(comp.n_lines) if not comp.is_affine(j))
    is_affine = Complement.is_affine

    def inject(run):
        if case == "closure in the horizon":
            # after the clean run, so the planes are already read from the
            # true closures
            closure = list(comp.line_closure)
            closure[k] = comp.horizon_line_ids[0]
            monkeypatch.setattr(comp, "line_closure", closure)
        else:
            monkeypatch.setattr(
                Complement, "is_affine", lambda self, j: is_affine(self, j) != (j == k)
            )

    _assert_faults(comp, inject, {"affine_fibration": {"line": k, "reason": reason}})


@pytest.mark.parametrize(
    "spec, fake, reason",
    [
        # 0 is the one deep point over its perp, and its radical
        ("perp 0", lambda comp, p: 1 << 0 | 1 << p, "more than one deep point"),
        ("perp 0", lambda comp, p: 1 << p, "deep point off the radical"),
        ("point 0", lambda comp, p: comp.horizon, "deep points on a non-hyperplane"),
    ],
    ids=["perp 0-two", "perp 0-off the radical", "point 0"],
)
def test_deep_point_witnesses(sp62, monkeypatch, spec, fake, reason):
    comp = build_complement(sp62, resolve_horizon(sp62, spec))
    p = next(bits(comp.horizon & ~1), None)  # the least horizon point but 0
    deep = fake(comp, p)
    faults = {"deep_points": {"deep_points": list(bits(deep)), "reason": reason}}
    if spec == "point 0":  # not a hyperplane, so the intrinsic checks run
        faults["class_point_bijection"] = {"uncovered": [], "unexpected": [0]}
    _assert_faults(
        comp, lambda run: monkeypatch.setattr(Complement, "deep_points", lambda self: deep), faults
    )


@pytest.mark.parametrize(
    "hyperplane, reason",
    [
        ("proper", "hyperplane does not contain the horizon"),
        ("full", "hyperplane contains a closure"),
        ("horizon", "candidate is not a hyperplane"),
    ],
)
def test_avoiding_hyperplane_witnesses(sp62, monkeypatch, hyperplane, reason):
    comp = build_complement(sp62, resolve_horizon(sp62, "point 0"))
    h = {
        "proper": comp.proper_mask,
        "full": sp62.structure.full_mask,
        "horizon": comp.horizon,
    }[hyperplane]
    _assert_faults(
        comp,
        lambda run: monkeypatch.setattr(Complement, "avoiding_hyperplane", lambda self, k, l: h),
        {"avoiding_hyperplane": {"lines": _first_parallel_pair(comp), "reason": reason}},
    )


@pytest.mark.parametrize(
    "case", ["empty", "off the infinity", "first line", "second line", "no shared line"]
)
def test_plane_chain_witnesses(sp62, monkeypatch, case):
    """On a line horizon, where some planes miss a given point at infinity,
    every chain is replaced by one bad chain for the first parallel pair."""
    comp = build_complement(sp62, resolve_horizon(sp62, "line 0"))
    k, l = lines = _first_parallel_pair(comp)
    a = comp.point_at_infinity(k)
    planes = comp.planes()
    through_a = [pi for pi, plane in enumerate(planes) if plane >> a & 1]
    if case == "empty":
        chain, witness = [], {"reason": "empty plane chain"}
    elif case == "off the infinity":
        pi = next(pi for pi in range(len(planes)) if pi not in through_a)
        chain, witness = [pi], {"plane": pi, "reason": "plane misses the infinity"}
    elif case == "first line":
        pi = next(pi for pi in through_a if k not in comp.plane_lines(pi))
        chain, witness = [pi], {"reason": "first plane misses the first line"}
    elif case == "second line":
        pi = next(pi for pi in comp.line_planes(k) if l not in comp.plane_lines(pi))
        chain, witness = [pi], {"reason": "last plane misses the second line"}
    else:
        chain = next(
            [pi, pj]
            for pi in comp.line_planes(k)
            for pj in comp.line_planes(l)
            if set(comp.plane_lines(pi)).isdisjoint(comp.plane_lines(pj))
        )
        witness = {"planes": chain, "reason": "no shared line"}
    trees = Complement.plane_paths
    _assert_faults(
        comp,
        lambda run: monkeypatch.setattr(
            Complement, "plane_paths", lambda self, j: dict.fromkeys(trees(self, j), chain)
        ),
        {"plane_chains": {"lines": lines, **witness}},
    )


# Each case: the family replaced, its stand-in from the true families
# (prime, second), and the witness, from those and the deep line ids.
NEW_FAMILY_FAULTS = {
    "first duplicates": (
        "lines_prime",
        lambda prime, second: prime + prime[:1],
        lambda prime, second, deep: {"reason": "duplicate sets in the first new family"},
    ),
    "second duplicates": (
        "lines_second",
        lambda prime, second: second + second[:1],
        lambda prime, second, deep: {"reason": "duplicate sets in the second new family"},
    ),
    "overlap": (
        "lines_prime",
        lambda prime, second: prime + second[:1],
        lambda prime, second, deep: {"set": list(second[0]), "reason": "families overlap"},
    ),
    "not deep": (
        "lines_prime",
        lambda prime, second: prime + [(0, 1, 2, 3)],
        lambda prime, second, deep: {
            "set": [0, 1, 2, 3], "reason": "directions are not a deep line"
        },
    ),
    "deep twice": (
        "lines_prime",
        lambda prime, second: prime + [prime[0][::-1]],
        lambda prime, second, deep: {
            "set": list(prime[0][::-1]), "reason": "deep line recovered twice"
        },
    ),
    "first empty": (
        "lines_prime",
        lambda prime, second: [],
        lambda prime, second, deep: {"deep_lines": deep, "reason": "deep lines not recovered"},
    ),
    "second empty": (
        "lines_second",
        lambda prime, second: [],
        lambda prime, second, deep: {"missing": [list(g) for g in sorted(second)[:4]], "extra": []},
    ),
    "second extra": (
        "lines_second",
        lambda prime, second: second + [(0, 1, 2, 3)],
        lambda prime, second, deep: {"missing": [], "extra": [[0, 1, 2, 3]]},
    ),
}


@pytest.mark.parametrize("case", list(NEW_FAMILY_FAULTS))
def test_new_line_family_witnesses(q53, monkeypatch, case):
    """On a horizon with one deep line, each family is replaced by a faulty
    copy; the reconstruction is built first, so only the family check reads
    the fault."""
    comp = build_complement(q53, resolve_horizon(q53, "meet perp 0 perp 3"))
    method, fake, witness = NEW_FAMILY_FAULTS[case]
    par = Parallelism(comp)
    prime, second = par.lines_prime(), par.lines_second()
    assert len(prime) == 1 and (0, 1, 2, 3) not in prime + second
    stand_in = fake(prime, second)

    def inject(run):
        run.reconstruction
        monkeypatch.setattr(Parallelism, method, lambda self: stand_in)

    _assert_faults(
        comp, inject, {"new_line_families": witness(prime, second, comp.deep_lines())}
    )


@pytest.mark.parametrize("fixture", ["comp_point", "comp_line"])
def test_partial_linear_witness_matches_local_structure(fixture, request):
    """The check runs on the traces over base point ids; its witness is the
    one on the complement's own points, renumbered in order."""
    comp = request.getfixturevalue(fixture)
    for k in (1, comp.n_lines // 2):
        # widen trace k onto a point of another line through one of its points
        p = next(bits(comp.line_trace[k]))
        other = next(l for l in bits(comp.lines_at_point(p)) if l != k)
        bad = copy.copy(comp)
        bad.line_trace = list(comp.line_trace)
        bad.line_trace[k] |= comp.line_trace[other]
        local_index = {q: i for i, q in enumerate(comp.proper_points)}
        local = IncidenceStructure(
            len(comp.proper_points),
            [[local_index[q] for q in bits(t)] for t in bad.line_trace],
        )
        expected = partial_linear_scan(local)
        assert expected is not None
        results = run_lemma_battery(Run(bad))
        result = next(r for r in results if r.check_id == "partial_linear")
        assert (result.status, result.witness) == ("fail", expected)


def test_equiv_triples_walk_matches_oracle(comp_q53_lperp, par_q53):
    """Over random reach rows, symmetric and reflexive as real ones are, the
    check reports the first mutually related triple, in lexicographic order,
    whose directions are not collinear."""
    nc = par_q53.n_classes
    par = copy.copy(par_q53)
    reach = random_reach(nc, 0.3, random.Random(1))
    par.related = [((1 << nc) - 1) & ~row for row in reach]

    class TamperedRun(Run):
        parallelism = par

    st = comp_q53_lperp.base.structure
    dirs = [comp_q53_lperp.point_at_infinity(members[0]) for members in par.classes]

    def collinear(a, b, c):
        line = comp_q53_lperp.base.line_through(dirs[a], dirs[b])
        return line is not None and (st.line_masks[line] >> dirs[c]) & 1

    expected = next(
        {"classes": [a, b, c], "directions": [dirs[a], dirs[b], dirs[c]]}
        for a, b, c in itertools.combinations(range(nc), 3)
        if class_equiv(reach, a, b) and class_equiv(reach, b, c) and class_equiv(reach, a, c)
        and not collinear(a, b, c)
    )
    results = run_lemma_battery(TamperedRun(comp_q53_lperp))
    result = next(r for r in results if r.check_id == "equiv_triples_collinear")
    assert (result.status, result.witness) == ("fail", expected)


@pytest.mark.parametrize(
    "exc, witness",
    [
        (KeyError(7), {"error": "7", "exception": "KeyError"}),
        (IndexError("out"), {"error": "out", "exception": "IndexError"}),
        (ValueError("bad"), {"error": "bad"}),
        (LemmaFalsified("no"), {"error": "no"}),
    ],
)
def test_battery_reports_any_exception(comp_point, monkeypatch, exc, witness):
    def broken(self):
        raise exc

    monkeypatch.setattr(Complement, "deep_lines", broken)
    results = {r.check_id: r for r in run_lemma_battery(Run(comp_point))}
    assert list(results) == BATTERY_IDS
    for check_id in ("deep_line_equivalence", "new_line_families"):
        assert results[check_id].status == "fail"
        assert results[check_id].witness == witness


def test_battery_reports_a_failing_parallelism(comp_point, monkeypatch):
    calls = []

    def broken(self, comp):
        calls.append(comp)
        raise RuntimeError("no crossing relation")

    monkeypatch.setattr(Parallelism, "__init__", broken)
    run = Run(comp_point)
    results = {r.check_id: r for r in run_lemma_battery(run)}
    assert list(results) == BATTERY_IDS
    intrinsic = BATTERY_IDS[5:]  # every check from parallel_tables_match on
    for check_id in BATTERY_IDS:
        r = results[check_id]
        if check_id in intrinsic:
            assert r.status == "fail", check_id
            assert r.witness == {"error": "no crossing relation", "exception": "RuntimeError"}
        else:
            assert r.status == "pass", (check_id, r.witness)
    # the run keeps the failed stage: one build, re-raised to every reader
    with pytest.raises(RuntimeError, match="no crossing relation"):
        run.reconstruction
    assert len(calls) == 1


def test_check_times_exclude_the_parallelism_build(comp_point, monkeypatch):
    build = Parallelism.__init__

    def slow(self, comp):
        time.sleep(0.3)
        build(self, comp)

    monkeypatch.setattr(Parallelism, "__init__", slow)
    results = run_lemma_battery(Run(comp_point))
    assert [r.status for r in results] == ["pass"] * len(BATTERY_IDS)
    assert max(r.elapsed_ms for r in results) < 300


def test_check_result_serialization():
    r = CheckResult("demo", "pass", None, 12.3456)
    assert r.as_dict() == {"check_id": "demo", "status": "pass"}
    with_time = r.as_dict(include_elapsed=True)
    assert with_time["elapsed_ms"] == 12.346
    w = CheckResult("demo", "fail", {"reason": "x"}).as_dict()
    assert w["witness"] == {"reason": "x"}


def test_battery_is_seed_stable(comp_line):
    """Nothing is sampled: two runs give the same results, witnesses included."""
    a = [r.as_dict() for r in run_lemma_battery(Run(comp_line))]
    b = [r.as_dict() for r in run_lemma_battery(Run(comp_line))]
    assert a == b
