"""Bitset incidence structures: closures, perps, subspace predicates."""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as hst

from polarcomp.incidence import IncidenceStructure, bits, mask_of, partial_linear_witness
from oracles import is_spiky, lines_in, partial_linear_scan

# The 7-point projective plane; every point pair lies on exactly one line.
FANO_LINES = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


@pytest.fixture(scope="module")
def fano():
    return IncidenceStructure(7, FANO_LINES)


@pytest.fixture(scope="module")
def path2():
    """Two lines glued at point 2."""
    return IncidenceStructure(5, [(0, 1, 2), (2, 3, 4)])


def test_bits_and_mask_roundtrip():
    assert list(bits(mask_of([5, 1, 3]))) == [1, 3, 5]
    assert list(bits(0)) == []
    assert mask_of([]) == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        IncidenceStructure(-1, [])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0,)])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 0)])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 3)])


def test_lines_are_sorted_tuples():
    st = IncidenceStructure(4, [(3, 1, 0)])
    assert st.lines == [(0, 1, 3)]
    assert st.line_masks == [mask_of([0, 1, 3])]


def test_collinear(fano, path2):
    # adj[p]: p and every point on a line with it; on path2 only 2 sees both lines
    for st in (fano, path2):
        assert all(st.adj[p] >> p & 1 for p in range(st.n_points))
    assert fano.adj == [fano.full_mask] * 7
    left, right = mask_of([0, 1, 2]), mask_of([2, 3, 4])
    assert path2.adj == [left, left, left | right, right, right]


@pytest.mark.parametrize("name", ["fano", "path2", "sp62"])
def test_lines_at_is_the_transpose_of_lines(name, request):
    st = request.getfixturevalue(name)
    if name == "sp62":
        st = st.structure
    for p in range(st.n_points):
        assert st.lines_at[p] == [i for i, line in enumerate(st.lines) if p in line], p


def test_perp_and_set_perp(path2):
    assert path2.adj[0] == mask_of([0, 1, 2])
    assert path2.set_perp(0) == path2.full_mask
    assert path2.set_perp(mask_of([0, 3])) == mask_of([2])
    assert path2.radical_of(path2.full_mask) == mask_of([2])


def test_closure(fano):
    pair = mask_of([0, 1])
    assert fano.closure_of(pair) == mask_of([0, 1, 2])
    triangle = mask_of([1, 3, 6])
    assert fano.closure_of(triangle) == fano.full_mask
    for m in (0, 1 << 4, mask_of([0, 1, 2])):
        assert fano.closure_of(m) == m
        assert fano.closure_of(fano.closure_of(m)) == fano.closure_of(m)


def test_subspace_predicates(fano):
    assert fano.is_subspace(0)
    assert fano.is_subspace(1 << 3)
    assert fano.is_subspace(fano.full_mask)
    assert fano.is_subspace(mask_of([0, 1, 2]))
    assert not fano.is_subspace(mask_of([0, 1]))


def test_hyperplanes_of_the_plane(fano):
    # every line of a projective plane is a hyperplane, nothing smaller is
    for m in fano.line_masks:
        assert fano.is_hyperplane(m)
    assert not fano.is_hyperplane(1 << 0)
    assert not fano.is_hyperplane(fano.full_mask)


def test_spiky(fano, sp62):
    st = sp62.structure
    assert is_spiky(st, 1 << 0)
    assert is_spiky(st, st.line_masks[0])
    assert not is_spiky(st, st.adj[0])  # the removed point sees nothing outside
    assert not is_spiky(fano, fano.full_mask)
    assert is_spiky(fano, 0)


def test_lines_in(fano):
    assert lines_in(fano, fano.full_mask) == list(range(7))
    assert lines_in(fano, mask_of([0, 3, 4])) == [1]
    assert lines_in(fano, mask_of([0, 1])) == []


def test_equality_ignores_line_order():
    a = IncidenceStructure(4, [(0, 1), (2, 3)])
    b = IncidenceStructure(4, [(2, 3), (1, 0)])
    c = IncidenceStructure(5, [(0, 1), (2, 3)])
    assert a == b
    assert a != c
    assert a.__eq__(a.lines) is NotImplemented
    assert a != a.lines


def test_repr_is_compact(fano):
    assert "7 points" in repr(fano)


@settings(derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(hst.lists(hst.sets(hst.integers(0, 11), min_size=2, max_size=4), max_size=12))
def test_partial_linear_witness_matches_scan(lines):
    """Built from the line masks alone, the rows give the witness that the
    structure's own point-line rows give to the scan, or None with it."""
    st = IncidenceStructure(12, lines)
    assert partial_linear_witness(st.line_masks) == partial_linear_scan(st)
