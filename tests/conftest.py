"""Shared fixtures: the three small base spaces and their workhorse complements.

Everything here is session scoped; the builds are cheap (well under a second
each) but several test modules lean on the same objects and polar spaces are
immutable once constructed.
"""

import pytest

from polarcomp.algebra import GF
from polarcomp.complement import build_complement
from polarcomp.polar import (
    build_polar,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    parabolic_form,
    symplectic_form,
)
from polarcomp.reconstruct import Parallelism


@pytest.fixture(scope="session")
def gf2():
    return GF(2)


@pytest.fixture(scope="session")
def gf3():
    return GF(3)


@pytest.fixture(scope="session")
def gf4():
    return GF(4)


@pytest.fixture(scope="session")
def sp62(gf2):
    return build_polar(symplectic_form(6, gf2))


@pytest.fixture(scope="session")
def q52(gf2):
    return build_polar(hyperbolic_form(5, gf2))


@pytest.fixture(scope="session")
def q62(gf2):
    return build_polar(parabolic_form(6, gf2))


@pytest.fixture(scope="session")
def q53(gf3):
    return build_polar(hyperbolic_form(5, gf3))


@pytest.fixture(scope="session")
def sp63(gf3):
    return build_polar(symplectic_form(6, gf3))


@pytest.fixture(scope="session")
def q63(gf3):
    return build_polar(parabolic_form(6, gf3))


@pytest.fixture(scope="session")
def q54(gf4):
    return build_polar(hyperbolic_form(5, gf4))


@pytest.fixture(scope="session")
def herm54(gf4):
    return build_polar(hermitian_form(5, gf4))


@pytest.fixture(scope="session")
def sp82(gf2):
    return build_polar(symplectic_form(8, gf2))


@pytest.fixture(scope="session")
def q82(gf2):
    return build_polar(parabolic_form(8, gf2))


@pytest.fixture(scope="session")
def qm72(gf2):
    return build_polar(elliptic_form(7, gf2))


@pytest.fixture(scope="session")
def q72(gf2):
    return build_polar(hyperbolic_form(7, gf2))


@pytest.fixture(scope="session")
def qm92(gf2):
    return build_polar(elliptic_form(9, gf2))


@pytest.fixture(scope="session")
def comp_point(sp62):
    """Complement of a single point in the symplectic space."""
    return build_complement(sp62, 1 << 0)


@pytest.fixture(scope="session")
def par_point(comp_point):
    return Parallelism(comp_point)


@pytest.fixture(scope="session")
def comp_line(sp62):
    """Complement of a full line in the symplectic space."""
    return build_complement(sp62, sp62.structure.line_masks[0])


@pytest.fixture(scope="session")
def par_line(comp_line):
    return Parallelism(comp_line)


@pytest.fixture(scope="session")
def comp_q53_lperp(q53):
    """The perp of a line in the order-3 hyperbolic space.

    This horizon contains a line no plane of the complement can see, so it
    exercises the first new-line family nontrivially.
    """
    st = q53.structure
    return build_complement(q53, st.set_perp(st.line_masks[0]))


@pytest.fixture(scope="session")
def par_q53(comp_q53_lperp):
    return Parallelism(comp_q53_lperp)


def noncollinear_pair(ps):
    st = ps.structure
    for j in range(1, st.n_points):
        if not (st.adj[0] >> j & 1):
            return 0, j
    raise AssertionError("no noncollinear pair")


@pytest.fixture(scope="session")
def suite_configs(sp62, q52, q62):
    """The nine shipped configurations with precomputed parallelisms."""
    out = []
    for desc, ps in (("sp:6:2", sp62), ("q+:5:2", q52), ("q:6:2", q62)):
        st = ps.structure
        a, b = noncollinear_pair(ps)
        horizons = [
            ("point 0", 1 << 0),
            ("line 0", st.line_masks[0]),
            (f"span {a},{b}", st.closure_of((1 << a) | (1 << b))),
        ]
        for label, mask in horizons:
            comp = build_complement(ps, mask)
            out.append((desc, label, comp, Parallelism(comp)))
    return out
