"""Classical polar spaces built from sesquilinear and quadratic forms.

Supported kinds: symplectic spaces, the three quadric families (parabolic,
hyperbolic, elliptic) and hermitian spaces.  Points are the singular (or
isotropic) projective points in a fixed coordinate model; lines are the
projective lines on which the form vanishes identically.  Everything is
indexed deterministically by the order of :func:`polarcomp.algebra.pg_points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import GF, pg_line, pg_points
from .errors import ConfigurationError
from .incidence import IncidenceStructure, bits, mask_of

__all__ = [
    "FormSpec",
    "PolarSpace",
    "AxiomReport",
    "symplectic_form",
    "parabolic_form",
    "hyperbolic_form",
    "elliptic_form",
    "hermitian_form",
    "build_polar",
    "compute_rank",
    "check_polar_axioms",
]

MAX_VECTOR_DIM = 8

KINDS = ("symplectic", "parabolic", "hyperbolic", "elliptic", "hermitian")
QUADRATIC_KINDS = ("parabolic", "hyperbolic", "elliptic")


@dataclass(frozen=True)
class FormSpec:
    """A reflexive form on ``field ** dim`` given by Gram data.

    For quadratic kinds ``quad`` holds the upper-triangular coefficients of
    the quadratic form and ``gram`` its polarization; for the other kinds
    ``quad`` is None and ``gram`` is the (sesqui)linear Gram matrix.
    """

    kind: str
    field: GF
    dim: int
    gram: tuple[tuple[int, ...], ...]
    quad: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown form kind {self.kind!r}")
        if not 2 <= self.dim <= MAX_VECTOR_DIM:
            raise ConfigurationError(
                f"vector dimension {self.dim} outside supported range 2..{MAX_VECTOR_DIM}"
            )

    def bilin(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Gram product; the right argument is conjugated for hermitian forms."""
        f = self.field
        if self.kind == "hermitian":
            v = tuple(f.conj(x) for x in v)
        acc = 0
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            row = self.gram[i]
            for j, vj in enumerate(v):
                c = row[j]
                if c and vj:
                    acc = f.add(acc, f.mul(ui, f.mul(c, vj)))
        return acc

    def quad_value(self, v: Sequence[int]) -> int:
        if self.quad is None:
            raise ValueError(f"{self.kind} form has no quadratic part")
        f = self.field
        acc = 0
        for i in range(self.dim):
            if v[i] == 0:
                continue
            for j in range(i, self.dim):
                c = self.quad[i][j]
                if c and v[j]:
                    acc = f.add(acc, f.mul(c, f.mul(v[i], v[j])))
        return acc

    def vec_singular(self, v: Sequence[int]) -> bool:
        """True iff the vector spans a point of the polar space."""
        if self.kind == "symplectic":
            return True
        if self.kind in QUADRATIC_KINDS:
            return self.quad_value(v) == 0
        return self.bilin(v, v) == 0

    def pair_perp(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """True iff the two vectors are orthogonal under the reflexive form."""
        return self.bilin(u, v) == 0


def _polarize(field: GF, quad: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(quad)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = quad[i][j]
            if c == 0:
                continue
            if i == j:
                g[i][i] = field.add(c, c)
            else:
                g[i][j] = c
                g[j][i] = c
    return tuple(tuple(row) for row in g)


def _quad_form(kind: str, field: GF, dim: int, quad: list[list[int]]) -> FormSpec:
    q = tuple(tuple(row) for row in quad)
    return FormSpec(kind, field, dim, _polarize(field, q), q)


def symplectic_form(vdim: int, field: GF) -> FormSpec:
    """Alternating form pairing coordinates (0,1), (2,3), ... on ``vdim`` space."""
    if vdim % 2 != 0:
        raise ConfigurationError("a symplectic space needs even vector dimension")
    g = [[0] * vdim for _ in range(vdim)]
    for i in range(0, vdim, 2):
        g[i][i + 1] = 1
        g[i + 1][i] = field.neg(1)
    return FormSpec("symplectic", field, vdim, tuple(tuple(r) for r in g))


def hyperbolic_form(pdim: int, field: GF) -> FormSpec:
    """Quadric x0x1 + x2x3 + ... in projective dimension ``pdim`` (odd)."""
    if pdim % 2 != 1:
        raise ConfigurationError("a hyperbolic quadric needs odd projective dimension")
    dim = pdim + 1
    quad = [[0] * dim for _ in range(dim)]
    for i in range(0, dim, 2):
        quad[i][i + 1] = 1
    return _quad_form("hyperbolic", field, dim, quad)


def parabolic_form(pdim: int, field: GF) -> FormSpec:
    """Quadric x0^2 + x1x2 + x3x4 + ... in projective dimension ``pdim`` (even)."""
    if pdim % 2 != 0:
        raise ConfigurationError("a parabolic quadric needs even projective dimension")
    dim = pdim + 1
    quad = [[0] * dim for _ in range(dim)]
    quad[0][0] = 1
    for i in range(1, dim, 2):
        quad[i][i + 1] = 1
    return _quad_form("parabolic", field, dim, quad)


def _anisotropic_coeff(field: GF) -> int:
    """A coefficient d making x^2 + xy + d*y^2 anisotropic over the field."""
    for d in range(1, field.q):
        ok = True
        for x in range(field.q):
            for y in range(field.q):
                if x == 0 and y == 0:
                    continue
                val = field.add(
                    field.add(field.mul(x, x), field.mul(x, y)),
                    field.mul(d, field.mul(y, y)),
                )
                if val == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return d
    raise ConfigurationError(f"no anisotropic binary quadratic form over GF({field.q})")


def elliptic_form(pdim: int, field: GF) -> FormSpec:
    """Quadric x0^2 + x0x1 + d*x1^2 + x2x3 + ... with anisotropic head."""
    if pdim % 2 != 1:
        raise ConfigurationError("an elliptic quadric needs odd projective dimension")
    dim = pdim + 1
    d = _anisotropic_coeff(field)
    quad = [[0] * dim for _ in range(dim)]
    quad[0][0] = 1
    quad[0][1] = 1
    quad[1][1] = d
    for i in range(2, dim, 2):
        quad[i][i + 1] = 1
    return _quad_form("elliptic", field, dim, quad)


def hermitian_form(pdim: int, field: GF) -> FormSpec:
    """Identity-Gram hermitian form; the field must have a quadratic subfield."""
    if field.k % 2 != 0:
        raise ConfigurationError("a hermitian form needs a field of even degree")
    dim = pdim + 1
    g = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return FormSpec("hermitian", field, dim, g)


def compute_rank(st: IncidenceStructure) -> int:
    """Length of a maximal chain of nonempty singular subspaces.

    Greedy extension: starting from a point, repeatedly adjoin a point
    collinear with everything collected so far and close up.  In a polar
    space all maximal singular subspaces share one dimension, so the greedy
    chain is maximal.
    """
    if st.n_points == 0:
        return 0
    cur = 1
    rank = 1
    while True:
        found = None
        for x in range(st.n_points):
            if (cur >> x) & 1:
                continue
            if not cur & ~st.adj[x]:
                found = x
                break
        if found is None:
            return rank
        cur = st.closure_of(cur | (1 << found))
        rank += 1


class PolarSpace:
    """A classical polar space with its coordinate model attached."""

    def __init__(
        self,
        form: FormSpec,
        points: list[tuple[int, ...]],
        structure: IncidenceStructure,
        rank: int,
    ):
        self.form = form
        self.points = points
        self.structure = structure
        self.rank = rank
        self.ambient_dim = form.dim - 1
        self._planes: list[int] | None = None
        self._hyp_candidates: list[int] | None = None

    @classmethod
    def from_form(cls, form: FormSpec) -> "PolarSpace":
        field = form.field
        pts = [p for p in pg_points(field, form.dim - 1) if form.vec_singular(p)]
        if not pts:
            raise ConfigurationError("the form admits no singular points")
        index = {p: i for i, p in enumerate(pts)}
        # joined[i]: points already on a found line through point i, so each
        # line is built once, from its first orthogonal pair.
        joined = [1 << i for i in range(len(pts))]
        lines = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if not (joined[i] >> j) & 1 and form.pair_perp(pts[i], pts[j]):
                    line = tuple(sorted(index[p] for p in pg_line(field, pts[i], pts[j])))
                    m = mask_of(line)
                    for p in line:
                        joined[p] |= m
                    lines.append(line)
        st = IncidenceStructure(len(pts), sorted(lines))
        for p in range(st.n_points):
            if st.adj[p] == st.full_mask:
                raise ConfigurationError(
                    f"degenerate space: point {p} is collinear with every point"
                )
        return cls(form, pts, st, compute_rank(st))

    def singular_planes(self) -> list[int]:
        """Masks of all singular planes, empty when the rank is below 3."""
        if self._planes is None:
            if self.rank < 3:
                self._planes = []
            else:
                st = self.structure
                seen = set()
                for li, lm in enumerate(st.line_masks):
                    # The plane on L and x in L's perp is L plus the lines
                    # joining x to the points of L.
                    covered = lm
                    for x in bits(st.set_perp(lm) & ~covered):
                        if (covered >> x) & 1:
                            continue
                        plane = lm
                        for p in st.lines[li]:
                            plane |= st.line_masks[st.line_through(x, p)]
                        covered |= plane
                        seen.add(plane)
                self._planes = sorted(seen, key=lambda m: tuple(bits(m)))
        return self._planes

    def hyperplane_candidates(self) -> list[int]:
        """Ambient-hyperplane sections, deduplicated, in covector order.

        Every perp is among them: ``p``'s perp is the section of the covector
        ``G·p`` (conjugated for hermitian forms).
        """
        if self._hyp_candidates is None:
            st = self.structure
            f = self.form.field
            sections: dict[int, None] = {}
            for cov in pg_points(f, self.form.dim - 1):
                m = 0
                for i, pt in enumerate(self.points):
                    acc = 0
                    for c, x in zip(cov, pt):
                        if c and x:
                            acc = f.add(acc, f.mul(c, x))
                    if acc == 0:
                        m |= 1 << i
                if m != st.full_mask:
                    sections[m] = None
            self._hyp_candidates = list(sections)
        return self._hyp_candidates

    def __repr__(self) -> str:
        return (
            f"PolarSpace({self.form.kind}, PG({self.ambient_dim},{self.form.field.q}), "
            f"{self.structure.n_points} points, rank {self.rank})"
        )


def build_polar(form: FormSpec) -> PolarSpace:
    """Construct the polar space of a form, requiring rank at least 3."""
    ps = PolarSpace.from_form(form)
    if ps.rank < 3:
        raise ConfigurationError(f"polar space has rank {ps.rank} < 3")
    return ps


@dataclass
class AxiomReport:
    partial_linear: bool
    thick: bool
    nondegenerate: bool
    one_or_all: bool
    rank: int
    witnesses: dict

    @property
    def all_ok(self) -> bool:
        return self.partial_linear and self.thick and self.nondegenerate and self.one_or_all

    def as_dict(self) -> dict:
        return {
            "partial_linear": self.partial_linear,
            "thick": self.thick,
            "nondegenerate": self.nondegenerate,
            "one_or_all": self.one_or_all,
            "rank": self.rank,
            "all_ok": self.all_ok,
            "witnesses": self.witnesses,
        }


def _partial_linear_witness(st: IncidenceStructure) -> dict | None:
    for p in range(st.n_points):
        ids = st.lines_at(p)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                i, j = ids[x], ids[y]
                if (st.line_masks[i] & st.line_masks[j]).bit_count() > 1:
                    return {"lines": [i, j]}
    return None


def _one_or_all_witness(st: IncidenceStructure) -> dict | None:
    for i, m in enumerate(st.line_masks):
        size = len(st.lines[i])
        for a in range(st.n_points):
            if (m >> a) & 1:
                continue
            c = (st.adj[a] & m).bit_count()
            if c != 1 and c != size:
                return {"point": a, "line": i, "collinear_count": c}
    return None


def check_polar_axioms(obj: "PolarSpace | IncidenceStructure") -> AxiomReport:
    """Exhaustively check the polar-space axioms, with witnesses on failure."""
    st = obj.structure if isinstance(obj, PolarSpace) else obj
    witnesses: dict = {}

    pl = _partial_linear_witness(st)
    if pl is not None:
        witnesses["partial_linear"] = pl

    thin = next((i for i, line in enumerate(st.lines) if len(line) < 3), None)
    if thin is not None:
        witnesses["thick"] = {"line": thin}

    deg = next((p for p in range(st.n_points) if st.adj[p] == st.full_mask), None)
    if deg is not None:
        witnesses["nondegenerate"] = {"point": deg}

    oa = _one_or_all_witness(st)
    if oa is not None:
        witnesses["one_or_all"] = oa

    return AxiomReport(
        partial_linear=pl is None,
        thick=thin is None,
        nondegenerate=deg is None,
        one_or_all=oa is None,
        rank=compute_rank(st),
        witnesses=witnesses,
    )
