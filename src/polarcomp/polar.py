"""Classical polar spaces built from sesquilinear and quadratic forms.

Supported kinds: symplectic spaces, the three quadric families (parabolic,
hyperbolic, elliptic) and hermitian spaces.  Points are the singular (or
isotropic) projective points in a fixed coordinate model; lines are the
projective lines on which the form vanishes identically.  Everything is
indexed deterministically by the order of :func:`polarcomp.algebra.pg_points`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .algebra import GF, pg_points
from .errors import ConfigurationError
from .incidence import IncidenceStructure, bits, partial_linear_witness

__all__ = [
    "FormSpec",
    "PolarSpace",
    "symplectic_form",
    "parabolic_form",
    "hyperbolic_form",
    "elliptic_form",
    "hermitian_form",
    "build_polar",
    "compute_rank",
    "check_polar_axioms",
]

MAX_VECTOR_DIM = 10
# Largest projective space whose points are enumerated (PG(7,3) has 3,280).
MAX_PG_POINTS = 1 << 14

KINDS = ("symplectic", "parabolic", "hyperbolic", "elliptic", "hermitian")

Matrix = tuple[tuple[int, ...], ...]  # a square matrix over the field, row by row


class FormSpec:
    """A reflexive form on ``field ** dim`` given by Gram data.

    For quadratic kinds ``quad`` holds the upper-triangular coefficients of
    the quadratic form and ``gram`` its polarization; for the other kinds
    ``quad`` is None and ``gram`` is the (sesqui)linear Gram matrix.  Both
    are evaluated over their nonzero terms ``(i, j, c)`` alone.
    """

    def __init__(self, kind: str, field: GF, dim: int, gram: Matrix, quad: Matrix | None = None):
        if kind not in KINDS:
            raise ConfigurationError(f"unknown form kind {kind!r}")
        _check_dim(dim)
        self.kind = kind
        self.field = field
        self.dim = dim
        self.gram = gram
        self.quad = quad
        self._gram_terms = [(i, j, c) for i, row in enumerate(gram) for j, c in enumerate(row) if c]
        self._quad_terms = [
            (i, j, c) for i, row in enumerate(quad or ()) for j, c in enumerate(row[i:], i) if c
        ]

    def quad_value(self, v: Sequence[int]) -> int:
        if self.quad is None:
            raise ValueError(f"{self.kind} form has no quadratic part")
        add, mul = self.field.add, self.field.mul
        acc = 0
        for i, j, c in self._quad_terms:
            acc = add[acc][mul[c][mul[v[i]][v[j]]]]
        return acc

    def vec_singular(self, v: Sequence[int]) -> bool:
        """True iff the vector spans a point of the polar space."""
        if self.kind == "symplectic":
            return True
        if self.quad is not None:
            return self.quad_value(v) == 0
        add, mul = self.field.add, self.field.mul
        acc = 0
        for c, x in zip(self.perp_covector(v), v):
            acc = add[acc][mul[c][x]]
        return acc == 0

    def perp_covector(self, u: Sequence[int]) -> tuple[int, ...]:
        """The covector ``c`` with ``u`` orthogonal to ``v`` iff ``sum c_j v_j == 0``.

        It is ``u·G``, conjugated for hermitian forms (whose Gram product
        conjugates its right argument).
        """
        add, mul = self.field.add, self.field.mul
        cov = [0] * self.dim
        for i, j, g in self._gram_terms:
            cov[j] = add[cov[j]][mul[u[i]][g]]
        if self.kind == "hermitian":
            return tuple(map(self.field.conj.__getitem__, cov))
        return tuple(cov)


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= MAX_VECTOR_DIM:
        raise ConfigurationError(
            f"vector dimension {dim} outside supported range 2..{MAX_VECTOR_DIM}"
        )


def _zero_matrix(dim: int) -> list[list[int]]:
    """A ``dim`` by ``dim`` zero matrix, built only for a supported dimension."""
    _check_dim(dim)
    return [[0] * dim for _ in range(dim)]


def _pairs(dim: int, first: int) -> list[list[int]]:
    """The hyperbolic pairs x_f x_(f+1) + x_(f+2) x_(f+3) + ... from coordinate
    ``first``, written above the diagonal; the head before it is left zero."""
    m = _zero_matrix(dim)
    for i in range(first, dim, 2):
        m[i][i + 1] = 1
    return m


def _quadric(kind: str, field: GF, quad: list[list[int]]) -> FormSpec:
    """The quadric of upper-triangular ``quad``; its Gram is ``quad + quadᵀ``."""
    add = field.add
    gram = tuple(tuple(add[a][b] for a, b in zip(row, col)) for row, col in zip(quad, zip(*quad)))
    return FormSpec(kind, field, len(quad), gram, tuple(map(tuple, quad)))


def symplectic_form(vdim: int, field: GF) -> FormSpec:
    """Alternating form pairing coordinates (0,1), (2,3), ... on ``vdim`` space."""
    if vdim % 2 != 0:
        raise ConfigurationError("a symplectic space needs even vector dimension")
    g = _pairs(vdim, 0)
    for i in range(0, vdim, 2):
        g[i + 1][i] = field.neg[1]
    return FormSpec("symplectic", field, vdim, tuple(map(tuple, g)))


def hyperbolic_form(pdim: int, field: GF) -> FormSpec:
    """Quadric x0x1 + x2x3 + ... in projective dimension ``pdim`` (odd)."""
    if pdim % 2 != 1:
        raise ConfigurationError("a hyperbolic quadric needs odd projective dimension")
    return _quadric("hyperbolic", field, _pairs(pdim + 1, 0))


def parabolic_form(pdim: int, field: GF) -> FormSpec:
    """Quadric x0^2 + x1x2 + x3x4 + ... in projective dimension ``pdim`` (even)."""
    if pdim % 2 != 0:
        raise ConfigurationError("a parabolic quadric needs even projective dimension")
    quad = _pairs(pdim + 1, 1)
    quad[0][0] = 1
    return _quadric("parabolic", field, quad)


def _anisotropic_coeff(f: GF) -> int:
    """A coefficient d making x^2 + xy + d*y^2 anisotropic over the field.
    One exists over every finite field: for odd q some 1 - 4d is a non-square,
    and in characteristic 2 any d of absolute trace 1 will do."""
    add, mul = f.add, f.mul
    return next(
        d for d in range(1, f.q)
        if all(
            add[add[mul[x][x]][mul[x][y]]][mul[d][mul[y][y]]]
            for x in range(f.q) for y in range(f.q) if x or y
        )
    )


def elliptic_form(pdim: int, field: GF) -> FormSpec:
    """Quadric x0^2 + x0x1 + d*x1^2 + x2x3 + ... with anisotropic head."""
    if pdim % 2 != 1:
        raise ConfigurationError("an elliptic quadric needs odd projective dimension")
    quad = _pairs(pdim + 1, 2)
    quad[0][0] = quad[0][1] = 1
    quad[1][1] = _anisotropic_coeff(field)
    return _quadric("elliptic", field, quad)


def hermitian_form(pdim: int, field: GF) -> FormSpec:
    """Identity-Gram hermitian form; the field must have a quadratic subfield."""
    if field.k % 2 != 0:
        raise ConfigurationError("a hermitian form needs a field of even degree")
    g = _zero_matrix(pdim + 1)
    for i, row in enumerate(g):
        row[i] = 1
    return FormSpec("hermitian", field, pdim + 1, tuple(tuple(r) for r in g))


def _partial_sections(field: GF, cols: list[list[int]], full: int) -> list[list[int]]:
    """Entry ``a``, a covector on the coordinates of ``cols`` read as base-q
    digits, the first most significant: the masks of the points ``x`` with
    ``sum a_j x_j == v`` for each ``v``, where ``cols[j][v]`` masks ``x_j == v``."""
    add, mul, q = field.add, field.mul, field.q
    table = [[full] + [0] * (q - 1)]
    for col in cols:  # one more coordinate: q**2 mask ops per entry
        grown = []
        for entry in table:
            for c in range(q):
                step = [0] * q
                for v, cm in enumerate(col):
                    shift = add[mul[c][v]]
                    for s, em in enumerate(entry):
                        step[shift[s]] |= em & cm
                grown.append(step)
        table = grown
    return table


class _SectionTable:
    """Hyperplane sections of a point list, met in the middle: the covector
    ``c = (a, b)``, split at coordinate ``dim // 2``, cuts out the union over
    ``v`` of head ``a`` at ``v`` and tail ``b`` at ``-v``, ``q`` ANDs.  Its id
    is its base-q digits, the first most significant."""

    def __init__(self, field: GF, pts: list[tuple[int, ...]]):
        q, dim = field.q, len(pts[0])
        cols = [[0] * q for _ in range(dim)]
        for i, pt in enumerate(pts):
            for col, x in zip(cols, pt):
                col[x] |= 1 << i
        full = (1 << len(pts)) - 1
        self.q, self.split = q, q ** (dim - dim // 2)
        self.head = _partial_sections(field, cols[: dim // 2], full)
        tail = _partial_sections(field, cols[dim // 2 :], full)
        self.tail = [[e[v] for v in field.neg] for e in tail]
        # the ids of pg_points(field, dim - 1) in its order: a leading 1, then any digits
        self.projective = [c for e in range(dim) for c in range(q**e, 2 * q**e)]

    def id_of(self, cov: Sequence[int]) -> int:
        c = 0
        for x in cov:
            c = c * self.q + x
        return c

    def __getitem__(self, c: int) -> int:
        a, b = divmod(c, self.split)
        m = 0
        for x, y in zip(self.head[a], self.tail[b]):
            m |= x & y
        return m


def compute_rank(st: IncidenceStructure) -> int:
    """Length of a maximal chain of nonempty singular subspaces.

    Greedy extension: starting from a point, repeatedly adjoin the least
    point collinear with everything collected so far and close up.  In a
    polar space all maximal singular subspaces share one dimension, so the
    greedy chain is maximal.
    """
    if st.n_points == 0:
        return 0
    cur = 1
    rank = 1
    while True:
        nxt = st.set_perp(cur) & ~cur
        if not nxt:
            return rank
        cur = st.closure_of(cur | (nxt & -nxt))
        rank += 1


class PolarSpace:
    """A classical polar space with its coordinate model attached."""

    def __init__(self, form: FormSpec):
        field = form.field
        if (field.q**form.dim - 1) // (field.q - 1) > MAX_PG_POINTS:
            raise ConfigurationError(f"PG({form.dim - 1},{field.q}) exceeds {MAX_PG_POINTS} points")
        pts = [p for p in pg_points(field, form.dim - 1) if form.vec_singular(p)]
        if not pts:
            raise ConfigurationError("the form admits no singular points")
        # joined[i]: points already on a found line through point i.  A new
        # line L through i is built once, at its least point i, from the points
        # j sharing the key perp(i) & perp(j) = L's perp (L^⊥⊥ = L when
        # nondegenerate); groups follow their least points, so lines come sorted.
        joined = [1 << i for i in range(len(pts))]
        lines, line_perps = [], []
        sections = _SectionTable(field, pts)
        perps = [sections[sections.id_of(form.perp_covector(p))] for p in pts]
        for i, perp in enumerate(perps):
            groups: dict[int, list[int]] = {}
            for j in bits(perp & ~joined[i] & ~((2 << i) - 1)):
                groups.setdefault(perp & perps[j], []).append(j)
            for key, g in groups.items():
                if len(g) != field.q:
                    raise ConfigurationError(
                        f"degenerate space: points {i} and {g[0]} span no line of {field.q + 1} points"
                    )
                lines.append((i, *g))
                line_perps.append(key)
                m = 1 << i
                for p in g:
                    m |= 1 << p
                for p in g:
                    joined[p] |= m
        st = IncidenceStructure(len(pts), lines)
        for p in range(st.n_points):
            if st.adj[p] == st.full_mask:
                raise ConfigurationError(
                    f"degenerate space: point {p} is collinear with every point"
                )
        self.form = form
        self.points = pts
        self.structure = st
        self.rank = compute_rank(st)
        self.line_perps = line_perps  # L^⊥ of each line, in line order
        self.sections = sections
        self.ambient_dim = form.dim - 1
        self._planes: list[int] | None = None
        self._line_of_perp: dict[int, int] | None = None

    def line_through(self, a: int, b: int) -> int | None:
        """Id of the line through two distinct points, or None.  ``adj[a] &
        adj[b]`` is ``{a, b}^⊥``: the perp of their line when they are
        collinear, and no line's perp otherwise, since ``{a, b}^⊥⊥`` holds
        both points and a line is its perp's perp."""
        if a == b:
            raise ValueError("need two distinct points")
        if self._line_of_perp is None:  # built on first use: most runs never ask
            self._line_of_perp = {perp: k for k, perp in enumerate(self.line_perps)}
        adj = self.structure.adj
        return self._line_of_perp.get(adj[a] & adj[b])

    def planes_on(self, starts: Iterable[int]) -> dict[int, tuple[int, ...]]:
        """Each singular plane on a start line, its mask with its ascending line
        ids, each plane built once: from the first start line in it, through the
        points of that line's perp that no plane found through the line covers
        (such planes meet only in it).  Over every line in id order, the first
        line of a plane holds its two least points, and the planes on one line
        follow their least points off it, so the keys are in lexicographic order.
        A line is its own perp in rank 2, so there the walk finds nothing."""
        st, line_through = self.structure, self.line_through
        lines, line_masks, perps = st.lines, st.line_masks, self.line_perps
        covered = list(line_masks)
        found = {}
        for li in starts:
            lm, on = line_masks[li], lines[li]
            rest = perps[li] & ~covered[li]
            while rest:
                # The plane on L and x: L, the spokes from x to the points of L,
                # and at each point of L the lines to the points off L and its spoke.
                x = (rest & -rest).bit_length() - 1
                spokes = [line_through(x, p) for p in on]
                plane = lm
                for k in spokes:
                    plane |= line_masks[k]
                ids = [li, *spokes]
                for p, k in zip(on, spokes):
                    off = plane & ~lm & ~line_masks[k]
                    while off:
                        j = line_through(p, (off & -off).bit_length() - 1)
                        ids.append(j)
                        off &= ~line_masks[j]
                for k in ids:
                    covered[k] |= plane
                ids.sort()
                found[plane] = tuple(ids)
                rest &= ~plane
        return found

    def singular_planes(self) -> list[int]:
        """Masks of all singular planes in lexicographic point order, empty
        when the rank is below 3."""
        if self._planes is None:
            self._planes = list(self.planes_on(range(len(self.line_perps))))
        return self._planes

    def hyperplane_candidates(self, over: int = 0) -> list[int]:
        """Ambient-hyperplane sections over the point set ``over``, deduplicated,
        in covector order.  ``p``'s perp is the section of the covector
        ``form.perp_covector(p)``."""
        full, table = self.structure.full_mask, self.sections
        sections = (table[c] for c in table.projective)
        return list(dict.fromkeys(m for m in sections if m != full and not over & ~m))

    def __repr__(self) -> str:
        return (
            f"PolarSpace({self.form.kind}, PG({self.ambient_dim},{self.form.field.q}), "
            f"{self.structure.n_points} points, rank {self.rank})"
        )


def build_polar(form: FormSpec) -> PolarSpace:
    """Construct the polar space of a form, requiring rank at least 3."""
    ps = PolarSpace(form)
    if ps.rank < 3:
        raise ConfigurationError(f"polar space has rank {ps.rank} < 3")
    return ps


def _one_or_all_witness(st: IncidenceStructure) -> dict | None:
    """First line, and least point off it, collinear with neither one nor all
    of its points.  The perps of a line's ``k`` points hold its points ``k``
    times each and every other point 1 or ``k`` times, so once every point is
    reached, a line is clear iff the sum of their sizes says so."""
    adj, full, n = st.adj, st.full_mask, st.n_points
    size = [a.bit_count() for a in adj]
    for i, (line, m) in enumerate(zip(st.lines, st.line_masks)):
        once, every, total = 0, full, 0
        for p in line:
            once |= adj[p]
            every &= adj[p]
            total += size[p]
        k = len(line)
        if once != full or total - k * k != n - k + (k - 1) * (every.bit_count() - k):
            counts = ((a, (adj[a] & m).bit_count()) for a in bits(full & ~m))
            a, c = next((a, c) for a, c in counts if c not in (1, k))
            return {"point": a, "line": i, "collinear_count": c}
    return None


def check_polar_axioms(obj: "PolarSpace | IncidenceStructure") -> dict:
    """Exhaustively check the polar-space axioms: a flag per axiom, ``all_ok``,
    the rank, and a witness for each failing axiom."""
    st = obj.structure if isinstance(obj, PolarSpace) else obj
    # |adj[p]| - 1 is at most the sum of |L| - 1 over the lines L on p, with
    # equality iff those lines share no second point; summed over p, the
    # right side is the sum of |L|(|L| - 1), so the scan runs only on a mismatch.
    pl = None
    if sum(a.bit_count() - 1 for a in st.adj) != sum(k * (k - 1) for k in map(len, st.lines)):
        pl = partial_linear_witness(st.line_masks)
    thin = next((i for i, line in enumerate(st.lines) if len(line) < 3), None)
    deg = next((p for p in range(st.n_points) if st.adj[p] == st.full_mask), None)
    found = {
        "partial_linear": pl,
        "thick": None if thin is None else {"line": thin},
        "nondegenerate": None if deg is None else {"point": deg},
        "one_or_all": _one_or_all_witness(st),
    }
    ok = {name: w is None for name, w in found.items()}
    return {
        **ok,
        "all_ok": all(ok.values()),
        "rank": obj.rank if isinstance(obj, PolarSpace) else compute_rank(st),
        "witnesses": {name: w for name, w in found.items() if w is not None},
    }
