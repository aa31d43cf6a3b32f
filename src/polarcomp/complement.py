"""Complements of a subspace in a polar space, with their horizon geometry.

Removing a subspace W from a polar space leaves the proper points and the
traces of lines not inside W.  Lines whose closure meets W in a point are
affine; their traces are the short ones, of ``q`` points, and the planes on
them, the planes meeting W, are the complement's planes.  The horizon
notions live here, read from perps and masks: deep points and deep lines
are the horizon points and lines whose perp lies in W.  So do the two
searches that the verification layer exercises: extending W to a
hyperplane avoiding two line closures, and chaining coplanar steps between
parallel lines.

All point sets are bitmasks over *base* point indices; proper line ids index
the complement's own line list.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ConfigurationError, HorizonRefusal, LemmaFalsified
from .incidence import bits, mask_of
from .polar import PolarSpace

__all__ = [
    "Complement",
    "build_complement",
    "horizon_atoms",
    "resolve_horizon",
]


class Complement:
    """The point-line structure left after removing a horizon subspace."""

    def __init__(self, base: PolarSpace, horizon: int, line_ids: Sequence[int] | None = None):
        st = base.structure
        if horizon & ~st.full_mask:
            raise ValueError("horizon has out-of-range points")
        if not st.is_subspace(horizon):
            raise ValueError("horizon must be a subspace of the base space")
        if horizon == st.full_mask:
            raise HorizonRefusal("horizon equals the whole point set")
        # The candidate hyperplanes containing the horizon.
        self.over_horizon = base.hyperplane_candidates(horizon)
        if not self.over_horizon:
            raise HorizonRefusal("horizon lies in no candidate hyperplane")
        self.base = base
        self.horizon = horizon
        self.proper_mask = st.full_mask & ~horizon
        self.proper_points = list(bits(self.proper_mask))
        self._line_ids = list(range(len(st.lines))) if line_ids is None else line_ids

        self.line_trace: list[int] = []
        self.line_closure: list[int] = []
        self._infinity: list[int | None] = []
        self.horizon_line_ids: list[int] = []
        for k in self._line_ids:
            m = st.line_masks[k]
            if not m & self.proper_mask:
                self.horizon_line_ids.append(k)
                continue
            inf = m & horizon
            # A line missing the horizon shares its base mask's int: no second copy.
            self.line_trace.append(m & self.proper_mask if inf else m)
            self.line_closure.append(k)
            self._infinity.append(inf.bit_length() - 1 if inf else None)

        self.n_lines = len(self.line_trace)

        self._point_lines: dict[int, int] | None = None
        self._planes: list[int] | None = None
        self._plane_ids: list[tuple[int, ...]] = []
        self._line_planes: list[list[int]] | None = None

    @property
    def horizon_is_hyperplane(self) -> bool:
        """The one candidate over the horizon is the horizon itself, exactly
        when it is a hyperplane, as hyperplanes are maximal."""
        return self.over_horizon == [self.horizon]

    # -- lines and parallelism --------------------------------------------

    def lines_at_point(self, p: int) -> int:
        """Bitmask of proper line ids through a proper base point."""
        if self._point_lines is None:
            self._point_lines = {}
            for i, trace in enumerate(self.line_trace):
                for x in bits(trace):
                    self._point_lines[x] = self._point_lines.get(x, 0) | (1 << i)
        return self._point_lines.get(p, 0)

    def is_affine(self, k: int) -> bool:
        return self._infinity[k] is not None

    def affine_lines(self) -> list[int]:
        return [k for k in range(self.n_lines) if self._infinity[k] is not None]

    def point_at_infinity(self, k: int) -> int:
        inf = self._infinity[k]
        if inf is None:
            raise ValueError(f"line {k} has no point at infinity")
        return inf

    def horizon_parallel(self, k: int, l: int) -> bool:
        """Closures meet inside the horizon; the ground-truth parallelism."""
        inf = self._infinity[k]
        return inf is not None and inf == self._infinity[l]

    def parallel_table(self) -> list[int]:
        """Row ``k`` holds the bitmask of lines parallel to ``k``."""
        fibers: dict[int, int] = {}
        for k, inf in enumerate(self._infinity):
            if inf is not None:
                fibers[inf] = fibers.get(inf, 0) | (1 << k)
        return [0 if inf is None else fibers[inf] for inf in self._infinity]

    def direction_of(self, lines: Iterable[int]) -> int | None:
        """The one point at infinity that these lines share, or None."""
        infs = {self._infinity[k] for k in lines}
        return infs.pop() if len(infs) == 1 else None

    def deep_points(self) -> int:
        """Horizon points whose perp lies in the horizon."""
        adj = self.base.structure.adj
        return mask_of(d for d in bits(self.horizon) if not adj[d] & self.proper_mask)

    # -- planes --------------------------------------------------------------

    def planes(self) -> list[int]:
        """Masks of the base planes on the short lines: the planes meeting W
        and not inside it, as a line meets W in 0, 1 or ``q + 1`` points.
        Sorted by ascending line ids, which is lexicographic point order:
        lines are ordered by their points, and a plane's least lines join its
        least point to the next least ones."""
        if self._planes is None:
            q = self.base.form.field.q
            short = [b for b, t in zip(self.line_closure, self.line_trace) if t.bit_count() == q]
            found = sorted(self.base.planes_on(short).items(), key=lambda item: item[1])
            proper_id = {b: k for k, b in enumerate(self.line_closure)}
            self._planes = [plane for plane, _ in found]
            self._plane_ids = [tuple(proper_id[b] for b in ids if b in proper_id) for _, ids in found]
        return self._planes

    def plane_lines(self, pi: int) -> tuple[int, ...]:
        """Ascending proper line ids whose trace lies inside plane ``pi``: the
        base space's plane lines relabelled, horizon and deleted lines dropped."""
        self.planes()
        return self._plane_ids[pi]

    def line_planes(self, k: int) -> list[int]:
        """Ascending ids of the planes holding proper line ``k``."""
        if self._line_planes is None:
            self._line_planes = [[] for _ in range(self.n_lines)]
            for pi in range(len(self.planes())):
                for j in self.plane_lines(pi):
                    self._line_planes[j].append(pi)
        return self._line_planes[k]

    def semiaffine_planes(self) -> list[int]:
        """Ids of the planes that meet the horizon: every plane."""
        return list(range(len(self.planes())))

    def plane_counts(self) -> tuple[int, int]:
        """The numbers of base planes not inside the horizon W and of those
        among them meeting W, the second ``len(planes())``, read from the line
        perps with no plane built.  The planes on a line ``L`` meet only in
        ``L`` and cover ``L^⊥``, each with ``q**2`` points off ``L``.  For
        ``L`` in the horizon W (a subspace) those inside W cover ``L^⊥ ∩ W``;
        for ``L`` missing W each point of ``L^⊥ ∩ W`` lies on the one plane on
        ``L`` through it, which meets W only there.  Summed over the lines,
        each plane counts once per line, ``q**2 + q + 1`` times."""
        q, w = self.base.form.field.q, self.horizon

        def whole(n: int, d: int) -> int:
            if n % d:
                raise LemmaFalsified(f"line perps count {n} plane incidences, not a multiple of {d}")
            return n // d

        total = inside = missing = 0
        for lm, perp in zip(self.base.structure.line_masks, self.base.line_perps):
            on_line = whole(perp.bit_count() - q - 1, q * q)
            total += on_line
            if not lm & ~w:
                inside += whole((perp & w).bit_count() - q - 1, q * q)
            elif not lm & w:
                missing += on_line - (perp & w).bit_count()
        n_planes = whole(total - inside, q * q + q + 1)
        return n_planes, n_planes - whole(missing, q * q + q + 1)

    def deep_lines(self) -> list[int]:
        """Base ids of the horizon lines whose perp lies in the horizon."""
        perps = self.base.line_perps
        return [k for k in self.horizon_line_ids if not perps[k] & self.proper_mask]

    # -- the two guaranteed searches -----------------------------------------

    def _require_parallel_pair(self, k: int, l: int) -> None:
        if k == l:
            raise ValueError("need two distinct lines")
        if not self.horizon_parallel(k, l):
            raise ValueError("lines are not parallel")

    def avoiding_hyperplane(self, k: int, l: int) -> int:
        """A candidate hyperplane over the horizon avoiding both closures."""
        self._require_parallel_pair(k, l)
        km = self.base.structure.line_masks[self.line_closure[k]]
        lm = self.base.structure.line_masks[self.line_closure[l]]
        for h in self.over_horizon:
            if km & ~h and lm & ~h:
                return h
        raise LemmaFalsified(
            f"no candidate hyperplane over the horizon avoids the closures of lines {k} and {l}"
        )

    def plane_paths(self, k: int) -> dict[int, list[int]]:
        """Chains of planes from ``k`` to every line of its fibre that they
        reach, read from one breadth-first tree, neighbours in ascending id.

        Consecutive planes share a proper line; the first contains ``k`` and
        the last is the tree's first plane holding the line.  Every plane
        holding an affine line contains its point at infinity ``a``.  Two
        planes through ``a`` sharing a proper line ``j`` share its closure,
        which passes through ``a``, else both planes would equal
        span(``a``, closure).  So a chain steps only through ``a``'s fibre.
        """
        a = self.point_at_infinity(k)
        chain = {pi: [pi] for pi in self.line_planes(k)}  # from k to each plane of the tree
        paths: dict[int, list[int]] = {}
        queue = list(chain)
        for pi in queue:
            fibre = [j for j in self.plane_lines(pi) if self._infinity[j] == a]
            for j in fibre:
                paths.setdefault(j, chain[pi])
            step = {pj for j in fibre for pj in self.line_planes(j) if pj not in chain}
            for pj in sorted(step):
                chain[pj] = chain[pi] + [pj]
                queue.append(pj)
        return paths

    def plane_path(self, k: int, l: int) -> list[int]:
        """The chain of :meth:`plane_paths` from ``k`` to a parallel line ``l``."""
        self._require_parallel_pair(k, l)
        path = self.plane_paths(k).get(l)
        if path is None:
            raise LemmaFalsified(
                f"no plane chain joins lines {k} and {l} through their point at infinity"
            )
        return path


def build_complement(ps: PolarSpace, horizon: int) -> Complement:
    """The complement of a horizon subspace in a polar space."""
    return Complement(ps, horizon)


def horizon_atoms(ps: PolarSpace, kind: str) -> list[int]:
    """Masks of the ``point``, ``line``, ``plane`` or ``perp`` atoms, by id."""
    st = ps.structure
    if kind == "point":
        return [1 << p for p in range(st.n_points)]
    if kind == "line":
        return st.line_masks
    if kind == "plane":
        return ps.singular_planes()
    if kind == "perp":
        return st.adj
    raise ValueError(f"unknown horizon atom kind {kind!r}")


def _parse_atom(ps: PolarSpace, tokens: list[str], pos: int) -> tuple[int, int]:
    if pos >= len(tokens):
        raise ConfigurationError("horizon spec ended early")
    st = ps.structure
    head = tokens[pos]
    if head in ("point", "line", "plane", "perp"):
        if pos + 1 >= len(tokens):
            raise ConfigurationError(f"{head} needs an id")
        try:
            idx = int(tokens[pos + 1])
        except ValueError:
            raise ConfigurationError(
                f"{head} id must be an integer, got {tokens[pos + 1]!r}"
            ) from None
        atoms = horizon_atoms(ps, head)
        if not 0 <= idx < len(atoms):
            raise ConfigurationError(f"{head} id {idx} out of range")
        return atoms[idx], pos + 2
    if head == "span":
        if pos + 1 >= len(tokens):
            raise ConfigurationError("span needs a point list")
        try:
            ids = [int(t) for t in tokens[pos + 1].split(",") if t]
        except ValueError:
            raise ConfigurationError(
                f"span wants comma-separated ints, got {tokens[pos + 1]!r}"
            ) from None
        if not ids:
            raise ConfigurationError("span needs at least one point id")
        for idx in ids:
            if not 0 <= idx < st.n_points:
                raise ConfigurationError(f"point id {idx} out of range")
        return st.closure_of(mask_of(ids)), pos + 2
    raise ConfigurationError(f"unknown horizon spec token {head!r}")


def resolve_horizon(ps: PolarSpace, text: str) -> int:
    """Parse the horizon mini-language into a point set.

    Grammar: ``point N`` | ``line N`` | ``plane N`` | ``perp N`` |
    ``meet <spec> <spec>`` | ``span N,N,...``.  A meet intersects, so a spec
    is the intersection of its atoms; counting the specs still owed parses
    any nesting depth without recursion.
    """
    tokens = text.split()
    if not tokens:
        return 0
    mask, pos, owed = ps.structure.full_mask, 0, 1
    while owed:
        if pos < len(tokens) and tokens[pos] == "meet":
            pos, owed = pos + 1, owed + 1
        else:
            atom, pos = _parse_atom(ps, tokens, pos)
            mask, owed = mask & atom, owed - 1
    if pos != len(tokens):
        raise ConfigurationError(f"trailing tokens in horizon spec: {' '.join(tokens[pos:])}")
    return mask
