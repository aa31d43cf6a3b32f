"""Rebuilding the ambient polar space from a complement's own incidence.

The engine is :class:`Parallelism`.  Two disjoint proper lines are related
by the crossing configuration when two further lines cross both and meet
each other in a point off them.  Two coplanarity facts keep the work local.
A crossing configuration lies in one singular plane, so the relation is
built plane by plane, with a few bit tests per disjoint pair of the plane.
A triangle of pairwise meeting lines spans one too, so ternary collinearity
of directions looks for a triangle only in the planes holding members of
all three classes.  The connected components of the relation's symmetric
bit rows are the parallel classes of affine lines.

New points are the parallel classes.  New lines come in two families: sets
of mutually anti-euclidean classes (these recover lines of the horizon
that no plane reaches) and per-plane direction sets.  The assembly reads
only proper lines and planes, never the horizon, whose ground-truth data
is consulted only by :func:`canonical_map` and the verification layer.
:class:`Run` holds one configuration's chain: the parallelism reads the
complement, the reconstruction and the canonical map each read the
parallelism, and the isomorphism check reads those two.  Each stage is
built on first use and kept.
"""

from __future__ import annotations

from itertools import product

from .complement import Complement
from .errors import HorizonRefusal, LemmaFalsified
from .incidence import IncidenceStructure, bits, is_isomorphism, mask_of

__all__ = [
    "Parallelism",
    "reconstruct",
    "canonical_map",
    "Run",
]


class Parallelism:
    """All intrinsic relations of a complement, precomputed as bit tables.

    ``star_rows[i]`` holds the lines ``j`` disjoint from ``i`` for which two
    distinct lines ``t1``, ``t2`` cross both and meet each other in a point
    ``p`` off ``i`` and ``j``.  As ``p``, ``t1 & i`` and ``t2 & i`` are
    pairwise collinear, all four lines lie in one singular plane.  So two
    disjoint lines of a plane are related when some point of the plane off
    both carries two of the plane's lines that meet both.
    """

    def __init__(self, comp: Complement):
        self.comp = comp
        lm = comp.line_trace
        star = [0] * comp.n_lines
        for pi in range(len(comp.planes())):
            ids = comp.plane_lines(pi)
            at: dict[int, int] = {}  # the plane's lines through each point
            for a, k in enumerate(ids):
                for p in bits(lm[k]):
                    at[p] = at.get(p, 0) | 1 << a
            meets = [0] * len(ids)  # meets[a]: the lines sharing a point with a, a included
            for through in at.values():
                for a in bits(through):
                    meets[a] |= through
            throughs, full = list(at.values()), (1 << len(ids)) - 1
            for a, row in enumerate(meets):
                for b in bits((full ^ row) >> (a + 1) << (a + 1)):  # disjoint, b > a
                    both, ab = row & meets[b], 1 << a | 1 << b
                    for t in throughs:
                        if (t & both).bit_count() > 1 and not t & ab:
                            star[ids[a]] |= 1 << ids[b]
                            star[ids[b]] |= 1 << ids[a]
                            break
        self.star_rows = star

        # Classes: connected components of the symmetric star rows, each
        # grown from the lowest-id line not yet in a class.  The lines with
        # a class (the keys of ``class_id``) are the intrinsically affine ones.
        cid: dict[int, int] = {}
        masks: list[int] = []
        todo = mask_of(i for i, row in enumerate(star) if row)
        while todo:
            cls = frontier = todo & -todo
            while frontier:
                reached = 0
                for i in bits(frontier):
                    reached |= star[i]
                frontier = reached & ~cls
                cls |= frontier
            todo &= ~cls
            cid.update(dict.fromkeys(bits(cls), len(masks)))
            masks.append(cls)
        self.classes: list[tuple[int, ...]] = [tuple(bits(m)) for m in masks]
        self.class_id = cid
        self.class_line_mask = masks
        self.n_classes = len(masks)

        # creach[c]: the classes having a member through a point of class c,
        # a symmetric and reflexive relation; its complement related[c] is anti-euclidean.
        class_points = [mask_of(p for k in cls for p in bits(lm[k])) for cls in self.classes]
        self.creach = [mask_of(c for c, b in enumerate(class_points) if a & b) for a in class_points]
        full = (1 << self.n_classes) - 1
        self.related = [full & ~row for row in self.creach]

        # The classes with a member in each plane; by transpose, the planes of each class.
        self.plane_classes = [
            mask_of(cid[k] for k in comp.plane_lines(pi) if k in cid)
            for pi in range(len(comp.planes()))
        ]
        self.class_planes = [0] * self.n_classes
        for pi, row in enumerate(self.plane_classes):
            for c in bits(row):
                self.class_planes[c] |= 1 << pi

    # -- the parallelism itself ---------------------------------------------

    def table(self) -> list[int]:
        """Row ``k``: bitmask of lines intrinsically parallel to ``k``."""
        cid, masks = self.class_id, self.class_line_mask
        return [masks[cid[k]] if k in cid else 0 for k in range(self.comp.n_lines)]

    # -- relations on classes -------------------------------------------------

    def lines_prime(self) -> list[tuple[int, ...]]:
        """Class sets spanned by related class pairs; recovers unreachable
        horizon lines.

        For each related pair the set collects every class related (in the
        reflexive sense) to both; duplicates from different generating pairs
        collapse.
        """
        hat = [row | 1 << c for c, row in enumerate(self.related)]
        groups = (
            tuple(bits(hat[c1] & hat[c2]))
            for c1, row in enumerate(self.related)
            for c2 in bits(row >> (c1 + 1) << (c1 + 1))
        )
        return list(dict.fromkeys(groups))

    def lines_second(self) -> list[tuple[int, ...]]:
        """Per-plane direction sets of size at least two.  The complement's
        planes are the planes on its short lines; a plane missing the horizon
        holds no affine line, so reading it would add no direction."""
        return list(dict.fromkeys(tuple(bits(m)) for m in self.plane_classes if m & (m - 1)))

    def ternary_collinear(self, c1: int, c2: int, c3: int) -> bool:
        """Whether three distinct directions lie on a common horizon line.

        Either the three classes are mutually related, or some
        representatives form a triangle, pairwise meeting in three distinct
        points.  A triangle spans a singular plane holding all three lines,
        so only the planes with members of all three classes are searched.
        """
        if len({c1, c2, c3}) != 3:
            raise ValueError("classes must be pairwise distinct")
        r = self.related
        if (r[c1] >> c2) & (r[c2] >> c3) & (r[c3] >> c1) & 1:
            return True
        lm, cid, cp = self.comp.line_trace, self.class_id, self.class_planes
        for pi in bits(cp[c1] & cp[c2] & cp[c3]):
            ids = self.comp.plane_lines(pi)
            for m1, m2, m3 in product(*([k for k in ids if cid.get(k) == c] for c in (c1, c2, c3))):
                z = {lm[m1] & lm[m2], lm[m1] & lm[m3], lm[m2] & lm[m3]}
                if 0 not in z and len(z) == 3:
                    return True
        return False


class ReconstructedStructure:
    """The rebuilt ambient space with its tagged line families."""

    def __init__(self, structure: IncidenceStructure, families: dict[str, list[tuple[int, ...]]]):
        self.structure = structure
        self.families = families


def reconstruct(par: Parallelism) -> ReconstructedStructure:
    """Assemble proper points plus directions into a copy of the base space.

    Proper lines are extended by their direction when affine; the two new
    line families contribute the horizon lines.  Local point ids follow the
    base ids and class points follow them, so every line comes out ascending.
    """
    comp = par.comp
    n_proper = len(comp.proper_points)
    local = {p: i for i, p in enumerate(comp.proper_points)}

    extended: list[tuple[int, ...]] = []
    for k, trace in enumerate(comp.line_trace):
        pts = [local[p] for p in bits(trace)]
        if k in par.class_id:
            pts.append(n_proper + par.class_id[k])
        extended.append(tuple(pts))
    prime = [tuple(n_proper + c for c in group) for group in par.lines_prime()]
    second = [tuple(n_proper + c for c in group) for group in par.lines_second()]

    st = IncidenceStructure(n_proper + par.n_classes, extended + prime + second)
    return ReconstructedStructure(st, {"extended": extended, "prime": prime, "second": second})


def canonical_map(par: Parallelism) -> dict[int, int]:
    """Map reconstructed point ids onto base point ids.

    Proper points map to themselves; each class maps to the common point at
    infinity of its members.  The ids are those :func:`reconstruct` gives,
    so the map reads the parallelism alone.  Any ambiguity falsifies the
    theory and raises :class:`LemmaFalsified` rather than guessing.
    """
    comp = par.comp
    n_proper = len(comp.proper_points)
    mapping = dict(enumerate(comp.proper_points))
    seen: dict[int, int] = {}
    for c, members in enumerate(par.classes):
        direction = comp.direction_of(members)
        if direction is None:
            raise LemmaFalsified(f"class {c} has no single point at infinity")
        if direction in seen:
            raise LemmaFalsified(f"classes {seen[direction]} and {c} share direction {direction}")
        seen[direction] = c
        mapping[n_proper + c] = direction
    uncovered = comp.horizon & ~mask_of(seen)
    if uncovered:
        raise LemmaFalsified(f"horizon points {list(bits(uncovered))} have no direction")
    return mapping


def _stage(build):
    """A :class:`Run` stage, built on first read.  Its value, or the exception
    building it raised, is kept and handed to every later reader."""

    def read(run):
        if build not in run._kept:
            try:
                run._kept[build] = (build(run), None)
            except Exception as exc:
                run._kept[build] = (None, exc)
        value, exc = run._kept[build]
        if exc is not None:
            raise exc
        return value

    return property(read)


class Run:
    """One configuration's derived stages, each built on first use and kept.

    Over a hyperplane horizon the parallelism stage refuses, and so every
    stage read from it: that case is recovered by a different construction
    and is out of scope here.  A stage that raises keeps its exception and
    re-raises it to every reader, so a failing stage is built once however
    many readers ask for it.
    """

    def __init__(self, comp: Complement):
        self.complement = comp
        self._kept: dict = {}

    @_stage
    def parallelism(self) -> Parallelism:
        if self.complement.horizon_is_hyperplane:
            raise HorizonRefusal("hyperplane horizon: delegated case")
        return Parallelism(self.complement)

    @_stage
    def reconstruction(self) -> ReconstructedStructure:
        return reconstruct(self.parallelism)

    @_stage
    def canonical_map(self) -> dict[int, int]:
        return canonical_map(self.parallelism)

    @_stage
    def canonical_isomorphism(self) -> tuple[bool, dict]:
        """:func:`is_isomorphism` of the canonical map onto the base space."""
        base = self.complement.base.structure
        return is_isomorphism(self.reconstruction.structure, base, self.canonical_map)
