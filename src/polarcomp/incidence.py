"""Point-line incidence structures with bitset-backed subspace machinery.

Point sets are plain Python ints used as bitsets, which keeps the full
enumerations in this package fast without any dependencies.  Lines are sorted
tuples of point indices.  The constructor deliberately does not enforce partial
linearity: corrupted structures must stay representable so that the axiom
checker can report on them.  :func:`is_isomorphism` checks a point bijection
between two structures line by line.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

__all__ = ["bits", "mask_of", "IncidenceStructure", "is_isomorphism"]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points: Iterable[int]) -> int:
    """Bitset over the given point indices."""
    out = 0
    for p in points:
        out |= 1 << p
    return out


class IncidenceStructure:
    """An indexed point set with lines of size at least two; ``lines_at[p]``
    lists the ids of the lines through ``p`` and ``adj[p]`` masks its perp."""

    def __init__(self, n_points: int, lines: Iterable[Iterable[int]]):
        if n_points < 0:
            raise ValueError("point count must be nonnegative")
        self.n_points = n_points
        self.full_mask = (1 << n_points) - 1
        norm: list[tuple[int, ...]] = []
        masks: list[int] = []
        lines_at: list[list[int]] = [[] for _ in range(n_points)]
        adj = [1 << p for p in range(n_points)]
        for i, line in enumerate(lines):
            pts = tuple(sorted(line))
            if len(pts) < 2:
                raise ValueError(f"line {pts} has fewer than 2 points")
            if pts[0] < 0 or pts[-1] >= n_points:
                raise ValueError(f"line {pts} has out-of-range points")
            m = 0
            for p in pts:
                m |= 1 << p
            if m.bit_count() != len(pts):
                raise ValueError(f"line {pts} repeats a point")
            for p in pts:
                lines_at[p].append(i)
                adj[p] |= m
            norm.append(pts)
            masks.append(m)
        self.lines = norm
        self.line_masks = masks
        self.adj = adj
        self.lines_at = lines_at

    # -- perps and radicals ------------------------------------------------

    def set_perp(self, xs: int) -> int:
        """Intersection of perps over the set; everything for the empty set."""
        out = self.full_mask
        for p in bits(xs):
            out &= self.adj[p]
        return out

    def radical_of(self, xs: int) -> int:
        return xs & self.set_perp(xs)

    # -- subspaces ---------------------------------------------------------

    def closure_of(self, xs: int) -> int:
        """Least superset containing every line that meets it twice.  Only a
        line through a newly added point can newly meet the set twice."""
        cur = todo = xs
        while todo:
            low = todo & -todo
            todo ^= low
            for i in self.lines_at[low.bit_length() - 1]:
                m = self.line_masks[i]
                if m & ~cur and (m & cur).bit_count() >= 2:
                    todo |= m & ~cur
                    cur |= m
        return cur

    def is_subspace(self, xs: int) -> bool:
        for m in self.line_masks:
            if (m & xs).bit_count() >= 2 and m & ~xs:
                return False
        return True

    def is_hyperplane(self, xs: int) -> bool:
        """A proper subspace meeting every line."""
        if xs == self.full_mask or not self.is_subspace(xs):
            return False
        return all(m & xs for m in self.line_masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceStructure):
            return NotImplemented
        return self.n_points == other.n_points and sorted(self.lines) == sorted(other.lines)

    def __repr__(self) -> str:
        return f"IncidenceStructure({self.n_points} points, {len(self.lines)} lines)"


def is_isomorphism(
    a: IncidenceStructure, b: IncidenceStructure, mapping: dict[int, int]
) -> tuple[bool, dict]:
    """Check a point bijection line by line: ``(True, {})``, or ``False`` with
    the first violation."""
    if set(mapping.keys()) != set(range(a.n_points)):
        raise ValueError("mapping must be total on the first structure's points")
    values = set(mapping.values())
    if len(values) != len(mapping) or a.n_points != b.n_points:
        raise ValueError("mapping must be a bijection between equal point sets")
    if values and (min(values) < 0 or max(values) >= b.n_points):
        raise ValueError("mapping hits out-of-range points")

    # Lines as masks, counted off the target's: a line repeats no point and
    # the mapping is injective, so the sum of its image bits is the image's
    # mask, and that mask's bits are its sorted point tuple.
    image_bit = [1 << mapping[p] for p in range(a.n_points)]
    left = Counter(b.line_masks)
    left.subtract(sum(map(image_bit.__getitem__, line)) for line in a.lines)
    if not any(left.values()):
        return True, {}
    for i, line in enumerate(a.lines):
        image = sum(map(image_bit.__getitem__, line))
        if left[image] < 0:
            return False, {
                "line": i,
                "image": list(bits(image)),
                "reason": "image is not a line of the target",
            }
    target = next(m for m, n in left.items() if n > 0)  # no image is over-counted
    return False, {"target_line": list(bits(target)), "reason": "no line maps onto this target line"}
