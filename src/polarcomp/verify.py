"""The independent isomorphism search and the executable property battery.

Everything here distrusts the construction code on purpose: ground truth is
recomputed from closures and the base space, intrinsic results are compared
against it, and failures carry witnesses instead of raising.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from functools import cache

from .complement import Complement
from .errors import HorizonRefusal, LemmaFalsified
from .incidence import IncidenceStructure, bits, is_isomorphism, mask_of
from .polar import _partial_linear_witness
from .reconstruct import Run

__all__ = ["CheckResult", "find_isomorphism", "run_lemma_battery"]

class CheckResult:
    def __init__(
        self, check_id: str, status: str, witness: dict | None = None, elapsed_ms: float = 0.0
    ):
        self.check_id = check_id
        self.status = status  # pass | fail | skip
        self.witness = witness
        self.elapsed_ms = elapsed_ms

    def as_dict(self, include_elapsed: bool = False) -> dict:
        out: dict = {"check_id": self.check_id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if include_elapsed:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


# -- isomorphism ---------------------------------------------------------------


def _joint_colors(a: IncidenceStructure, b: IncidenceStructure) -> tuple[list[int], list[int]]:
    """Iterated refinement of point colors, shared across both structures.

    From one color the first round separates points only by the sorted
    sizes of their lines, so it reads the sizes; when it gives one class, so
    would every later round.  Later rounds read each line's profile once.
    """

    def refine(st: IncidenceStructure, colors: list[int], table: dict) -> list[int]:
        if n_colors == 1:  # the first round: a line's profile is its size
            profile: list = [len(line) for line in st.lines]
        else:
            profile = [tuple(sorted(colors[x] for x in line)) for line in st.lines]
        sigs = (tuple(sorted(profile[i] for i in ids)) for ids in st.lines_at)
        return [table.setdefault((c, sig), len(table)) for c, sig in zip(colors, sigs)]

    ca, cb, n_colors = [0] * a.n_points, [0] * b.n_points, 1
    while True:
        table: dict = {}
        na, nb = refine(a, ca, table), refine(b, cb, table)
        if len(table) == n_colors:
            return na, nb
        n_colors = len(table)
        ca, cb = na, nb


def find_isomorphism(a: IncidenceStructure, b: IncidenceStructure) -> dict[int, int] | None:
    """Backtracking isomorphism search with color-refinement pruning.

    Deterministic: candidate orders are fixed by point ids.  Points and
    lines are bitmasks throughout.  Returns a point mapping validated by
    :func:`is_isomorphism`, or None when the search space is exhausted.
    """
    ca, cb = _joint_colors(a, b)
    class_size = Counter(cb)
    if Counter(ca) != class_size:  # also when point or line counts differ
        return None

    color_mask: dict[int, int] = {}
    for v in range(b.n_points):
        color_mask[cb[v]] = color_mask.get(cb[v], 0) | 1 << v

    # Static assignment order: most-constrained first, preferring points
    # attached to already-ordered ones.  buckets[c] holds the unplaced points
    # with c ordered neighbours as bits over their (class size, id) ranks, so
    # the next point is the lowest bit of the highest nonempty bucket.
    by_rank = sorted(range(a.n_points), key=lambda p: (class_size[ca[p]], p))
    # each point's rank bit, rank_bit[by_rank[r]] == 1 << r
    rank_bit = [1 << r for r in sorted(range(a.n_points), key=by_rank.__getitem__)]
    attached = [0] * a.n_points
    buckets = [(1 << a.n_points) - 1] + [0] * a.n_points
    top = placed = 0
    order: list[int] = []
    for _ in range(a.n_points):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        best = by_rank[low.bit_length() - 1]
        order.append(best)
        placed |= 1 << best
        for q in bits(a.adj[best] & ~placed):
            attached[q] += 1
            buckets[attached[q] - 1] ^= rank_bit[q]
            buckets[attached[q]] |= rank_bit[q]
        top += 1  # a moved neighbour may now top the buckets

    # Bitmasks over b's line ids: the lines through two images are one AND.
    b_line_ids = list(map(mask_of, b.lines_at))

    # Depth-first over candidates in id order, on an explicit stack: left[d]
    # holds the candidates of order[d] not tried yet, want[d] the images of
    # its placed neighbours, image[p] its choice; placed_a and used_mask are
    # the placed points and their images.  Forcing maps a's lines onto b's
    # lines only where two points span one line, so a full assignment is
    # checked once and backtracked from if it is no isomorphism.
    image = [-1] * a.n_points
    used_mask = placed_a = 0
    left = [0] * a.n_points
    want = [0] * a.n_points
    depth = 0
    while depth >= 0:
        if depth == a.n_points:
            mapping = dict(enumerate(image))
            if is_isomorphism(a, b, mapping)[0]:
                return mapping
            depth -= 1
            continue
        p = order[depth]
        if image[p] >= 0:  # back from a dead end below: undo the choice
            used_mask ^= 1 << image[p]
            placed_a ^= 1 << p
            image[p] = -1
        else:  # a fresh visit: p's unused color mates; each line of a on p with
            # two placed points forces p onto a line of b through the images
            # of its two least placed points
            cands = color_mask[ca[p]] & ~used_mask
            for li in a.lines_at[p]:
                on = a.line_masks[li] & placed_a
                if on & (on - 1):
                    xy = bits(on)
                    on_xy = b_line_ids[image[next(xy)]] & b_line_ids[image[next(xy)]]
                    fit = 0
                    for m in bits(on_xy):
                        fit |= b.line_masks[m]
                    cands &= fit
            left[depth] = cands
            want[depth] = mask_of(image[x] for x in bits(a.adj[p] & placed_a))
        # A candidate is adjacent to exactly want[depth] among the used images.
        while left[depth]:
            low = left[depth] & -left[depth]
            left[depth] ^= low
            v = low.bit_length() - 1
            if b.adj[v] & used_mask == want[depth]:
                image[p] = v
                used_mask |= low
                placed_a |= 1 << p
                depth += 1
                break
        else:
            depth -= 1
    return None


# -- the battery ---------------------------------------------------------------


def _timed(check_id: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        witness = fn()
        status = "pass" if witness is None else "fail"
    except (LemmaFalsified, ValueError) as exc:
        status, witness = "fail", {"error": str(exc)}
    except Exception as exc:  # the battery reports; it never raises
        status, witness = "fail", {"error": str(exc), "exception": type(exc).__name__}
    return CheckResult(check_id, status, witness, (time.perf_counter() - t0) * 1000.0)


def _horizon_line_between(comp: Complement, d1: int, d2: int) -> int | None:
    """Base id of the line through two horizon points if it lies in the horizon."""
    li = None if d1 == d2 else comp.base.line_through(d1, d2)
    if li is None or comp.base.structure.line_masks[li] & ~comp.horizon:
        return None
    return li


def _horizon_collinear(comp: Complement, d1: int, d2: int, d3: int) -> bool:
    """Three distinct horizon points on one horizon line."""
    li = _horizon_line_between(comp, d1, d2)
    if li is None or d3 in (d1, d2):
        return False
    return bool((comp.base.structure.line_masks[li] >> d3) & 1)


def run_lemma_battery(run: Run) -> list[CheckResult]:
    """Run every verified property of the run's complement; report, never raise.

    Every pair of parallel lines and every triple of classes is checked.
    The intrinsic checks read the run's stages, so each is built at most
    once however many checks use it.
    """
    comp = run.complement
    st = comp.base.structure

    def check_partial_linear() -> dict | None:
        rows: dict[int, list[int]] = {p: [] for p in comp.proper_points}
        for k, trace in enumerate(comp.line_trace):
            for p in bits(trace):
                rows[p].append(k)
        return _partial_linear_witness(rows.items(), comp.line_trace)

    def check_affine_fibration() -> dict | None:
        w = comp.horizon
        # Ground fibres: closures meeting the horizon in the same point.
        meets = [st.line_masks[b] & w for b in comp.line_closure]
        fibres = {0: 0}  # a closure missing the horizon is parallel to nothing
        for k, m in enumerate(meets):
            cnt = m.bit_count()
            if cnt > 1:
                return {"line": k, "reason": f"closure meets the horizon in {cnt} points"}
            if (cnt == 1) != comp.is_affine(k):
                return {"line": k, "reason": "affine flag disagrees with the closure"}
            if m:
                fibres[m] = fibres.get(m, 0) | (1 << k)
        for k, row in enumerate(comp.parallel_table()):
            diff = (fibres[meets[k]] ^ row) >> k
            if diff:
                l = k + (diff & -diff).bit_length() - 1
                return {"lines": [k, l], "reason": "parallel table disagrees with closures"}
        return None

    def check_deep_points() -> dict | None:
        deep = comp.deep_points()
        if st.is_hyperplane(comp.horizon):
            if deep.bit_count() > 1:
                return {"deep_points": list(bits(deep)), "reason": "more than one deep point"}
            if deep & ~st.radical_of(comp.horizon):
                return {"deep_points": list(bits(deep)), "reason": "deep point off the radical"}
            return None
        if deep:
            return {"deep_points": list(bits(deep)), "reason": "deep points on a non-hyperplane"}
        return None

    @cache
    def affine_fibres() -> list[list[int]]:
        """The affine lines grouped by their point at infinity, each ascending:
        the distinct nonzero rows of the parallel table, by least member."""
        return [list(bits(row)) for row in dict.fromkeys(comp.parallel_table()) if row]

    def check_avoiding_hyperplane() -> dict | None:
        is_hyperplane = cache(st.is_hyperplane)
        pairs = (pair for members in affine_fibres() for pair in itertools.combinations(members, 2))
        for k, l in pairs:
            h = comp.avoiding_hyperplane(k, l)
            km = st.line_masks[comp.line_closure[k]]
            lm = st.line_masks[comp.line_closure[l]]
            if comp.horizon & ~h:
                return {"lines": [k, l], "reason": "hyperplane does not contain the horizon"}
            if not km & ~h or not lm & ~h:
                return {"lines": [k, l], "reason": "hyperplane contains a closure"}
            if not is_hyperplane(h):
                return {"lines": [k, l], "reason": "candidate is not a hyperplane"}
        return None

    def check_plane_chains() -> dict | None:
        # Being joined by a chain of planes through the point at infinity is
        # symmetric and transitive: two chains from a shared line m
        # concatenate at m, as the two planes meeting there both contain the
        # proper line m.  So chains from the first line of each fibre to the
        # other lines of that fibre join every parallel pair.
        for k, *rest in affine_fibres():
            paths = comp.plane_paths(k)
            a = comp.point_at_infinity(k)
            for l in rest:
                if l not in paths:
                    msg = f"no plane chain joins lines {k} and {l} through their point at infinity"
                    raise LemmaFalsified(msg)
                path = paths[l]
                if not path:
                    return {"lines": [k, l], "reason": "empty plane chain"}
                for pi in path:
                    if not (comp.planes()[pi] >> a) & 1:
                        return {"lines": [k, l], "plane": pi, "reason": "plane misses the infinity"}
                if k not in comp.plane_lines(path[0]):
                    return {"lines": [k, l], "reason": "first plane misses the first line"}
                if l not in comp.plane_lines(path[-1]):
                    return {"lines": [k, l], "reason": "last plane misses the second line"}
                for pi, pj in zip(path, path[1:]):
                    if set(comp.plane_lines(pi)).isdisjoint(comp.plane_lines(pj)):
                        return {"lines": [k, l], "planes": [pi, pj], "reason": "no shared line"}
        return None

    def check_parallel_tables_match() -> dict | None:
        intrinsic = run.parallelism.table()
        ground = comp.parallel_table()
        for k in range(comp.n_lines):
            if intrinsic[k] != ground[k]:
                diff = intrinsic[k] ^ ground[k]
                return {
                    "line": k,
                    "disagreeing_lines": list(bits(diff))[:8],
                    "reason": "intrinsic and ground parallelism differ",
                }
        return None

    def check_self_parallel_affine() -> dict | None:
        table = run.parallelism.table()
        for k in comp.affine_lines():
            if not (table[k] >> k) & 1:
                return {"line": k, "reason": "affine line is not self-parallel"}
        return None

    def check_affine_detection() -> dict | None:
        intrinsic = set(run.parallelism.class_id)
        ground = set(comp.affine_lines())
        if intrinsic != ground:
            return {
                "only_intrinsic": sorted(intrinsic - ground)[:8],
                "only_ground": sorted(ground - intrinsic)[:8],
            }
        return None

    @cache
    def class_directions() -> list[int] | dict:
        dirs = []
        for c, members in enumerate(run.parallelism.classes):
            d = comp.direction_of(members)
            if d is None:
                return {"class": c, "reason": "class has no single ground direction"}
            dirs.append(d)
        return dirs

    def with_directions(check):
        """Hand ``check`` the ground direction of every class, or fail with
        the first class that has none."""

        def checked() -> dict | None:
            dirs = class_directions()
            return dirs if isinstance(dirs, dict) else check(dirs)

        return checked

    @with_directions
    def check_deep_line_equivalence(dirs: list[int]) -> dict | None:
        deep = set(comp.deep_lines())
        p = run.parallelism
        for c1 in range(p.n_classes):
            for c2 in range(c1 + 1, p.n_classes):
                li = _horizon_line_between(comp, dirs[c1], dirs[c2])
                expected = li is not None and li in deep
                if (p.related[c1] >> c2 & 1) != expected:
                    return {
                        "classes": [c1, c2],
                        "directions": [dirs[c1], dirs[c2]],
                        "expected": expected,
                    }
        return None

    @with_directions
    def check_equiv_triples_collinear(dirs: list[int]) -> dict | None:
        # Mutually related triples c1 < c2 < c3, in lexicographic order.
        related = run.parallelism.related
        for c1, row in enumerate(related):
            for c2 in bits(row >> (c1 + 1) << (c1 + 1)):
                for c3 in bits((row & related[c2]) >> (c2 + 1) << (c2 + 1)):
                    if not _horizon_collinear(comp, dirs[c1], dirs[c2], dirs[c3]):
                        triple = [c1, c2, c3]
                        return {"classes": triple, "directions": [dirs[c] for c in triple]}
        return None

    @with_directions
    def check_ternary_collinearity(dirs: list[int]) -> dict | None:
        p = run.parallelism
        for c1, c2, c3 in itertools.combinations(range(p.n_classes), 3):
            ground = _horizon_collinear(comp, dirs[c1], dirs[c2], dirs[c3])
            if p.ternary_collinear(c1, c2, c3) != ground:
                return {
                    "classes": [c1, c2, c3],
                    "directions": [dirs[c1], dirs[c2], dirs[c3]],
                    "ground_collinear": ground,
                }
        return None

    @with_directions
    def check_new_line_families(dirs: list[int]) -> dict | None:
        p = run.parallelism
        prime = p.lines_prime()
        second = p.lines_second()
        if len(set(prime)) != len(prime):
            return {"reason": "duplicate sets in the first new family"}
        if len(set(second)) != len(second):
            return {"reason": "duplicate sets in the second new family"}
        overlap = set(prime) & set(second)
        if overlap:
            return {"set": list(next(iter(overlap))), "reason": "families overlap"}
        q = comp.base.form.field.q
        deep = comp.deep_lines()
        deep_masks = {st.line_masks[li]: li for li in deep}
        seen_deep = {}
        for group in prime:
            if len(group) != q + 1:
                return {"set": list(group), "reason": f"expected {q + 1} classes"}
            dmask = mask_of(dirs[c] for c in group)
            if dmask not in deep_masks:
                return {"set": list(group), "reason": "directions are not a deep line"}
            li = deep_masks[dmask]
            if li in seen_deep:
                return {"set": list(group), "reason": "deep line recovered twice"}
            seen_deep[li] = group
        missing = [li for li in deep if li not in seen_deep]
        if missing:
            return {"deep_lines": missing, "reason": "deep lines not recovered"}
        expected_second = set()
        dir_class = {d: c for c, d in enumerate(dirs)}
        for plane in comp.planes():
            hz = plane & comp.horizon
            if hz.bit_count() > 1:
                expected_second.add(tuple(sorted(dir_class[d] for d in bits(hz))))
        if expected_second != set(second):
            return {
                "missing": [list(g) for g in sorted(expected_second - set(second))][:4],
                "extra": [list(g) for g in sorted(set(second) - expected_second)][:4],
            }
        return None

    @with_directions
    def check_class_point_bijection(dirs: list[int]) -> dict | None:
        if len(set(dirs)) != len(dirs):
            return {"reason": "two classes share a direction"}
        covered = mask_of(dirs)
        expected = comp.horizon & ~comp.deep_points()
        if covered != expected:
            return {
                "uncovered": list(bits(expected & ~covered))[:8],
                "unexpected": list(bits(covered & ~expected))[:8],
            }
        return None

    def check_ambient_recovery() -> dict | None:
        ok, cert = run.canonical_isomorphism
        return None if ok else cert

    ground = [
        ("partial_linear", check_partial_linear),
        ("affine_fibration", check_affine_fibration),
        ("deep_points", check_deep_points),
        ("avoiding_hyperplane", check_avoiding_hyperplane),
        ("plane_chains", check_plane_chains),
    ]
    intrinsic = [
        ("parallel_tables_match", check_parallel_tables_match),
        ("self_parallel_affine", check_self_parallel_affine),
        ("affine_detection", check_affine_detection),
        ("deep_line_equivalence", check_deep_line_equivalence),
        ("equiv_triples_collinear", check_equiv_triples_collinear),
        ("ternary_collinearity", check_ternary_collinearity),
        ("new_line_families", check_new_line_families),
        ("class_point_bijection", check_class_point_bijection),
        ("ambient_recovery", check_ambient_recovery),
    ]
    results = [_timed(check_id, fn) for check_id, fn in ground]
    # Build the parallelism outside the checks' times.  Where the run refuses
    # it, only the ground-side properties are in scope; any other failed stage
    # keeps its exception, so each check that reads it still reports it.
    try:
        run.parallelism
    except HorizonRefusal as exc:
        return results + [CheckResult(check_id, "skip", {"reason": str(exc)}) for check_id, _ in intrinsic]
    except Exception:
        pass
    return results + [_timed(check_id, fn) for check_id, fn in intrinsic]
