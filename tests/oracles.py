"""Slow reference definitions that the fast library code is checked against.

These follow the definitions pair by pair and are far too slow for larger
spaces; the tests use them only as oracles.
"""

import itertools
from collections import Counter

from polarcomp.algebra import normalize_point, pg_line, pg_points
from polarcomp.complement import Complement
from polarcomp.incidence import bits, mask_of


def _poly_rem(poly, monic, p):
    """Remainder of ``poly`` modulo the ``monic`` polynomial over GF(p),
    coefficients constant first, trailing zeros trimmed."""
    rem = [c % p for c in poly]
    deg = len(monic) - 1
    while len(rem) > deg:
        top = rem.pop()
        for i, c in enumerate(monic[:-1], len(rem) - deg):
            rem[i] = (rem[i] - top * c) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree up to deg/2; the
    last coefficient of ``modulus`` is its nonzero leading one."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_rem(modulus, tail + (1,), p):
                return False
    return True


def field_digits(a, p, k):
    """Base-p digits of ``a``, least significant first."""
    return [a // p**i % p for i in range(k)]


def field_pack(digits, p):
    return sum(c * p**i for i, c in enumerate(digits))


def field_mul(p, k, modulus, a, b):
    """Polynomial product of the digits of ``a`` and ``b``, reduced by ``modulus``."""
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(field_digits(a, p, k)):
        for j, y in enumerate(field_digits(b, p, k)):
            prod[i + j] += x * y
    return field_pack(_poly_rem(prod, modulus, p), p)


def bilin(form, u, v):
    """Gram product; the right argument is conjugated for hermitian forms."""
    f = form.field
    if form.kind == "hermitian":
        v = tuple(f.conj[x] for x in v)
    acc = 0
    for ui, row in zip(u, form.gram):
        for c, vj in zip(row, v):
            acc = f.add[acc][f.mul[ui][f.mul[c][vj]]]
    return acc


def quad_scan(form, v):
    """The quadratic form at ``v``, read over the whole upper triangle of ``quad``."""
    f = form.field
    acc = 0
    for i, row in enumerate(form.quad):
        for j in range(i, form.dim):
            acc = f.add[acc][f.mul[row[j]][f.mul[v[i]][v[j]]]]
    return acc


def pair_perp(form, u, v):
    """True iff the two vectors are orthogonal under the reflexive form."""
    return bilin(form, u, v) == 0


def form_lines(ps):
    """Sorted lines of the space: the span of every orthogonal point pair."""
    f = ps.form.field
    index = {p: i for i, p in enumerate(ps.points)}
    lines = set()
    for u, v in itertools.combinations(ps.points, 2):
        if pair_perp(ps.form, u, v):
            lines.add(tuple(sorted(index[p] for p in pg_line(f, u, v))))
    return sorted(lines)


def covector_sections(ps):
    """Section of each covector of the ambient space, in covector order: the
    points ``x`` with ``sum c_j x_j == 0``, each evaluated coordinate by coordinate."""
    f = ps.form.field
    add, mul = f.add, f.mul
    sections = []
    for cov in pg_points(f, ps.form.dim - 1):
        m = 0
        for i, pt in enumerate(ps.points):
            acc = 0
            for c, x in zip(cov, pt):
                acc = add[acc][mul[c][x]]
            if acc == 0:
                m |= 1 << i
        sections.append(m)
    return sections


def hyperplane_sections(ps):
    """Ambient-hyperplane sections other than the whole space, first occurrence
    in covector order."""
    full = ps.structure.full_mask
    return list(dict.fromkeys(m for m in covector_sections(ps) if m != full))


def is_spiky(st, xs):
    """Every point of the set is collinear with some point outside it."""
    return all(st.adj[p] & ~xs for p in bits(xs))


def lines_in(st, xs):
    """Ids of the lines fully contained in the set, line by line."""
    return [i for i, m in enumerate(st.line_masks) if not m & ~xs]


def line_through_scan(st, a, b):
    """First line in id order that holds both points, else None."""
    if not (st.adj[a] >> b & 1):
        return None
    return next(i for i in st.lines_at[a] if (st.line_masks[i] >> b) & 1)


def drop_proper_line(c, k):
    """A copy of the complement with proper line ``k`` deleted from the base:
    the fault injector for checks that must notice a missing line."""
    keep = [b for b in c._line_ids if b != c.line_closure[k]]
    return Complement(c.base, c.horizon, line_ids=keep)


def partial_linear_scan(st):
    """First two lines through a common point that share a second point."""
    for p in range(st.n_points):
        ids = st.lines_at[p]
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                i, j = ids[x], ids[y]
                if (st.line_masks[i] & st.line_masks[j]).bit_count() > 1:
                    return {"lines": [i, j]}
    return None


def one_or_all_scan(st):
    """First line and point off it collinear with neither one nor all of its points."""
    for i, m in enumerate(st.line_masks):
        size = len(st.lines[i])
        for a in range(st.n_points):
            if (m >> a) & 1:
                continue
            c = (st.adj[a] & m).bit_count()
            if c != 1 and c != size:
                return {"point": a, "line": i, "collinear_count": c}
    return None


def closure_scan(st, xs):
    """Least superset closed under lines meeting it twice, rescanning every
    line until nothing changes."""
    cur = xs
    changed = True
    while changed:
        changed = False
        for m in st.line_masks:
            if m & ~cur and (m & cur).bit_count() >= 2:
                cur |= m
                changed = True
    return cur


def rank_scan(st):
    """Greedy chain length: adjoin the first point collinear with the whole
    set, found point by point, and close up by :func:`closure_scan`."""
    if st.n_points == 0:
        return 0
    cur, rank = 1, 1
    while True:
        found = next((x for x in bits(st.full_mask & ~cur) if not cur & ~st.adj[x]), None)
        if found is None:
            return rank
        cur = closure_scan(st, cur | (1 << found))
        rank += 1


def axioms_scan(st):
    """The axiom report as ``axioms.json`` holds it, every axiom checked by a
    plain scan."""
    thin = next((i for i, line in enumerate(st.lines) if len(line) < 3), None)
    deg = next((p for p in range(st.n_points) if st.adj[p] == st.full_mask), None)
    found = {
        "partial_linear": partial_linear_scan(st),
        "thick": None if thin is None else {"line": thin},
        "nondegenerate": None if deg is None else {"point": deg},
        "one_or_all": one_or_all_scan(st),
    }
    ok = {name: w is None for name, w in found.items()}
    witnesses = {name: w for name, w in found.items() if w is not None}
    return {**ok, "rank": rank_scan(st), "witnesses": witnesses, "all_ok": all(ok.values())}


def _span3_mask(ps, index, a, b, c):
    """Points of the projective plane spanned by three coordinate vectors."""
    f = ps.form.field
    mask = 0
    for s in range(f.q):
        for t in range(f.q):
            for u in range(f.q):
                if s == 0 and t == 0 and u == 0:
                    continue
                vec = tuple(
                    f.add[f.add[f.mul[s][x]][f.mul[t][y]]][f.mul[u][z]]
                    for x, y, z in zip(a, b, c)
                )
                mask |= 1 << index[normalize_point(f, vec)]
    return mask


def span_planes(ps):
    """Singular planes as coordinate spans of a line and each point of its perp.

    Sorted like :meth:`PolarSpace.singular_planes`, so plane ids agree.
    """
    if ps.rank < 3:
        return []
    st = ps.structure
    index = {p: i for i, p in enumerate(ps.points)}
    seen = set()
    for li, line in enumerate(st.lines):
        a, b = ps.points[line[0]], ps.points[line[1]]
        for x in bits(st.set_perp(st.line_masks[li]) & ~st.line_masks[li]):
            seen.add(_span3_mask(ps, index, a, b, ps.points[x]))
    return sorted(seen, key=lambda m: tuple(bits(m)))


def plane_lines_scan(comp):
    """Row ``pi``: proper line ids whose trace lies in plane ``pi``, line by line."""
    rows = []
    for plane in comp.planes():
        m = 0
        for k, trace in enumerate(comp.line_trace):
            if not trace & ~plane:
                m |= 1 << k
        rows.append(m)
    return rows


def realized_deep_points(comp):
    """Horizon points that no proper line reaches."""
    reached = mask_of(comp.point_at_infinity(k) for k in comp.affine_lines())
    return comp.horizon & ~reached


def affine_plane_horizon(comp, pi):
    """Points at infinity realized by the affine lines inside plane ``pi``."""
    lines = comp.plane_lines(pi)
    return mask_of(comp.point_at_infinity(k) for k in lines if comp.is_affine(k))


def affine_semiaffine_planes(comp):
    """Ids of the planes containing at least one affine line."""
    return [pi for pi in range(len(comp.planes())) if affine_plane_horizon(comp, pi)]


def unrealized_deep_lines(comp):
    """Base ids of the horizon lines that are no plane's set of infinities."""
    realized = {affine_plane_horizon(comp, pi) for pi in range(len(comp.planes()))}
    st = comp.base.structure
    return [k for k in comp.horizon_line_ids if st.line_masks[k] not in realized]


def _meets(comp, k):
    """Lines sharing a proper point with line ``k``, ``k`` included."""
    m = 0
    for p in bits(comp.line_trace[k]):
        m |= comp.lines_at_point(p)
    return m


def _witness(comp, meets_i, meets_j, lm_i, lm_j):
    """Two distinct lines crossing both, meeting each other off the pair."""
    transversals = meets_i & meets_j
    if transversals.bit_count() < 2:
        return False
    off = ~(lm_i | lm_j)
    for l1 in bits(transversals):
        for p in bits(comp.line_trace[l1] & off):
            if comp.lines_at_point(p) & transversals & ~(1 << l1):
                return True
    return False


def star_parallel(comp, k1, k2):
    """The crossing-configuration relation on two proper lines.

    True iff the lines are disjoint and some two distinct proper lines cross
    both of them while meeting each other in a point off both.
    """
    lm1, lm2 = comp.line_trace[k1], comp.line_trace[k2]
    if lm1 & lm2:
        return False
    return _witness(comp, _meets(comp, k1), _meets(comp, k2), lm1, lm2)


def star_table(comp):
    """Row ``i``: bitmask of the lines related to ``i``, pair by pair."""
    lm = comp.line_trace
    meets = [_meets(comp, k) for k in range(comp.n_lines)]
    rows = [0] * comp.n_lines
    for i in range(comp.n_lines):
        for j in range(i + 1, comp.n_lines):
            if not lm[i] & lm[j] and _witness(comp, meets[i], meets[j], lm[i], lm[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def crossing_scan(comp):
    """Row ``i``: the lines related to ``i``, from every crossing point.

    For each proper point ``p`` and each two lines ``t1``, ``t2`` through it,
    over the whole line set, every two disjoint lines meeting both away from
    ``p`` are related.  Each distinct set of such lines is read once.
    """
    meets = [_meets(comp, k) for k in range(comp.n_lines)]
    crossing_sets = set()
    for p in comp.proper_points:
        through = comp.lines_at_point(p)
        crossing = [meets[t] & ~through for t in bits(through)]
        for a, c1 in enumerate(crossing):
            for c2 in crossing[a + 1 :]:
                crossing_sets.add(c1 & c2)
    rows = [0] * comp.n_lines
    for c in crossing_sets:
        for i in bits(c):
            rows[i] |= c & ~meets[i]
    return rows


def plane_crossing_rows(comp):
    """Row ``i``: the lines related to ``i``, plane by plane, from every
    crossing set.  In a plane, for each point ``p`` and two lines ``t1``,
    ``t2`` through it, the set holds the plane's lines meeting both away from
    ``p``; any two disjoint lines of one set are related.  Each distinct set
    of a plane is read once."""
    lm = comp.line_trace
    star = [0] * comp.n_lines
    for pi in range(len(comp.planes())):
        ids = comp.plane_lines(pi)
        at = {}  # the plane's lines through each point, as local bits
        for a, k in enumerate(ids):
            for p in bits(lm[k]):
                at[p] = at.get(p, 0) | 1 << a
        meets = [0] * len(ids)
        for through in at.values():
            for a in bits(through):
                meets[a] |= through
        crossing = set()
        for through in at.values():
            off_p = [meets[t] & ~through for t in bits(through)]
            crossing.update(c1 & c2 for c1, c2 in itertools.combinations(off_p, 2))
        rows = [0] * len(ids)
        for c in crossing:
            for a in bits(c):
                rows[a] |= c & ~meets[a]
        for a, row in enumerate(rows):
            star[ids[a]] |= mask_of(ids[b] for b in bits(row))
    return star


def ternary_scan(par):
    """The ternary-collinear class triples ``(c1, c2, c3)``, ``c1 < c2 < c3``,
    over the whole line set: mutually related, or with representatives
    pairwise meeting in three distinct points."""
    comp = par.comp
    lm = comp.line_trace
    meets = [_meets(comp, k) for k in range(comp.n_lines)]
    masks = par.class_line_mask

    def triangle(c1, c2, c3):
        for m1 in par.classes[c1]:
            for m2 in bits(masks[c2] & meets[m1]):
                z12 = lm[m1] & lm[m2]
                for m3 in bits(masks[c3] & meets[m1] & meets[m2]):
                    if not (z12 == (lm[m1] & lm[m3]) == (lm[m2] & lm[m3])):
                        return True
        return False

    reach = class_reach_scan(par)

    def related(*cs):
        return all(class_equiv(reach, a, b) for a, b in itertools.combinations(cs, 2))

    return {
        t
        for t in itertools.combinations(range(par.n_classes), 3)
        if related(*t) or triangle(*t)
    }


def plane_path_scan(comp, k, l):
    """Breadth-first plane chain from ``k`` to ``l``, testing every node pair.

    Nodes are the planes through the common point at infinity, taken in id
    order; None when no chain exists.
    """
    a = comp.point_at_infinity(k)
    rows = [mask_of(comp.plane_lines(pi)) for pi in range(len(comp.planes()))]
    nodes = [pi for pi, plane in enumerate(comp.planes()) if (plane >> a) & 1]
    parent = {pi: None for pi in nodes if (rows[pi] >> k) & 1}
    queue = list(parent)
    for pi in queue:
        if (rows[pi] >> l) & 1:
            path = [pi]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for pj in nodes:
            if pj not in parent and rows[pi] & rows[pj]:
                parent[pj] = pi
                queue.append(pj)
    return None


def fibration_mismatch(comp):
    """First pair ``[k, l]``, ``k <= l``, whose closures' meeting in the horizon
    disagrees with :meth:`Complement.horizon_parallel`; None if all agree."""
    st = comp.base.structure
    closures = [st.line_masks[b] for b in comp.line_closure]
    for k in range(comp.n_lines):
        for l in range(k, comp.n_lines):
            if bool(closures[k] & closures[l] & comp.horizon) != comp.horizon_parallel(k, l):
                return [k, l]
    return None


def class_equiv(reach, c1, c2):
    """The anti-euclidean relation on two classes, from class reach rows:
    distinct, and neither class reaches the other."""
    if c1 == c2:
        return False
    return not ((reach[c1] >> c2) & 1 or (reach[c2] >> c1) & 1)


def random_reach(n, density, rnd):
    """Random class reach rows of the shape real ones have: symmetric and
    reflexive, each off-diagonal pair reaching with probability ``density``."""
    rows = [1 << c for c in range(n)]
    for c1, c2 in itertools.combinations(range(n), 2):
        if rnd.random() < density:
            rows[c1] |= 1 << c2
            rows[c2] |= 1 << c1
    return rows


def lines_prime_scan(par, reach):
    """For each pair ``c1 < c2`` related by the reach rows, every class equal
    or related to both; each set once, in first-seen order."""
    def hat(m, c):
        return m == c or class_equiv(reach, m, c)

    out = []
    for c1 in range(par.n_classes):
        for c2 in range(c1 + 1, par.n_classes):
            if class_equiv(reach, c1, c2):
                group = tuple(m for m in range(par.n_classes) if hat(m, c1) and hat(m, c2))
                if group not in out:
                    out.append(group)
    return out


def class_reach_scan(par):
    """Row ``c``: the classes reached by a member of class ``c``, OR'd from
    per-line reach rows.  Line ``k`` reaches the classes having a member
    that shares a proper point with ``k``."""
    lm = par.comp.line_trace
    rows = [0] * par.n_classes
    for k, c in par.class_id.items():
        rows[c] |= mask_of(par.class_id[m] for m in par.class_id if lm[k] & lm[m])
    return rows


def lines_second_scan(par):
    """Direction sets of size at least two of the planes meeting the horizon,
    each set once, in first-seen order."""
    comp = par.comp
    out = []
    for pi in comp.semiaffine_planes():
        lines = comp.plane_lines(pi)
        group = tuple(sorted({par.class_id[k] for k in lines if k in par.class_id}))
        if len(group) > 1 and group not in out:
            out.append(group)
    return out


def refined_colors(a, b):
    """Joint color refinement of two structures from one color: each round
    colors a point by its color and the sorted color profiles of its lines,
    numbering the new colors in first-seen order over ``a``'s points, then
    ``b``'s, until the number of colors stops growing."""

    def refine(st, colors, table):
        profile = [tuple(sorted(colors[x] for x in line)) for line in st.lines]
        sigs = (tuple(sorted(profile[i] for i in st.lines_at[p])) for p in range(st.n_points))
        return [table.setdefault((c, sig), len(table)) for c, sig in zip(colors, sigs)]

    ca, cb, n_colors = [0] * a.n_points, [0] * b.n_points, 1
    while True:
        table = {}
        na, nb = refine(a, ca, table), refine(b, cb, table)
        if len(table) == n_colors:
            return na, nb
        n_colors = len(table)
        ca, cb = na, nb


def tuple_is_isomorphism(a, b, mapping):
    """:func:`is_isomorphism` on sorted point tuples: the multiset of image
    lines against the target's lines, with the first image that is not a
    target line, else the first target line that no line maps onto."""
    if set(mapping.keys()) != set(range(a.n_points)):
        raise ValueError("mapping must be total on the first structure's points")
    values = set(mapping.values())
    if len(values) != len(mapping) or a.n_points != b.n_points:
        raise ValueError("mapping must be a bijection between equal point sets")
    if values and (min(values) < 0 or max(values) >= b.n_points):
        raise ValueError("mapping hits out-of-range points")
    images = [tuple(sorted(mapping[p] for p in line)) for line in a.lines]
    image_count = Counter(images)
    target_count = Counter(b.lines)
    for i, img in enumerate(images):
        if image_count[img] > target_count.get(img, 0):
            return False, {"line": i, "image": list(img), "reason": "image is not a line of the target"}
    for line, cnt in target_count.items():
        if image_count.get(line, 0) < cnt:
            return False, {"target_line": list(line), "reason": "no line maps onto this target line"}
    return True, {}


def unforced_isomorphism(a, b):
    """:func:`find_isomorphism` without line forcing: the same colors, static
    order and ascending candidates, pruned only by adjacency to the placed
    points and by the lines whose points are all placed."""
    ca, cb = refined_colors(a, b)
    size = Counter(cb)
    if Counter(ca) != size:
        return None
    attached, order, unplaced = [0] * a.n_points, [], set(range(a.n_points))
    while unplaced:
        best = min(unplaced, key=lambda p: (-attached[p], size[ca[p]], p))
        order.append(best)
        unplaced.discard(best)
        for q in bits(a.adj[best]):
            attached[q] += 1
    image, b_lines = {}, set(b.lines)

    def extend(d):
        if d == len(order):
            return True
        p = order[d]
        for v in range(b.n_points):
            if cb[v] != ca[p] or v in image.values():
                continue
            if any((b.adj[v] >> image[q] & 1) != (a.adj[p] >> q & 1) for q in image):
                continue
            image[p] = v
            full = [li for li in a.lines_at[p] if all(x in image for x in a.lines[li])]
            if all(tuple(sorted(image[x] for x in a.lines[li])) in b_lines for li in full):
                if extend(d + 1):
                    return True
            del image[p]
        return False

    return image if extend(0) and tuple_is_isomorphism(a, b, image)[0] else None
