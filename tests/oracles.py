"""Slow reference definitions that the fast library code is checked against.

These follow the definitions pair by pair and are far too slow for larger
spaces; the tests use them only as oracles.
"""

from polarcomp.incidence import bits


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
