"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own algorithms: cofactor
determinants instead of fraction-free elimination, multiset enumeration
instead of incremental sumsets, sieves instead of memoized descent,
rational plane-solving instead of cofactor normals, and a convex-combination
search instead of facet incidence for hull vertices.  Slow but exact.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np


def naive_determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_determinant(minor)
    return total


def sumset_by_enumeration(points, n):
    """N*A via raw multiset enumeration (exponential; tiny cases only)."""
    out = set()
    for combo in combinations_with_replacement(points, n):
        out.add(tuple(sum(c[k] for c in combo) for k in range(len(points[0]))))
    return sorted(out)


def semigroup_sieve(gens, bounds):
    """P(gens) inside a box, for componentwise-nonnegative generators only.

    Sound because partial sums of nonnegative vectors never leave the box
    going up; grows from 0 until closure.
    """
    assert all(all(c >= 0 for c in g) for g in gens), "sieve needs nonneg gens"
    d = len(bounds)
    inside = lambda p: all(lo <= c <= hi for c, (lo, hi) in zip(p, bounds))
    reached = {(0,) * d}
    frontier = [(0,) * d]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if q not in reached and all(c <= hi for c, (_, hi) in zip(q, bounds)):
                    reached.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(p for p in reached if inside(p))


def representations_by_multisets(points, x, h):
    """rep_h(x) via raw multiset enumeration (independent of the DFS)."""
    n = len(points)
    out = set()
    for combo in combinations_with_replacement(range(n), h):
        total = tuple(sum(points[i][k] for i in combo) for k in range(len(x)))
        if total == tuple(x):
            vec = [0] * n
            for i in combo:
                vec[i] += 1
            out.add(tuple(vec))
    return sorted(out)


def hull_facets_by_planes(points, dim):
    """Supporting hyperplanes via rational plane-solving over d-subsets.

    Returns a set of (normal, offset) pairs with the hull on the <= side and
    primitive integer normals; independent of the cofactor construction.
    """
    from math import gcd

    facets = set()
    for subset in combinations(points, dim):
        # solve for a rational normal: n . (p - p0) = 0 for p in subset
        base = subset[0]
        rows = [[Fraction(p[k] - base[k]) for k in range(dim)] for p in subset[1:]]
        # find a nonzero rational kernel vector by trying each unit fix
        normal = None
        for fixed in range(dim):
            cols = [c for c in range(dim) if c != fixed]
            mat = [[rows[i][c] for c in cols] for i in range(len(rows))]
            rhs = [-rows[i][fixed] for i in range(len(rows))]
            sol = _solve_square(mat, rhs)
            if sol is None:
                continue
            cand = [Fraction(0)] * dim
            cand[fixed] = Fraction(1)
            for c, v in zip(cols, sol):
                cand[c] = v
            normal = cand
            break
        if normal is None:
            continue
        lcm = 1
        for f in normal:
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        ints = [int(f * lcm) for f in normal]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g == 0:
            continue
        ints = [v // g for v in ints]
        c = sum(n * x for n, x in zip(ints, base))
        dots = [sum(n * x for n, x in zip(ints, p)) for p in points]
        if all(v <= c for v in dots):
            facets.add((tuple(ints), c))
        elif all(v >= c for v in dots):
            facets.add((tuple(-v for v in ints), -c))
    return facets


def extremal_points_by_lp(points, dim):
    """Hull vertices by exact convex-combination search, lex-sorted.

    A point is a vertex when no simplex of at most dim + 1 of the other
    points holds it, tested with ``convex_coefficients`` (a Fraction solve
    per subset), independent of any facet enumeration.
    """
    from sumsetlab.lattice import convex_coefficients

    pts = [tuple(p) for p in points]
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not others or convex_coefficients(p, others, dim) is None:
            out.append(p)
    return sorted(out)


def _solve_square(mat, rhs):
    n = len(rhs)
    m = [list(row) + [r] for row, r in zip(mat, rhs)]
    if any(len(row) != n + 1 for row in m):
        return None
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def dilate_points_by_facets(points, dim, n):
    """Lattice points of n*hull via the independently-computed facets."""
    facets = hull_facets_by_planes(points, dim)
    lo = [n * min(p[k] for p in points) for k in range(dim)]
    hi = [n * max(p[k] for p in points) for k in range(dim)]
    out = []
    for x in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(sum(nv * xv for nv, xv in zip(normal, x)) <= n * c
               for normal, c in facets):
            out.append(x)
    return out


def _pack_rows(rows, lows, base_sizes):
    """Mixed-radix int64 keys for rows; key order equals row lex order."""
    strides = np.empty(len(base_sizes), dtype=np.int64)
    acc = 1
    for j in range(len(base_sizes) - 1, -1, -1):
        strides[j] = acc
        acc *= base_sizes[j]
    return (rows - np.asarray(lows, dtype=np.int64)) @ strides, strides


def _unpack_keys(keys, lows, base_sizes):
    out = np.empty((len(keys), len(base_sizes)), dtype=np.int64)
    vals = keys.copy()
    for j in range(len(base_sizes) - 1, -1, -1):
        out[:, j] = vals % base_sizes[j] + lows[j]
        vals //= base_sizes[j]
    return out


def obstructions_by_rows(config, max_weight=None, candidate_budget=5_000_000):
    """Minimal non-lex-least exponent vectors by an exponent-row scan.

    Returns (elements, status, weight_scanned, weight_required), the fields
    of ``minimal_obstructions``.  Level h candidates are the distinct
    single-step extensions of the level h-1 survivors, as rows; a candidate
    dominated by an element already found is dropped, the lex-least
    remaining candidate of each value class survives, and every other one
    is a new element.  ``candidate_budget`` counts distinct candidates.
    Takes ``required`` = |A|^2 det_max from the library's volumes.
    """
    from sumsetlab.circuits import kernel_lattice
    from sumsetlab.polytope import volumes

    n = config.size
    if n == 1 or not kernel_lattice(config):
        return (), "exact", 1, 1
    required = n * n * volumes(config).det_max
    cap = required if max_weight is None else min(required, max_weight)
    pts = np.asarray([list(p) for p in config.points], dtype=np.int64)
    d = config.dim
    survivors = np.eye(n, dtype=np.int64)
    found = []
    processed = n
    scanned = 1
    truncated = False
    col_min = pts.min(axis=0)
    col_max = pts.max(axis=0)
    for h in range(2, cap + 1):
        exp_sizes = [h + 1] * n
        packable = (h + 1) ** n < (1 << 62)
        if packable:
            skeys, strides = _pack_rows(survivors, [0] * n, exp_sizes)
            cand_keys = np.unique((skeys[:, None] + strides[None, :]).ravel())
            cand = _unpack_keys(cand_keys, [0] * n, exp_sizes)
        else:
            cand = (survivors[:, None, :] + np.eye(n, dtype=np.int64)[None, :, :]
                    ).reshape(-1, n)
            cand = np.unique(cand, axis=0)
        processed += len(cand)
        if processed > candidate_budget:
            truncated = True
            break
        if found:
            dominated = np.zeros(len(cand), dtype=bool)
            for mu in found:
                dominated |= (cand >= mu).all(axis=1)
            cand = cand[~dominated]
        if len(cand) == 0:
            scanned = h
            survivors = cand
            continue
        values = cand @ pts
        val_sizes = [int(h * (col_max[k] - col_min[k])) + 1 for k in range(d)]
        span = 1
        for s in val_sizes:
            span *= s
        if packable and span < (1 << 62):
            vkeys, _ = _pack_rows(values, [int(h * col_min[k]) for k in range(d)],
                                  val_sizes)
            ckeys, _ = _pack_rows(cand, [0] * n, exp_sizes)
            order = np.lexsort((ckeys, vkeys))
            cand = cand[order]
            vkeys = vkeys[order]
            new_class = np.ones(len(cand), dtype=bool)
            new_class[1:] = vkeys[1:] != vkeys[:-1]
        else:
            order = np.lexsort(tuple(cand[:, j] for j in range(n - 1, -1, -1))
                               + tuple(values[:, k] for k in range(d - 1, -1, -1)))
            cand = cand[order]
            values = values[order]
            new_class = np.ones(len(cand), dtype=bool)
            new_class[1:] = (values[1:] != values[:-1]).any(axis=1)
        survivors = cand[new_class]
        for row in cand[~new_class]:
            found.append(row.copy())
        scanned = h
    status = "truncated" if (truncated or cap < required) else "exact"
    elements = tuple(sorted(tuple(int(v) for v in row) for row in found))
    return elements, status, scanned, required
