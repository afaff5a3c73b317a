"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own algorithms: cofactor
determinants instead of fraction-free elimination, multiset enumeration
instead of incremental sumsets, box sieves and memoized per-point descent
(the DFS semigroup oracle) instead of the library's ell-level semigroup
sieve and its generator-count levels, rational plane-solving instead of
cofactor normals, a convex-combination search instead of facet
incidence for hull vertices, and inclusion-exclusion over every subset of
the obstruction set instead of the pivot recursion for the Hilbert series
numerator.  Slow but exact.  ``growth_sizes`` is only a shorthand for the
library's iterated sumset sizes.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from sumsetlab.errors import PreconditionError
from sumsetlab.lattice import (
    PointConfig,
    hermite_basis,
    solve_in_lattice,
    solve_rational,
)
from sumsetlab.polytope import cone_constraints, convex_hull
from sumsetlab.sumsets import sumset_iterate


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


def growth_sizes(config, n_max, cap_points=10 ** 7):
    """|N*A| for N = 1..n_max (same budget behavior as sumset_iterate)."""
    return sumset_iterate(config, n_max, cap_points=cap_points).sizes()


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


class DfsSemigroupOracle:
    """Membership and minimum weights in P(B) by memoized descent.

    B is the nonzero points of a configuration whose cone is pointed.
    Points are first written over the Hermite basis of B; membership of p
    descends p -> p - g, pruned by exact cone tests, and terminates because
    every step strictly decreases the sum of the inner facet functionals.
    The memo tables grow with every query.
    """

    def __init__(self, config):
        gens = sorted(set(config.points) - {(0,) * config.dim})
        self._source_dim = config.dim
        self._gen_map = {}
        if not gens:
            self._basis = []
            self._gens = []
            self._cone = []
            self._memo = {(): True}
            self._weights = {(): 0}
            return
        self._basis = hermite_basis(gens)
        reduced = []
        for g in gens:
            coords = solve_in_lattice(self._basis, g)
            reduced.append(coords)
            self._gen_map[coords] = g
        rzero = (0,) * len(self._basis)
        hull_cfg = PointConfig.from_points(sorted(set(reduced) | {rzero}),
                                           len(self._basis))
        poly = convex_hull(hull_cfg)
        if rzero not in poly.extremal:
            raise PreconditionError("semigroup cone is not pointed at the origin")
        self._cone = cone_constraints(poly)
        self._gens = sorted(reduced)
        self._memo = {rzero: True}
        self._weights = {rzero: 0}

    def _reduce(self, point):
        if not self._basis:
            return () if not any(point) else None
        return solve_in_lattice(self._basis, point)

    def _in_cone(self, point):
        return all(sum(n * x for n, x in zip(normal, point)) <= 0
                   for normal in self._cone)

    def _solve(self, start):
        memo = self._memo
        gens = self._gens
        stack = [(start, 0)]
        while stack:
            point, idx = stack.pop()
            if point in memo:
                continue
            resolved = False
            pushed = False
            j = idx
            while j < len(gens):
                child = tuple(a - b for a, b in zip(point, gens[j]))
                if self._in_cone(child):
                    val = memo.get(child)
                    if val is True:
                        memo[point] = True
                        resolved = True
                        break
                    if val is None:
                        stack.append((point, j))
                        stack.append((child, 0))
                        pushed = True
                        break
                j += 1
            if not resolved and not pushed:
                memo[point] = False
        return memo[start]

    def contains(self, point):
        reduced = self._reduce(tuple(point))
        if reduced is None or not self._in_cone(reduced):
            return False
        return self._solve(reduced)

    def min_weight(self, point):
        """Least number of generators summing to ``point`` (None if outside)."""
        reduced = self._reduce(tuple(point))
        if reduced is None or not self._in_cone(reduced):
            return None
        weights = self._weights
        stack = [(reduced, False)]
        while stack:
            cur, expanded = stack.pop()
            if cur in weights:
                continue
            children = []
            for g in self._gens:
                child = tuple(a - b for a, b in zip(cur, g))
                if self._in_cone(child):
                    children.append(child)
            if not expanded:
                stack.append((cur, True))
                stack.extend((c, False) for c in children if c not in weights)
                continue
            best = None
            for c in children:
                w = weights.get(c)
                if w is not None and (best is None or w + 1 < best):
                    best = w + 1
            weights[cur] = best
        return weights[reduced]

    def min_weight_certificate(self, point):
        """A minimum-length combination, built greedily (lex-least generator)."""
        total = self.min_weight(point)
        if total is None:
            return None
        counts = {}
        cur = self._reduce(tuple(point))
        w = total
        while w > 0:
            for g in self._gens:
                child = tuple(a - b for a, b in zip(cur, g))
                if self._in_cone(child) and self._weights.get(child) == w - 1:
                    orig = self._gen_map[g]
                    counts[orig] = counts.get(orig, 0) + 1
                    cur = child
                    w -= 1
                    break
            else:
                raise AssertionError("certificate reconstruction failed")
        return counts


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
    pts = [tuple(p) for p in points]
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not others or convex_coefficients(p, others, dim) is None:
            out.append(p)
    return sorted(out)


def convex_coefficients(point, generators, dim):
    """Exact convex-combination coefficients of ``point`` over ``generators``.

    Searches affinely independent subsets of size <= dim + 1 (every point of
    a hull lies in a simplex spanned by hull points), returning coefficients
    indexed like ``generators`` or None when no combination exists.
    """
    gens = [tuple(g) for g in generators]
    target = list(point) + [1]
    for size in range(1, min(len(gens), dim + 1) + 1):
        for idxs in combinations(range(len(gens)), size):
            cols = [list(gens[i]) + [1] for i in idxs]
            rows = [[cols[j][k] for j in range(size)] for k in range(dim + 1)]
            solved = solve_rational(rows, target)
            if solved is None:
                continue
            sol, rank = solved
            if rank < size:
                continue  # affinely dependent subset; a smaller one covers it
            if all(c >= 0 for c in sol):
                out = [Fraction(0)] * len(gens)
                for i, c in zip(idxs, sol):
                    out[i] = c
                return out
    return None


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


def subset_weights(elements):
    """The Hilbert series numerator of the ideal of ``elements`` by
    inclusion-exclusion: each subset T adds (-1)^|T| at the weight of its
    componentwise max.  2^|G| subsets; zero coefficients are dropped."""
    acc = {}

    def rec(i, cur, sign):
        if i == len(elements):
            w = sum(cur)
            acc[w] = acc.get(w, 0) + sign
            return
        rec(i + 1, cur, sign)
        rec(i + 1, tuple(max(a, b) for a, b in zip(cur, elements[i])), -sign)

    rec(0, (0,) * (len(elements[0]) if elements else 0), 1)
    return {w: c for w, c in acc.items() if c}
