"""The zero-weight kernel lattice of a point configuration and its circuits.

A kernel vector assigns an integer to each point so that both the weighted
point sum and the coefficient sum vanish; circuits are the support-minimal
ones.  Circuits are small (every entry is bounded by the largest simplex
determinant of the configuration), decompose arbitrary kernel vectors
conformally, and drive the weight-reduction and facet-decomposition
arguments used by the threshold calculators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import (
    InternalInvariantError,
    MembershipError,
    PreconditionError,
)
from .lattice import (
    Point,
    PointConfig,
    config_memo,
    content,
    integer_kernel,
    lattice_rank,
    require_anchored,
    solve_rational,
)
from .polytope import convex_hull, triangulate_from_origin, volumes
from .sumsets import SemigroupOracle


def weight(vector) -> int:
    return sum(vector)


def support(vector) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(vector) if v)


def positive_part(vector) -> tuple:
    return tuple(v if v > 0 else 0 for v in vector)


def negative_part(vector) -> tuple:
    return tuple(-v if v < 0 else 0 for v in vector)


def is_kernel_vector(config: PointConfig, vector) -> bool:
    """wt(v) = 0 and the coefficient combination of the points vanishes."""
    vec = tuple(vector)
    if len(vec) != config.size:
        return False
    if sum(vec) != 0:
        return False
    return all(v == 0 for v in config.combine(vec))


def kernel_lattice(config: PointConfig) -> list[tuple[int, ...]]:
    """Canonical integer basis of the zero-weight kernel of the configuration.

    The rank always equals the point count minus the rank of the matrix of
    points with a ones-row appended.
    """
    return integer_kernel(config.augmented_columns())


def _sign_normalize(vector) -> tuple[int, ...]:
    for v in vector:
        if v > 0:
            return tuple(vector)
        if v < 0:
            return tuple(-x for x in vector)
    return tuple(vector)


def circuits(config: PointConfig) -> list[tuple[int, ...]]:
    """All support-minimal kernel vectors, content- and sign-normalized.

    Let M be the points-plus-ones matrix and rho its rank.  The circuits are
    the primitive generators of the one-dimensional kernels of the column
    subsets U of M of size rho + 1, and nothing else:

    * a circuit C has at most rho + 1 elements, and C minus any element e is
      independent, so by the augmentation axiom it extends to a basis B of
      the column space; e is not in B (C is dependent), so U = B + e has
      rho + 1 columns and rank rho, and its kernel is one-dimensional and
      spanned by C's vector;
    * conversely, every kernel vector of M_U with support inside that of
      the generator of a one-dimensional kernel is a multiple of it, so the
      generator's support is minimal.

    rho is read off the kernel lattice (rho = n - its rank), so raw,
    degenerate configurations are handled too.  The circuits are memoized
    as a tuple; each call returns a fresh list.
    """
    return list(_circuits(config))


_circuit_cache: dict[tuple, tuple[tuple[int, ...], ...]] = {}


@config_memo(_circuit_cache)
def _circuits(config: PointConfig) -> tuple[tuple[int, ...], ...]:
    """The sorted circuits: one integer kernel for the rank rho, then one per
    column subset of size rho + 1 (see :func:`circuits` for why this finds
    exactly the circuits).  Fewer than two points have none and cost none."""
    n = config.size
    if n < 2:
        return ()
    aug = config.augmented_columns()
    rank = n - len(kernel_lattice(config))
    found: dict[tuple[int, ...], None] = {}
    for subset in combinations(range(n), rank + 1):
        sub = [[row[j] for j in subset] for row in aug]
        kern = integer_kernel(sub)
        if len(kern) != 1:
            continue
        gen = kern[0]
        g = content(gen)
        gen = tuple(v // g for v in gen)
        full = [0] * n
        for j, v in zip(subset, gen):
            full[j] = v
        found[_sign_normalize(full)] = None
    return tuple(sorted(found))


def _conformal_orientation(circuit, vector):
    """The orientation of ``circuit`` whose +/- supports nest in vector's."""
    for cand in (circuit, tuple(-v for v in circuit)):
        ok = True
        for c, v in zip(cand, vector):
            if c > 0 and v <= 0:
                ok = False
                break
            if c < 0 and v >= 0:
                ok = False
                break
        if ok:
            return cand
    return None


def conformal_circuit(circuit_list, vector):
    """Lex-least normalized circuit conformal to ``vector`` (oriented), or None."""
    for circ in circuit_list:
        oriented = _conformal_orientation(circ, vector)
        if oriented is not None:
            return oriented
    return None


def conformal_decompose(config: PointConfig, vector) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Write a kernel vector as a positive rational combination of circuits.

    Each term's positive and negative supports nest inside the vector's own
    (the combination is conformal), and there are at most |supp(v)| terms.
    Circuits are returned oriented so every coefficient is positive.
    """
    vec = tuple(int(v) for v in vector)
    if not is_kernel_vector(config, vec) or not any(vec):
        raise PreconditionError("input must be a nonzero zero-weight kernel vector")
    circuit_list = circuits(config)
    residual = tuple(Fraction(v) for v in vec)
    out: list[tuple[Fraction, tuple[int, ...]]] = []
    while any(residual):
        u = conformal_circuit(circuit_list, residual)
        if u is None:
            raise InternalInvariantError("no conformal circuit for a kernel vector")
        lam = min(Fraction(r, c) for r, c in zip(residual, u) if c)
        out.append((lam, u))
        residual = tuple(r - lam * c for r, c in zip(residual, u))
        if len(out) > len(support(vec)):
            raise InternalInvariantError("conformal decomposition did not shrink")
    total = [Fraction(0)] * len(vec)
    for lam, u in out:
        for i, c in enumerate(u):
            total[i] += lam * c
    if tuple(total) != tuple(Fraction(v) for v in vec):
        raise InternalInvariantError("conformal decomposition does not resum")
    return out


def _barycentric_in_hull(config: PointConfig, point) -> dict[Point, Fraction]:
    """Convex coefficients of a rational point over the configuration.

    Uses the canonical origin triangulation: the first simplex whose closed
    barycentric coordinates are nonnegative supplies the representation.
    """
    d = config.dim
    tri = triangulate_from_origin(config)
    for simplex in tri.simplices:
        rows = [[b[k] for b in simplex] for k in range(d)]
        solved = solve_rational(rows, list(point))
        if solved is None:
            continue
        coeffs, rank = solved
        if rank < len(simplex):
            raise InternalInvariantError("triangulation simplex is degenerate")
        total = sum(coeffs)
        if all(c >= 0 for c in coeffs) and total <= 1:
            rep = {b: c for b, c in zip(simplex, coeffs)}
            rep[(0,) * d] = 1 - total
            return rep
    raise PreconditionError("point lies outside the hull")


def find_reduction(config: PointConfig, subset) -> tuple[dict[Point, int], dict[Point, int]]:
    """Trade a heavy combination on ``subset`` for a lighter one on the rest.

    For linearly independent S not inside any outer facet, returns
    nonnegative integer coefficient maps (lam on S, rho on the nonzero
    points) with  sum(lam_s s) = sum(rho_a a),  wt(lam) > wt(rho),  and all
    entries bounded by the largest simplex determinant.

    Construction: scale the barycentre of S into the hull past the unit
    level of S's affine span, turn the two representations into a kernel
    vector with positive origin coefficient, and read the coefficients off
    a conformal circuit through the origin.
    """
    require_anchored(config)
    d = config.dim
    zero = (0,) * d
    sub = sorted({tuple(s) for s in subset})
    if not sub or zero in sub:
        raise PreconditionError("subset must be nonempty nonzero points")
    if any(s not in config.points for s in sub):
        raise PreconditionError("subset must consist of configuration points")
    if lattice_rank(sub) != len(sub):
        raise PreconditionError("subset must be linearly independent")
    poly = convex_hull(config)
    outer = poly.outer_facets
    for facet in outer:
        incident = {config.points[i] for i in facet.incident}
        if all(s in incident for s in sub):
            raise PreconditionError("subset lies inside an outer facet")
    bary = tuple(Fraction(sum(s[k] for s in sub), len(sub)) for k in range(d))
    beta_hat = max(facet.beta_value(bary) for facet in outer)
    if not 0 < beta_hat < 1:
        raise InternalInvariantError("barycentre not strictly inside the hull")
    eps = (1 / beta_hat - 1) / 2
    scaled = tuple((1 + eps) * c for c in bary)
    gamma = {s: (1 + eps) / len(sub) for s in sub}
    delta = _barycentric_in_hull(config, scaled)
    denoms = [c.denominator for c in gamma.values()] + [c.denominator for c in delta.values()]
    lcm = 1
    for q in denoms:
        lcm = lcm * q // gcd(lcm, q)
    z = []
    for a in config.points:
        if a == zero:
            z0 = lcm * (sum(gamma.values()) - 1 + delta.get(zero, Fraction(0)))
            z.append(int(z0))
        else:
            z.append(int(lcm * (delta.get(a, Fraction(0)) - gamma.get(a, Fraction(0)))))
    if z[config.index_of(zero)] <= 0:
        raise InternalInvariantError("origin coefficient must come out positive")
    terms = conformal_decompose(config, z)
    zero_idx = config.index_of(zero)
    chosen = next((u for _, u in terms if u[zero_idx] > 0), None)
    if chosen is None:
        raise InternalInvariantError("no circuit through the origin in decomposition")
    lam = {config.points[i]: -v for i, v in enumerate(chosen) if v < 0}
    rho = {config.points[i]: v for i, v in enumerate(chosen) if v > 0 and i != zero_idx}
    det_max = volumes(config).det_max
    if config.combine([lam.get(p, 0) for p in config.points]) != \
            config.combine([rho.get(p, 0) for p in config.points]):
        raise InternalInvariantError("reduction sides do not balance")
    if not sum(lam.values()) > sum(rho.values()):
        raise InternalInvariantError("reduction does not drop weight")
    if any(v > det_max for v in list(lam.values()) + list(rho.values())):
        raise InternalInvariantError("reduction coefficient above determinant bound")
    if any(s not in sub for s in lam):
        raise InternalInvariantError("reduction uses points outside the subset")
    return lam, rho


def regular_decompose(config: PointConfig, point) -> tuple[dict[Point, int], dict[Point, int], int | None]:
    """Split a semigroup point into a bounded part plus one facet's part.

    Returns (u, w, facet_id) with point = u + w, where w is supported on the
    points of one outer facet and every u coefficient is at most
    det_max - 1.  Starts from a minimum-weight combination and applies
    weight- and heavy-support-reducing exchanges until the heavy points all
    lie in a single outer facet; ties between facets go to the lowest id.
    """
    require_anchored(config)
    d = config.dim
    zero = (0,) * d
    target = tuple(point)
    eta = SemigroupOracle(config).min_weight_certificate(target)
    if eta is None:
        raise MembershipError(f"{target} is not in the semigroup of the configuration")
    det_max = volumes(config).det_max if d > 0 else 1
    poly = convex_hull(config)
    outer_ids = [i for i, f in enumerate(poly.facets) if f.kind == "outer"]
    circuit_list = circuits(config)
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise InternalInvariantError("facet reduction failed to terminate")
        heavy = sorted(a for a, c in eta.items() if c >= det_max)
        facet_id = None
        for i in outer_ids:
            incident = {config.points[j] for j in poly.facets[i].incident}
            if all(t in incident for t in heavy):
                facet_id = i
                break
        if facet_id is not None or not outer_ids:
            break
        if lattice_rank(heavy) == len(heavy):
            lam, rho = find_reduction(config, heavy)
            new = dict(eta)
            for s, v in lam.items():
                new[s] = new.get(s, 0) - v
            for a, v in rho.items():
                new[a] = new.get(a, 0) + v
            eta = {a: c for a, c in new.items() if c}
            if any(c < 0 for c in eta.values()):
                raise InternalInvariantError("reduction produced a negative count")
            continue
        dep = integer_kernel([[t[k] for t in heavy] for k in range(d)])
        if not dep:
            raise InternalInvariantError("dependent heavy set with empty kernel")
        zt = list(dep[0])
        if -sum(zt) < 0:
            zt = [-v for v in zt]
        z = [0] * config.size
        for t, v in zip(heavy, zt):
            z[config.index_of(t)] = v
        z[config.index_of(zero)] = -sum(zt)
        mu = conformal_circuit(circuit_list, z)
        if mu is None:
            raise InternalInvariantError("no conformal circuit for dependency")
        mu0 = mu[config.index_of(zero)]
        if mu0 > 0:
            new = dict(eta)
            for i, v in enumerate(mu):
                a = config.points[i]
                if a == zero or v == 0:
                    continue
                new[a] = new.get(a, 0) + v
            eta = {a: c for a, c in new.items() if c}
            if any(c < 0 for c in eta.values()):
                raise InternalInvariantError("origin exchange went negative")
        elif mu0 < 0:
            raise InternalInvariantError("circuit negative at the origin")
        else:
            steps = min(eta.get(config.points[i], 0) // v
                        for i, v in enumerate(mu) if v > 0)
            if steps < 1:
                raise InternalInvariantError("support exchange cannot step")
            new = dict(eta)
            for i, v in enumerate(mu):
                if v == 0:
                    continue
                a = config.points[i]
                new[a] = new.get(a, 0) - steps * v
            eta = {a: c for a, c in new.items() if c}
            if any(c < 0 for c in eta.values()):
                raise InternalInvariantError("support exchange went negative")
    if facet_id is None:
        facet_points: set[Point] = set()
    else:
        facet_points = {config.points[j] for j in poly.facets[facet_id].incident}
    w_rep = {a: c for a, c in eta.items() if a in facet_points}
    u_rep = {a: c for a, c in eta.items() if a not in facet_points and a != zero}
    if any(c > det_max - 1 for c in u_rep.values()):
        raise InternalInvariantError("loose part exceeds the determinant bound")
    resum = [0] * d
    for a, c in eta.items():
        for k in range(d):
            resum[k] += c * a[k]
    if tuple(resum) != target:
        raise InternalInvariantError("decomposition does not resum to the input")
    return u_rep, w_rep, facet_id
