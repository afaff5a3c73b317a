"""The benchmark's four workloads as lists of CLI requests.

Each workload is a fixed list of requests, sent in a fixed order.  The run
seed shuffles the order of the points in every input, which changes no
answer and no work once the CLI has normalized the set.  (Translating the
sets would not do: the cost of normalizing depends on the shift.)
The random point sets of ``khovanskii-random`` and ``geometry-batch`` come
from a fixed draw seed, so every run seed has committed reference answers;
another draw seed gives sets that are checked by invariants only.
"""

from __future__ import annotations

import random

DRAW_SEED = 2406
KHOVANSKII_SETS = 20  # drawn, besides the pinned truncating set
GEOMETRY_SETS = 100

# The 26-set acceptance corpus (a copy of tests/corpus.py, kept here so the
# benchmark's inputs do not move when the test corpus does).
CORPUS = [
    ("a_0_3_5", [(0,), (3,), (5,)]),
    ("a_0_1", [(0,), (1,)]),
    ("a_0_1_2_3", [(0,), (1,), (2,), (3,)]),
    ("a_0_2_3", [(0,), (2,), (3,)]),
    ("a_0_4_6_9", [(0,), (4,), (6,), (9,)]),
    ("a_0_5_8_12", [(0,), (5,), (8,), (12,)]),
    ("a_0_7_11", [(0,), (7,), (11,)]),
    ("a_2_5_7", [(2,), (5,), (7,)]),
    ("a_0_1_12", [(0,), (1,), (12,)]),
    ("a_0_2_5_11_12", [(0,), (2,), (5,), (11,), (12,)]),
    ("unit_square", [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ("unit_simplex2", [(0, 0), (1, 0), (0, 1)]),
    ("triangle_inner", [(0, 0), (3, 0), (0, 3), (1, 1)]),
    ("sublattice_x2", [(0, 0), (2, 0), (0, 1)]),
    ("strip_gaps", [(0, 0), (2, 0), (3, 0), (0, 1)]),
    ("pentagon5", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
    ("kite", [(0, 0), (1, 0), (0, 1), (2, 2)]),
    ("triangle4", [(0, 0), (4, 0), (0, 4), (1, 1)]),
    ("quad_skew", [(0, 0), (1, 0), (2, 1), (0, 2)]),
    ("hexagon6", [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]),
    ("unit_simplex3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("simplex3_diag", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ("skew3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    ("double_simplex3", [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    ("fcc_cell", [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]),
    ("prism5", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]),
]

# analyze on each of these takes 13-25 s on its own (the structure pass), as
# long as a whole benchmark run (about 20 s), so they are left out.
CORPUS_TOO_SLOW = ("hexagon6", "a_0_1_12", "a_0_2_5_11_12")

_SETS = dict(CORPUS)


def _request(key, argv, points):
    return {"key": key, "argv": list(argv), "points": [list(p) for p in points]}


def _draw_set(rng, dim, size, top):
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randint(0, top) for _ in range(dim)))
    return sorted(pts)


def corpus_analyze(draw_seed):
    return [[_request(name, ["analyze"], pts)]
            for name, pts in CORPUS if name not in CORPUS_TOO_SLOW]


def growth_scale(draw_seed):
    hexagon, diag = _SETS["hexagon6"], _SETS["simplex3_diag"]
    return [
        [_request("hexagon6-sizes", ["growth", "--max-n", "150"], hexagon)],
        [_request("simplex3_diag-sizes", ["growth", "--max-n", "60"], diag)],
        [_request("a_0_2_5_11_12-sizes", ["growth", "--max-n", "1000"],
                  _SETS["a_0_2_5_11_12"])],
        [_request("hexagon6-points",
                  ["growth", "--max-n", "80", "--emit-points"], hexagon)],
        [_request("simplex3_diag-interpolation",
                  ["khovanskii", "--route", "interpolation"], diag)],
    ]


def _sharp_bound(pts):
    from sumsetlab import PointConfig, khovanskii_bounds, normalize_config

    config = normalize_config(PointConfig.from_points(pts))
    return config.dim, khovanskii_bounds(config).sharp


# Largest sharp bound |A|^2 det_max - |A| + 1 kept per reduced dimension: the
# verification window grows with it, and past these a single request can
# outlast a run (a 2-D set at 141 and a 3-D set at 71 each took over 12 s).
SHARP_LIMIT = {1: 250, 2: 110, 3: 50}
# Six points in [0, 16] truncate the 5M-candidate obstruction scan; the CLI
# then falls back to interpolation and exits 3.  One such set is pinned.
TRUNCATING = [(2,), (5,), (6,), (7,), (13,), (15,)]


def khovanskii_random(draw_seed):
    rng = random.Random(f"khovanskii-random:{draw_seed}")
    groups = [[_request("truncating", ["khovanskii"], TRUNCATING)]]
    while len(groups) <= KHOVANSKII_SETS:
        dim = rng.choice((1, 2, 3))
        if dim == 1:
            pts = _draw_set(rng, 1, rng.randint(4, 5), 16)
        elif dim == 2:
            pts = _draw_set(rng, 2, 4, 3)
        else:
            pts = _draw_set(rng, 3, rng.randint(4, 5), 2)
        reduced_dim, sharp = _sharp_bound(pts)
        if sharp <= SHARP_LIMIT[reduced_dim]:
            groups.append([_request(f"set{len(groups):02d}", ["khovanskii"], pts)])
    return groups


def geometry_batch(draw_seed):
    rng = random.Random(f"geometry-batch:{draw_seed}")
    groups = []
    for i in range(GEOMETRY_SETS):
        dim = rng.choice((1, 2, 3, 4))
        size = rng.randint(dim + 1, dim + 2)
        pts = _draw_set(rng, dim, size, (10, 3, 2, 1)[dim - 1])
        # three commands in turn on one input: the later ones hit the caches
        # the first one filled
        groups.append([_request(f"set{i:03d}-{cmd}", [cmd], pts)
                       for cmd in ("bounds", "circuits", "triangulate")])
    return groups


WORKLOADS = {
    "corpus-analyze": corpus_analyze,
    "growth-scale": growth_scale,
    "khovanskii-random": khovanskii_random,
    "geometry-batch": geometry_batch,
}


def requests(workload, seed, draw_seed=DRAW_SEED):
    """The workload's requests for one run seed, in the order they are sent.

    Each request carries its base points (``points``, used to find its
    reference answer) and the ``input`` points the CLI reads: the same
    points in a seeded order.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for group in WORKLOADS[workload](draw_seed):
        order = list(range(len(group[0]["points"])))
        rng.shuffle(order)
        for req in group:
            req["input"] = [req["points"][i] for i in order]
            out.append(req)
    return out
