"""The fixed acceptance corpus: 26 point sets.

Shape constraints: d=1 with at most 5 entries in [0, 12]; d=2 with at most
6 points and coordinates in [0, 4]; d=3 with at most 5 points and
coordinates in [0, 2].  Several sets are deliberately unnormalized
(translated, or generating proper sublattices) to exercise normalization.
"""

CORPUS = [
    # d = 1
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
    # d = 2
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
    # d = 3
    ("unit_simplex3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("simplex3_diag", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ("skew3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    ("double_simplex3", [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    ("fcc_cell", [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]),
    ("prism5", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]),
]


def random_configs(count=200, seed=20240809, max_points=7, max_dim=3, max_coord=5):
    """Deterministic random sets for the property suites (d<=3, l<=7, |coord|<=5)."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, max_dim)
        # at most the points of the box, so a small box cannot stall the draw
        size = min(rng.randint(2, max_points), (2 * max_coord + 1) ** d)
        pts = set()
        while len(pts) < size:
            pts.add(tuple(rng.randint(-max_coord, max_coord) for _ in range(d)))
        out.append(sorted(pts))
    return out
