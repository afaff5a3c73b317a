import random

import numpy as np
import pytest

from sumsetlab import kernels
from sumsetlab.polytope import _box_scan_exact


def _random_case(rng, dim):
    lo = [rng.randint(-6, 0) for _ in range(dim)]
    hi = [v + rng.randint(0, 9) for v in lo]
    k = rng.randint(0, 4)
    lhs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(k)]
    rhs = [rng.randint(-5, 25) for _ in range(k)]
    return lo, hi, lhs, rhs


def test_python_fallback_agrees():
    rng = random.Random(13)
    for dim in (1, 2, 3):
        for _ in range(10):
            lo, hi, lhs, rhs = _random_case(rng, dim)
            exact = _box_scan_exact(lo, hi, lhs, rhs, True)
            pts = kernels.box_points(lo, hi, lhs, rhs)
            assert kernels.array_to_points(pts) == exact


class TestDispatch:
    def test_results_lex_sorted(self):
        pts = kernels.box_points([0, 0], [2, 2], [[1, 1]], [3])
        rows = kernels.array_to_points(pts)
        assert rows == sorted(rows)

    def test_key_overflow_falls_back(self):
        # ranges too wide for packing: row-wise unique path
        big = 1 << 40
        pts = np.asarray([[0, 0], [big, big]], dtype=np.int64)
        gens = np.asarray([[0, 0], [1, 1]], dtype=np.int64)
        got = kernels.array_to_points(kernels.sumset_step(pts, gens))
        assert got == [(0, 0), (1, 1), (big, big), (big + 1, big + 1)]

    def test_int64_budget_guard(self):
        assert kernels.int64_budget_ok(1 << 61)
        assert not kernels.int64_budget_ok(1 << 62)


class TestArrayToPoints:
    def test_int64_rows_become_python_int_tuples(self):
        pts = kernels.array_to_points(np.asarray([[1, -2], [3, 4]], dtype=np.int64))
        assert pts == [(1, -2), (3, 4)]
        assert all(type(v) is int for p in pts for v in p)

    def test_object_rows_keep_big_ints(self):
        big = (1 << 63) + 5
        arr = np.array([(big, -big), (1, 2)], dtype=object).reshape(2, 2)
        pts = kernels.array_to_points(arr)
        assert pts == [(big, -big), (1, 2)]
        assert all(type(v) is int for p in pts for v in p)

    def test_zero_dimensional_rows(self):
        assert kernels.array_to_points(np.empty((2, 0), dtype=np.int64)) == [(), ()]


def test_decode_keys_inverts_pack_rows():
    rng = random.Random(41)
    for dim in (1, 2, 3, 4):
        lo = [rng.randint(-9, 3) for _ in range(dim)]
        hi = [a + rng.randint(0, 7) for a in lo]
        strides, _ = kernels.key_strides(lo, hi)
        rows = np.asarray([[rng.randint(a, b) for a, b in zip(lo, hi)]
                           for _ in range(30)], dtype=np.int64)
        keys = kernels.pack_rows(rows, lo, strides, np.int64)
        assert np.array_equal(kernels.decode_keys(keys, lo, strides), rows)


def test_sumset_step_on_keys_matches_rows():
    # keys of a box that holds every sum, stepped by the generators' offsets
    rng = random.Random(43)
    for dim in (1, 2, 3):
        pts = np.asarray([[rng.randint(-5, 5) for _ in range(dim)]
                          for _ in range(rng.randint(1, 20))], dtype=np.int64)
        gens = np.asarray([[rng.randint(-3, 6) for _ in range(dim)]
                           for _ in range(rng.randint(1, 6))], dtype=np.int64)
        lo = [-8 - rng.randint(0, 3)] * dim
        strides, _ = kernels.key_strides(lo, [11] * dim)
        keys = kernels.pack_rows(pts, lo, strides, np.int64)
        offsets = gens @ np.asarray(strides, dtype=np.int64)
        stepped = kernels.sumset_step(keys, offsets)
        rows = kernels.sumset_step(pts, gens)
        assert np.array_equal(kernels.decode_keys(stepped, lo, strides), rows)
        assert kernels.array_to_points(rows) == sorted(
            {tuple(a + b for a, b in zip(p, g))
             for p in pts.tolist() for g in gens.tolist()})


class TestSortedMember:
    """sorted_member against np.isin, which the library no longer calls."""

    @staticmethod
    def _check(keys, hay):
        got = kernels.sorted_member(keys, hay)
        assert got.dtype == bool
        assert np.array_equal(got, np.isin(keys, hay))

    def test_random_int64(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 7, 40):
            hay = np.sort(rng.integers(-30, 30, size))
            self._check(rng.integers(-60, 60, 200), hay)

    def test_object_keys_above_int64(self):
        base = 1 << 63
        hay = np.array([base + k for k in (0, 5, 9, 9, 200)], dtype=object)
        keys = np.array([base + k for k in (-3, 0, 9, 10, 200, 10 ** 6)] + [7],
                        dtype=object)
        self._check(keys, hay)
        assert kernels.sorted_member(keys, hay).tolist() == [
            False, True, True, False, True, False, False]

    def test_empty_haystack(self):
        keys = np.asarray([0, 4, -2], dtype=np.int64)
        self._check(keys, keys[:0])
        self._check(keys[:0], keys[:0])
        obj = np.array([1 << 64], dtype=object)
        self._check(obj, obj[:0])

    def test_needles_outside_the_range(self):
        hay = np.asarray([10, 11, 15], dtype=np.int64)
        self._check(np.asarray([-(1 << 62), 9, 16, 1 << 62], dtype=np.int64), hay)

    def test_descending_and_repeated_needles(self):
        hay = np.asarray([-4, 0, 0, 3, 8], dtype=np.int64)
        keys = np.asarray([9, 8, 8, 3, 1, 0, 0, -4, -4, -5], dtype=np.int64)
        self._check(keys, hay)
        assert kernels.sorted_member(keys, hay).tolist() == [
            False, True, True, True, False, True, True, True, True, False]


class TestBoxForms:
    """box_points, the rows of the coordinate forms x -> x_k at the points
    of a box cut by linear forms: against the points of _box_scan_exact, in
    the same order and in the dtype asked for."""

    @staticmethod
    def _check(lo, hi, lhs, rhs, dtype):
        points = _box_scan_exact(lo, hi, lhs, rhs, True)
        got = kernels.box_points(lo, hi, lhs, rhs, dtype)
        assert got.shape == (len(points), len(lo)) and got.dtype == dtype
        assert kernels.array_to_points(got) == points
        return len(points)

    @pytest.mark.parametrize("dtype", [np.dtype(np.int64), np.dtype(object)],
                             ids=["int64", "object"])
    def test_random_boxes(self, dtype):
        rng = random.Random(47)
        found = 0
        for dim in (1, 2, 3, 4):
            for _ in range(25):
                found += self._check(*_random_case(rng, dim), dtype)
        assert found > 1000

    def test_python_ints_beyond_int64(self):
        # the random boxes moved by 2^70 on every axis, their rows' bounds
        # moved with them: the same points, moved, in Python ints
        rng = random.Random(53)
        shift = 1 << 70
        for dim in (1, 2, 3):
            lo, hi, lhs, rhs = _random_case(rng, dim)
            moved = [r + shift * sum(row) for row, r in zip(lhs, rhs)]
            count = self._check([v + shift for v in lo], [v + shift for v in hi],
                                lhs, moved, np.dtype(object))
            assert count == len(_box_scan_exact(lo, hi, lhs, rhs, True))

    def test_int64_steps_stay_in_range(self):
        # every coordinate fits int64 and the last one ends at its maximum:
        # each row's interval start is stepped by 1 up to it, never past
        top = np.iinfo(np.int64).max
        assert self._check([0, top - 7], [1, top], [], [], np.dtype(np.int64)) == 16
        # t - x <= top - 4 cuts row x to the 4 + x values from top - 7
        assert self._check([0, top - 7], [3, top], [[-1, 1]], [top - 4],
                           np.dtype(np.int64)) == 4 + 5 + 6 + 7

    def test_one_coordinate(self):
        # d = 1: no prefix coordinates, one interval of t
        assert self._check([-5], [6], [[2], [-1]], [7, 3], np.dtype(np.int64)) == 7

    @pytest.mark.parametrize("dtype", [np.dtype(np.int64), np.dtype(object)],
                             ids=["int64", "object"])
    def test_empty_boxes_and_infeasible_rows(self, dtype):
        # lo above hi on one axis
        assert self._check([0, 3], [4, 2], [], [], dtype) == 0
        # a row 0 . x <= -1 that no point meets
        assert self._check([0, 0], [3, 3], [[0, 0]], [-1], dtype) == 0
        # the last coordinate's interval is empty on every prefix row
        assert self._check([0, 0], [3, 3], [[0, 1]], [-1], dtype) == 0
        # some prefix rows feasible, others not
        assert self._check([0, 0], [3, 3], [[1, 0], [-1, 1]], [2, -1], dtype) == 3
        assert self._check([0], [-1], [], [], dtype) == 0
