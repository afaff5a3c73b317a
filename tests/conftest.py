import numpy as np
import pytest

from sumsetlab import PointConfig, kernels, khovanskii, normalize_config, sumsets

from corpus import CORPUS


@pytest.fixture(scope="session")
def corpus():
    """(name, raw config, normalized config) for every corpus set."""
    out = []
    for name, pts in CORPUS:
        raw = PointConfig.from_points(pts)
        out.append((name, raw, normalize_config(raw)))
    return out


@pytest.fixture
def object_keys(monkeypatch):
    """Every kernel that takes its dtype from kernels.key_dtype (all but the
    obstruction scan) runs on Python ints (dtype object): the exact path."""
    monkeypatch.setattr(kernels, "key_dtype", lambda *bounds: np.dtype(object))


@pytest.fixture
def sumset_routes(monkeypatch):
    """The route of every sumset level walk, in order: "bits" for the bitset
    engine (sumsets._iterate_bits), "keys" for the frontier iteration on
    sorted keys (sumsets._iterate_keys)."""
    log = []

    def recorded(route, iterate):
        def wrapper(*args, **kwargs):
            log.append(route)
            return iterate(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sumsets, "_iterate_bits", recorded("bits", sumsets._iterate_bits))
    monkeypatch.setattr(sumsets, "_iterate_keys", recorded("keys", sumsets._iterate_keys))
    return log


@pytest.fixture
def unpacked(monkeypatch):
    """The key count of every bit set level of a sumset walk unpacked
    (sumsets.BitLevel called for its keys), in order."""
    log = []
    unpack = sumsets.BitLevel.__call__

    def recorded(level):
        packed = unpack(level)
        log.append(len(packed))
        return packed

    monkeypatch.setattr(sumsets.BitLevel, "__call__", recorded)
    return log


@pytest.fixture
def candidate_budget(monkeypatch):
    """A setter of khovanskii.CANDIDATE_BUDGET for one test.  The memo key
    of the obstruction scans does not hold the budget, so their store is
    emptied when the budget is set and again after the test."""
    def set_budget(value):
        monkeypatch.setattr(khovanskii, "CANDIDATE_BUDGET", value)
        khovanskii._obstruction_cache.clear()

    yield set_budget
    khovanskii._obstruction_cache.clear()
