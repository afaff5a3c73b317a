import numpy as np
import pytest

from sumsetlab import PointConfig, kernels, normalize_config

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
