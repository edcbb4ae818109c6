import multiprocessing

import numpy as np
import pytest

from robust_coords.core_types import Configuration, RigidMotion


def rotation_2d(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(rng, d, allow_reflection=True):
    m = rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if allow_reflection and rng.random() < 0.5:
        q[:, 0] = -q[:, 0]
    return q


def random_motion(rng, d):
    return RigidMotion(random_orthogonal(rng, d), rng.normal(size=d))


def random_config(rng, d=2, n=20, mask_prob=None):
    coords = rng.normal(size=(d, n))
    if mask_prob is None:
        return Configuration(coords)
    mask = rng.random(n) < mask_prob
    mask[rng.integers(0, n)] = True
    return Configuration(coords, mask)


def set_process_count(monkeypatch, w):
    """Embed ensembles in w processes (capped at the subsamples) instead of
    one per usable CPU."""
    from robust_coords import ensemble

    monkeypatch.setattr(ensemble, "_process_count", lambda n_keys: min(w, n_keys))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running, then stop it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"test left child processes running: {left}"
