import numpy as np
import pytest

from chainscope.metric_core import build_from_covariance, build_from_distance_matrix, build_from_points


def random_covariance(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T) / n


def random_space(rng, n):
    """Random instance drawn from one of the generator families."""
    kind = rng.integers(3)
    if kind == 0:
        return build_from_covariance(random_covariance(rng, n))
    if kind == 1:
        dim = int(rng.integers(1, 4))
        return build_from_points(rng.standard_normal((n, dim)))
    # clustered points: separated groups exercise multi-scale structure
    dim = 2
    centers = 5.0 * rng.standard_normal((max(2, n // 4), dim))
    pts = centers[rng.integers(len(centers), size=n)] + 0.2 * rng.standard_normal((n, dim))
    return build_from_points(pts)


def integer_l1_space(rng, n):
    """Distinct points of a 4 x 4 grid under l1: many tied distances."""
    X = np.unique(rng.integers(0, 4, size=(n, 2)), axis=0)
    return build_from_distance_matrix(np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2))


def random_weights(rng, n):
    w = rng.dirichlet(np.ones(n))
    return w / w.sum()


@pytest.fixture(scope="session")
def session_rng():
    return np.random.default_rng(20240824)
