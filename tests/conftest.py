import numpy as np
import pytest

from nclp.cpmaps import KrausMap


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def identity_map(k):
    """x -> x as a one-term KrausMap."""
    return KrausMap.from_terms([(np.eye(k), np.eye(k))])


def full_sandwich(m, x):
    """sum_t a_t^* @ x @ b_t on every column of x, one term at a time: the
    reference for the column-support kernel ``cpmaps._sandwich``."""
    out = np.zeros(x.shape, dtype=np.complex128)
    for a_t, b_t in zip(m.a, m.b):
        out += a_t.conj().T @ x @ b_t
    return out
