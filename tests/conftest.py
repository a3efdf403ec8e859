import numpy as np
import pytest

from lqw import GeneralInit, StandardInit, WalkParams


@pytest.fixture(scope="session")
def symmetric_init() -> StandardInit:
    """alpha = 1/sqrt(2), beta = i/sqrt(2): gives a left/right symmetric walk."""
    return StandardInit(1 / np.sqrt(2), 1j / np.sqrt(2))


@pytest.fixture(scope="session")
def skewed_init() -> StandardInit:
    """Initial state with both Re(conj(alpha) beta) and |beta|^2-|alpha|^2 nonzero."""
    return StandardInit((1 + np.sqrt(2) * 1j) / 2, np.sqrt(2) * (1 + 1j) / 4)


def random_standard(rng: np.random.Generator) -> StandardInit:
    raw = rng.normal(size=4)
    alpha = complex(raw[0], raw[1])
    beta = complex(raw[2], raw[3])
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return StandardInit(alpha / norm, beta / norm)


def random_general(rng: np.random.Generator, params: WalkParams) -> GeneralInit:
    """A random normalized coin vector; at tau >= 2 its loops are not uniform."""
    v = rng.normal(size=params.delta) + 1j * rng.normal(size=params.delta)
    return GeneralInit(tuple(v / np.linalg.norm(v)))
