import numpy as np
import pytest

import lqw.analytics
import lqw.core
from lqw import GeneralInit, StandardInit, WalkParams, grover_coin


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


def dense_f3(tau: int) -> np.ndarray:
    """The time-averaged projector F_3 as a dense delta x delta matrix, from its 3 x 3 block.

    Block pattern: Theta_2 on the first two diagonal entries, Theta_3 on their
    off-diagonal pair, Theta_1 everywhere else.
    """
    block_index = np.minimum(np.arange(tau + 2), 2)  # coin component -> row of the block
    return lqw.analytics._f3_block(tau)[np.ix_(block_index, block_index)]


def random_general(rng: np.random.Generator, params: WalkParams) -> GeneralInit:
    """A random normalized coin vector; at tau >= 2 its loops are not uniform."""
    v = rng.normal(size=params.delta) + 1j * rng.normal(size=params.delta)
    return GeneralInit(tuple(v / np.linalg.norm(v)))


def apply_step(amps: np.ndarray, params: WalkParams) -> np.ndarray:
    """Dense reference for one step U = S (I x G), independent of the kernel's buffers."""
    coined = amps @ grover_coin(params).T
    n = coined.shape[0]
    new = np.zeros((n + 2, params.delta), dtype=np.complex128)
    new[0:n, 0] = coined[:, 0]
    new[2 : n + 2, 1] = coined[:, 1]
    new[1 : n + 1, 2:] = coined[:, 2:]
    return new


def dense_states(init, params: WalkParams, t_max: int):
    """Yield (t, amplitudes) for t = 0 .. t_max by repeated dense steps."""
    amps = init.coin_vector(params)[None, :]
    yield 0, amps
    for t in range(1, t_max + 1):
        amps = apply_step(amps, params)
        yield t, amps


def kernel_windows(start: np.ndarray, params: WalkParams, t_max: int):
    """Yield (t, window) of ``lqw.core._evolution_buffers``, window the (3, 2t+1) sites |n| <= t.

    The kernel yields one view per flush block and buffer, of the sites
    |n| <= s, s the block's last step, with site 0 in its centre column.
    """
    for t, view in lqw.core._evolution_buffers(start, params, t_max):
        s = view.shape[1] // 2
        yield t, view[:, s - t:s + t + 1]
