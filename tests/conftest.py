import os
import threading

import numpy as np
import pytest

from plugmc import (
    Functional,
    TimeGrid,
    Path,
    bs_small_noise_model,
    coupled_paths,
    euler_path,
    levy_model,
    ou_jump_model,
)

# The replicated-study settings used throughout: theta0 = (0.2, 1.0),
# x0 = 1, eps = 1/sqrt(500), call strike 0.75, rate 0.05, horizon 1.
THETA0 = np.array([0.2, 1.0])
N_OBS = 500
EPS = 1.0 / np.sqrt(N_OBS)
STRIKE = 0.75
RATE = 0.05
HORIZON = 1.0


@pytest.fixture(autouse=True)
def no_leaked_child_or_thread():
    """Fail a test that leaves a child process unreaped or a thread alive.

    The study forks its replication workers and simulate_batch its path
    workers; each must have been waited for when its call returns or
    raises, and neither starts a thread.
    """
    threads = threading.active_count()
    yield
    if hasattr(os, "WNOHANG"):  # POSIX
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass  # no child at all
        else:
            state = "still running" if pid == 0 else f"pid {pid}, now reaped"
            pytest.fail(f"a child process was left unreaped ({state})")
    alive = threading.active_count()
    if alive > threads:
        names = sorted(t.name for t in threading.enumerate())
        pytest.fail(f"{alive - threads} more thread(s) alive than at the start: {names}")


def assert_no_child():
    """Fail unless every child process of this one has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def bs_model():
    return bs_small_noise_model(THETA0[0], THETA0[1], EPS, 1.0)


@pytest.fixture(scope="session")
def ou_model():
    return ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0)


@pytest.fixture(scope="session")
def levy():
    return levy_model(0.1, 0.3, 0.5, 1.0)


@pytest.fixture(scope="session")
def call_functional():
    return Functional(
        kind="smoothed_call_terminal",
        horizon=HORIZON,
        strike=STRIKE,
        rate=RATE,
        eps_smooth=1e-3 * STRIKE,
    )


def make_path(values, horizon=1.0):
    values = np.asarray(values, dtype=float)
    return Path(grid=TimeGrid(horizon, values.size - 1), values=values)


def coupling_residual_sup(model, theta, u, noise):
    """Sup norm of X^{theta+u} - X^theta - u.Y on one noise bundle."""
    cp = coupled_paths(model, theta, noise)
    shifted = euler_path(model, np.asarray(theta) + u, noise).values
    return float(np.max(np.abs(shifted - cp.x - cp.y @ u)))
