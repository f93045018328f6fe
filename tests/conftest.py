import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tables importable

from covtarget import BekkParams, DataError, Garch11Params, ReturnPanel


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues >= ~0.1."""
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + 0.1 * n * np.eye(n))


def random_corr(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random correlation matrix (normalized SPD)."""
    s = random_spd(rng, n)
    d = np.sqrt(np.diag(s))
    c = s / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return 0.5 * (c + c.T)


def bekk2() -> BekkParams:
    """Small well-conditioned two-asset parameter set used across tests."""
    return BekkParams(
        c_lower=np.array([[0.30, 0.0], [0.10, 0.25]]),
        a_diag=np.array([0.30, 0.35]),
        b_diag=np.array([0.90, 0.85]),
    )


def gaussian_panel(
    rng_or_seed, t_len: int = 200, n: int = 3, labels=None
) -> ReturnPanel:
    """I.i.d. Gaussian panel with mild cross-correlation."""
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    base = rng.standard_normal((t_len, n))
    common = rng.standard_normal((t_len, 1))
    r = 0.01 * (base + 0.8 * common)
    if labels is None:
        labels = tuple(f"A{i + 1}" for i in range(n))
    return ReturnPanel(labels=labels, returns=r)


def dependent_panel(scale: float, noise: float) -> ReturnPanel:
    """A 252-row panel of series A, B and DUP, where DUP is ``scale`` times B
    plus ``noise``-sized Gaussian noise."""
    r = gaussian_panel(4, t_len=252, n=3).returns.copy()
    r[:, 2] = scale * r[:, 1] + noise * np.random.default_rng(9).standard_normal(252)
    return ReturnPanel(labels=("A", "B", "DUP"), returns=r)


def synth_dates(t_len: int) -> tuple[dt.date, ...]:
    """The dates of an undated panel's written rows, one day apart from
    1970-01-02, built one ``datetime.date`` at a time: the writer's oracle."""
    first = dt.date(1970, 1, 2)
    return tuple(first + dt.timedelta(days=t) for t in range(t_len))


def garch11_simulate(
    params: Garch11Params, t_len: int, seed: int, h1: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate (eps, h) of length t_len with Gaussian shocks; h_1 defaults
    to the unconditional variance."""
    if t_len < 1:
        raise DataError(f"t_len must be >= 1, got {t_len}")
    if h1 is None:
        h1 = params.unconditional_var()
    if not h1 > 0.0:
        raise DataError(f"h1 must be positive, got {h1}")
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(t_len)
    h = np.empty(t_len)
    eps = np.empty(t_len)
    h_t = float(h1)
    for t in range(t_len):
        h[t] = h_t
        eps[t] = np.sqrt(h_t) * eta[t]
        h_t = params.omega + params.alpha * eps[t] ** 2 + params.beta * h_t
    return eps, h


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
