"""Shared fixtures: benchmark models and cached noiseless signals."""

import pytest

import fundfreq.criterion as criterion
from fundfreq import MODEL1, MODEL2, synthesize


@pytest.fixture(autouse=True)
def cold_start_design():
    """Every test starts with no start pass remembered and no rows or
    factors kept, so a test that counts or patches the factorizations of
    the start pass sees them whatever ran before it."""
    criterion._last_start = (None, None)


@pytest.fixture(scope="session")
def model1():
    return MODEL1


@pytest.fixture(scope="session")
def model2():
    return MODEL2


@pytest.fixture(scope="session")
def m1_clean_1000():
    """Noiseless benchmark-1 signal, n=1000."""
    return synthesize(MODEL1, 1000)


@pytest.fixture(scope="session")
def m1_clean_512():
    return synthesize(MODEL1, 512)


@pytest.fixture(scope="session")
def m2_clean_512():
    return synthesize(MODEL2, 512)


@pytest.fixture(scope="session")
def m1_clean_2000():
    return synthesize(MODEL1, 2000)


def fd_derivatives(fn, lam, h):
    """Central finite differences (f', f'') of a scalar function."""
    f_plus = fn(lam + h)
    f_minus = fn(lam - h)
    f_0 = fn(lam)
    d1 = (f_plus - f_minus) / (2.0 * h)
    d2 = (f_plus - 2.0 * f_0 + f_minus) / h**2
    return d1, d2
