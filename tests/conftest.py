"""Shared fixtures: benchmark models and cached noiseless signals."""

import pytest

from fundfreq import MODEL1, MODEL2, synthesize


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
