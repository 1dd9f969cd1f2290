import numpy as np
import pytest

import sawspec as sw
from sawspec.foundations import mobius_table


@pytest.fixture(scope="session")
def sieves_1m():
    return sw.build_sieves(10**6)


@pytest.fixture(scope="session")
def prefix_1m(sieves_1m):
    """S_m = sum_{n <= m} phi(n), m = 0..1e6, as one int64 table."""
    return np.cumsum(sieves_1m)


@pytest.fixture(scope="session")
def mobius_1m():
    return mobius_table(10**6)


@pytest.fixture(scope="session")
def table_101():
    return sw.build_table(101)


@pytest.fixture(scope="session")
def table_199():
    return sw.build_table(199)


@pytest.fixture(scope="session")
def table_1009():
    return sw.build_table(1009)


@pytest.fixture(scope="session")
def table_10007():
    return sw.build_table(10007)


@pytest.fixture(scope="session")
def spec_101_naive():
    return sw.spectrum_all(101, "naive")


@pytest.fixture(scope="session")
def spec_1009():
    return sw.spectrum_all(1009, "chirp-z")


@pytest.fixture(scope="session")
def spec_10007():
    return sw.spectrum_all(10007, "chirp-z")


@pytest.fixture(scope="session")
def ck_1009(table_1009):
    return sw.ck_all(1009, "characters", table=table_1009)


@pytest.fixture(scope="session")
def ck_10007(table_10007):
    return sw.ck_all(10007, "characters", table=table_10007)


@pytest.fixture(scope="session")
def acc_1m(sieves_1m):
    return sw.build_phi_accumulator(10**6, sieves_1m)
