"""Shared test configuration: the ``slow`` marker and the full-scan matching
reference."""

import numpy as np
import pytest


# the fixtures that run whole benchmark comparisons (minutes): criteria 5, 6a,
# 6b and 7; every other acceptance criterion runs in seconds
_BENCHMARK_FIXTURES = {"incremental_runs", "batch_epochs_to_criterion"}


def pytest_collection_modifyitems(items):
    # `pytest -m "not slow"` leaves out only the benchmark comparisons, for a
    # seconds-long inner loop that still checks the fast criteria
    for item in items:
        if _BENCHMARK_FIXTURES.intersection(item.fixturenames):
            item.add_marker(pytest.mark.slow)


def full_scan_nearest(network, query):
    """Reference winner search: the context-weighted distance of every unit by
    one einsum, winner and runner-up by argmin, ties to the smaller id."""
    n = network.num_neurons
    if n < 2:
        raise RuntimeError("matching needs at least two neurons")
    diff = network._units[:n] - query
    d = np.einsum("j,ijk,ijk->i", network._alpha, diff, diff)
    b = int(np.argmin(d))
    d_b = float(d[b])
    d[b] = np.inf
    return b, int(np.argmin(d)), d_b


@pytest.fixture(scope="session")
def full_scan():
    return full_scan_nearest
