"""Shared fixtures for the test suite.

Fixtures are session-scoped where the underlying object is immutable and
expensive to build (datasets, exact graphs), so the several hundred tests stay
fast without repeating work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import make_blobs, make_sift_like
from repro.graph import brute_force_knn_graph

# Tier-1 is hermetic: property tests draw the same examples on every run and
# neither read nor write the on-disk example database, so a failure is a
# failure of the tree, not of the day's draw.  Inputs a random run once
# falsified are pinned with ``@example`` next to the property.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def rng():
    """A seeded generator for tests that need ad-hoc randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def blob_data():
    """Small well-separated Gaussian blobs with ground-truth labels."""
    data, labels = make_blobs(300, 8, 6, cluster_std=0.4, center_box=20.0,
                              random_state=0)
    return data, labels


@pytest.fixture(scope="session")
def sift_small():
    """A small SIFT-like dataset (600 x 16)."""
    return make_sift_like(600, 16, random_state=1)


@pytest.fixture(scope="session")
def sift_small_graph(sift_small):
    """Exact 10-NN graph of :func:`sift_small`."""
    return brute_force_knn_graph(sift_small, 10)


@pytest.fixture(scope="session")
def tiny_data():
    """A deterministic 40 x 4 dataset for exactness-focused tests."""
    generator = np.random.default_rng(7)
    return generator.normal(size=(40, 4))
