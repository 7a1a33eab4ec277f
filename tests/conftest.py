"""Shared fixtures for the test suite (helpers live in helpers.py)."""

from __future__ import annotations

import os

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_plan_cache(tmp_path_factory):
    """Point the persistent plan cache at a session temp dir.

    Keeps the suite from reading or writing ``~/.cache/repro`` (tests
    must be hermetic, and several assert exact hit/miss sequences).  An
    explicit ``REPRO_PLAN_CACHE`` — e.g. CI restoring a cached plan dir
    for the benchmarks — wins.  Exported via ``os.environ`` so spawned
    service workers inherit it.
    """
    if "REPRO_PLAN_CACHE" not in os.environ:
        os.environ["REPRO_PLAN_CACHE"] = str(
            tmp_path_factory.mktemp("plan-cache")
        )


@pytest.fixture
def rng():
    return np.random.default_rng(20260706)
