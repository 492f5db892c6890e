"""Fixtures shared across test modules."""

import functools

import pytest

from vkg.cli import run_pipeline


@pytest.fixture(scope="session")
def runs():
    """The pipeline of `vkg.cli` behind one cache for the whole session:
    the acceptance rows and the tests that refine their reference runs
    run each `RunSettings` once, as `vkg verify` does per invocation."""
    return functools.cache(run_pipeline)
