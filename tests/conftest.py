"""Fixtures shared across the test modules."""

import io
import time
from types import SimpleNamespace

import pytest

from metacont.cli import verify


@pytest.fixture(scope="session")
def verify_suite():
    """`metacont verify`, run once per session: its exit code, results,
    printed text and the wall time of that one call."""
    stream = io.StringIO()
    t0 = time.perf_counter()
    code, results = verify(stream=stream)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(code=code, results=results, text=stream.getvalue(),
                           seconds=seconds)
