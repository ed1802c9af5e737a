"""Shared benchmark configuration.

Every bench regenerates one paper artifact (table or figure) and prints
the rows/series the paper reports, so a ``pytest benchmarks/
--benchmark-only`` run doubles as the reproduction log.  Expensive
sweeps run exactly once via ``benchmark.pedantic``.

Speed is recorded by the end-to-end benchmark (``benchmarks/e2e``), not
here: its ``compare.py --ab`` runs two source trees on one host and
judges every metric against the bounds in ``BENCHMARK.json``.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Benchmark a sweep exactly once and return its result."""
    def runner(fn):
        return benchmark.pedantic(fn, iterations=1, rounds=1)
    return runner
