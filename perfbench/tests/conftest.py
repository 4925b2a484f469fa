"""Tiny-scale settings for the benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes about a second."""
    import layers
    import workloads

    monkeypatch.setattr(workloads, "N_KEYS", 6000)
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "PROBE_OPS", 6)
    monkeypatch.setattr(layers, "TRACE_OPS", {
        "sharded_read": 4, "sharded_mixed": 24,
    })
