"""The benchmark's per-layer metrics stay measurable: every function its
traced run wraps still exists under the name it wraps."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_trace_target_resolves(target):
    assert tracing._resolve(target) is not None, f"{target} is gone"
