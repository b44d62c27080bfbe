"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced. Run with `python3 -m pytest densitybench` from the repository root."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def test_smoke_emits_every_metric_and_fails_no_op():
    assert run.main(["--smoke"]) == 0
