"""Self-test: the smallest rung of every workload runs clean, traced and not,
and a wrong answer is counted as a failed job.

Run from the repository root with ``python3 -m pytest germbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_rung_has_no_failures(workload, trace):
    result = run.run_workload(workload, run.DEFAULT_SEED, 0.01, trace, tiny=True)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > 0
    if trace:
        assert result["metrics"]["decomp.split.calls"]["value"] > 0
    else:
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_wrong_answer_is_counted_not_fatal(tmp_path, monkeypatch):
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    expected["heis-split/h3"]["shape"]["max_degree"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", corrupted)
    result = run.run_workload("heis-split", run.DEFAULT_SEED, 0.01, False, tiny=True)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
