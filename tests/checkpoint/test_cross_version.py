"""Checkpoints written by an earlier version of the drivers still resume.

The fixtures under ``fixtures/`` were captured before the workload
definitions were merged into :mod:`repro.core.workloads`: one stream
and one kernel checkpoint each of an ``overload`` run (LQD, burst
shape, telemetry on) and a drained ``script`` run (RED, three
enqueue-only scripts and the closed-loop drain), each split mid-run,
next to the unbroken run's result.  Resuming them pins what a
checkpoint depends on across versions: the stream snapshot format, the
feeder attach order with its tapes and counter reads, and the kernel
process names in the replay anchor's event schedule.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.checkpoint import Checkpoint, resume_run

FIXTURES = Path(__file__).parent / "fixtures"


def _as_dict(result):
    if dataclasses.is_dataclass(result):
        return dataclasses.asdict(result)
    return dict(result)


@pytest.mark.parametrize("name", ["stream-overload", "stream-script",
                                  "kernel-overload", "kernel-script"])
def test_earlier_checkpoint_resumes_to_unbroken_result(name):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    ckpt = Checkpoint.from_dict(doc["checkpoint"])
    assert ckpt.engine == name.split("-")[0]
    run = resume_run(ckpt)
    assert run.now == ckpt.at_ps
    resumed = _as_dict(run.finish())
    unbroken = _as_dict(
        type(run).fresh(ckpt.workload, dict(ckpt.params)).finish())
    assert resumed == unbroken == doc["result"]
