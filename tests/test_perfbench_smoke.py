"""One round of every benchmark workload, each answer gated by its oracle.

The ops and oracles are the ones `perfbench/run.py` times, so a change
that makes the engine disagree with an oracle fails here first.  Each
check must also reject a corrupted copy of the answer it accepted.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _round(name, tmp_path):
    if name == "nf-nash":
        return workloads.nf_nash(1, pool=1)[0]
    if name == "seq-spe":
        return workloads.seq_spe(1, pool=1)[0]
    if name == "doc-cli":
        return workloads.doc_cli(1, pool=1, workdir=tmp_path)[0]
    # Law seed 42 is the pool's slowest op and heavy on the interchange cell.
    return [workloads._law_op(s) for s in (0, 1, 2, 42)]


@pytest.mark.parametrize("name", ["nf-nash", "seq-spe", "doc-cli", "laws"])
def test_workload_answers_pass_their_oracles(name, tmp_path):
    ops = _round(name, tmp_path)
    assert ops
    for op in ops:
        answer = op.run()
        assert op.check(answer), op.shape
        assert not op.check(op.corrupt(answer)), op.shape
