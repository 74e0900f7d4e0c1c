"""One round of every benchmark workload, each answer gated by its oracle.

The ops and oracles are the ones `perfbench/run.py` times, so a change
that makes the engine disagree with an oracle fails here first.  Each
check must also reject a corrupted copy of the answer it accepted.  A
short traced run of each workload must finish and report every
per-layer metric `BENCHMARK.json` declares.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


@pytest.mark.parametrize("name", ["nf-nash", "seq-spe", "doc-cli", "laws"])
def test_traced_run_reports_every_layer(name):
    """`run.py --trace 1` in a fresh interpreter: exit 0, no failed op, every layer."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, report
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [m for m in declared if m not in report["metrics"]] == []
