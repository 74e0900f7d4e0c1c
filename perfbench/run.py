"""Benchmark of the open games engine: four closed-loop workloads.

One run measures one workload in this process, one op at a time:

    python3 perfbench/run.py --workload nf-nash --seed 1 --seconds 10 --trace 0

Ops run in whole rounds (one op per shape of the workload's mix) until the
timed ops add up to `--seconds`.  Times are scaled to a reference host
speed, sampled between ops, because shared hosts drift (see `speed.py`);
the `info` line gives the median scale.  Every answer is checked against its
oracle outside the timed region; a wrong answer, an exception or a
non-zero exit code counts as a failed op, and any failed op makes the run
exit 1.  After the first op that passes, the run feeds the check a
corrupted copy of its answer and exits 1 unless the check rejects it.

The last line of standard output is one JSON object.  With `--trace 0` it
holds the end-to-end metrics; with `--trace 1` the engine's public
functions are wrapped (see `tracing.py`) and it holds the per-layer
metrics.  The line before it, starting with `info `, carries figures that
are reported but not gated: the failure ratio, the tail percentile and
op count, oracle timings and `src_loc`.

Every metric of every workload, traced and untraced, comes from one
command, which runs each workload in a fresh interpreter in turn:

    python3 perfbench/run.py --all --seed 1 --seconds 10 [--out FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9
WORKLOADS = ["nf-nash", "seq-spe", "doc-cli", "laws"]
# Shape names of the ladders in workloads.py, as used in per-layer metric names.
NF_SHAPES = ["2x8", "2x16", "3x4", "4x3", "5x2", "4x4", "5x3"]
SEQ_SHAPES = ["2x3", "2x4", "3x2", "3-2-2", "2-2-3"]

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("games.OpenGame.best.calls", "count"),
    ("games.OpenGame.best.self_ms", "ms"),
    ("games.game_states.ms", "ms"),
    ("lenses.left_context.self_ms", "ms"),
    ("lenses.right_context.self_ms", "ms"),
    ("lenses.apply_continuation.calls", "count"),
    ("lenses.apply_continuation.self_ms", "ms"),
    ("lenses.lens_compose.calls", "count"),
    ("lenses.lens_compose.self_ms", "ms"),
    ("finite.TotalFn.calls", "count"),
    ("finite.TotalFn.self_ms", "ms"),
    ("finite.enumerate_functions.ms", "ms"),
    ("finite.enumerate_functions.items", "count"),
    ("expr.eval_expr.ms", "ms"),
    ("expr.states_over.ms", "ms"),
    ("expr.separable_states_over.self_ms", "ms"),
    ("solve.build_normal_form_expr.ms", "ms"),
    ("solve.build_sequential_expr.ms", "ms"),
    ("dsl.parse_sexprs.ms", "ms"),
    ("dsl.parse_document.self_ms", "ms"),
    ("dsl.source_kb_per_s", "KiB/s"),
    ("cli.main.self_ms", "ms"),
    ("morphisms.check_morphism.calls", "count"),
    ("morphisms.check_morphism.ms", "ms"),
    ("morphisms.morphisms_equal.ms", "ms"),
    ("lenses.lenses_equal.ms", "ms"),
    ("cells.cell_build.ms", "ms"),
    ("classical.oracle_ms", "ms"),
    *[(f"classical.engine_over_oracle.{s}", "ratio") for s in NF_SHAPES],
    *[(f"classical.engine_over_oracle.seq-{s}", "ratio") for s in SEQ_SHAPES],
    ("trace.ops_per_s", "1/s"),
]


def src_loc() -> int:
    """Non-blank lines of Python under src/opengames."""
    total = 0
    for path in sorted((SRC / "opengames").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def _need_source():
    if not (SRC / "opengames" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC / 'opengames'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _workdir(tag):
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def tail(sorted_values):
    """Highest whole percentile with at least ten values beyond it.

    Returns (percentile, value), or (100, max) when there are fewer than
    eleven values.
    """
    n = len(sorted_values)
    if n < 11:
        return 100, sorted_values[-1]
    q = math.floor(100 * (n - 10) / n)
    while q > 0 and n - math.ceil(q * n / 100) < 10:
        q -= 1
    return q, sorted_values[math.ceil(q * n / 100) - 1]


# ---------------------------------------------------------------------------
# One workload, in this process.
# ---------------------------------------------------------------------------


def measure(rounds, seconds, tracer):
    """Run whole rounds until the timed ops add up to `seconds` at reference speed.

    Returns the ops as (shape, seconds, scale) with the speed scale of
    `speed.scales`, the oracle timings as (shape, seconds, scale), and the
    number of failed ops.  A speed sample is taken before every op and
    after the last one, outside the timed region.  Each op starts from a
    collected heap, as in a fresh `og` process, so the cyclic garbage one
    op leaves does not land on a later op's time.
    """
    clock = time.perf_counter
    ops = []
    oracle = []  # (shape, seconds, op index)
    samples = [speed.sample()]
    failed = 0
    timed = 0.0
    r = 0
    gated = False
    while timed < seconds:
        for op in rounds[r % len(rounds)]:
            gc.collect()
            if tracer is not None:
                tracer.begin_op(op.shape)
            started = clock()
            try:
                answer = op.run()
                raised = False
            except (Exception, SystemExit):
                answer, raised = None, True
            took = clock() - started
            if tracer is not None:
                tracer.end_op()
            timed += took * speed.REFERENCE_S / statistics.median(samples[-5:])
            ops.append((op.shape, took))
            seen = len(op.oracle_s)
            try:
                ok = not raised and op.check(answer)
            except Exception:  # e.g. output that is not a JSON report
                ok = False
            oracle.extend((op.shape, s, len(ops) - 1) for s in op.oracle_s[seen:])
            if not ok:
                failed += 1
            elif not gated:
                if op.check(op.corrupt(answer)):
                    print("perfbench: the oracle check accepted a corrupted answer",
                          file=sys.stderr)
                    sys.exit(1)
                print(f"self-check: corrupted {op.shape} answer rejected by the oracle check")
                gated = True
            samples.append(speed.sample())
        r += 1
    scale = speed.scales(samples, len(ops))
    return (
        [(shape, s, scale[i]) for i, (shape, s) in enumerate(ops)],
        [(shape, s, scale[i]) for shape, s, i in oracle],
        failed,
    )


def _per_shape_median(records):
    by = {}
    for shape, s, k in records:
        by.setdefault(shape, []).append(s * k)
    return {shape: statistics.median(vs) for shape, vs in by.items()}


def _oracle_figures(name, ops, oracle):
    """Median oracle ms, and engine over oracle time per shape of the ladders."""
    if not oracle:
        return 0.0, {}
    engine = _per_shape_median(ops)
    orc = _per_shape_median(oracle)
    ratios = {}
    if name in ("nf-nash", "seq-spe"):
        prefix = "seq-" if name == "seq-spe" else ""
        ratios = {f"{prefix}{shape}": engine[shape] / orc[shape] for shape in orc}
    return statistics.median(s * k for _, s, k in oracle) * 1e3, ratios


def layer_metrics(tracer, ops, oracle_ms, ratios):
    """Per-op medians of the folded spans, scaled like the op they belong to."""
    per_op = tracer.folded
    scale = [k for _, _, k in ops]
    values = {}
    empty = (0, 0, 0, 0)

    def median_of(name, column, unit):
        return statistics.median(
            op.get(name, empty)[column] * unit * (scale[i] if column in (1, 2) else 1)
            for i, op in enumerate(per_op)
        )

    columns = {"calls": (0, 1), "ms": (1, 1e-6), "self_ms": (2, 1e-6), "items": (3, 1)}
    for metric, _unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in columns:
            values[metric] = median_of(layer, *columns[stat])
    parse_s = sum(
        op.get("dsl.parse_document", empty)[1] * 1e-9 * scale[i]
        for i, op in enumerate(per_op)
    )
    parse_kb = sum(op.get("dsl.parse_document", empty)[3] for op in per_op) / 1024
    values["dsl.source_kb_per_s"] = parse_kb / parse_s if parse_s else 0.0
    values["classical.oracle_ms"] = oracle_ms
    for shape, ratio in ratios.items():
        values[f"classical.engine_over_oracle.{shape}"] = ratio
    values["trace.ops_per_s"] = len(ops) / sum(s * k for _, s, k in ops)
    undeclared = set(values) - set(dict(PER_LAYER))
    if undeclared:  # a ladder shape missing from PER_LAYER and BENCHMARK.json
        raise ValueError(f"undeclared per-layer metrics: {sorted(undeclared)}")
    for metric, _unit in PER_LAYER:
        values.setdefault(metric, 0.0)
    return values


def setup_seconds(workload, seed):
    """Median time from spawning a fresh interpreter to its first op, scaled."""
    for _ in range(20):  # the sampler's own first passes run cold
        speed.sample()
    samples = []
    for _ in range(SETUP_PROBES):
        before = [speed.sample() for _ in range(5)]
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("perfbench: the set-up probe failed")
        took = float(proc.stdout.split()[-1]) - started
        around = before + [speed.sample() for _ in range(5)]
        samples.append(took * speed.REFERENCE_S / statistics.median(around))
    return statistics.median(samples)


def run_one(args):
    _need_source()
    import workloads  # noqa: E402  (needs src/ on sys.path)

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workdir = _workdir(args.workload)
    try:
        rounds = workloads.build(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        # Set-up objects never become garbage; freezing them keeps the
        # collection before each op cheap.
        gc.collect()
        gc.freeze()
        ops, oracle, failed = measure(rounds, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = sorted(s * k for _, s, k in ops)
    q, tail_s = tail(scaled)
    oracle_ms, ratios = _oracle_figures(args.workload, ops, oracle)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "fail_ratio": failed / len(ops),
        "tail_percentile": q,
        "timed_s": sum(s for _, s, _ in ops),
        "speed_scale": statistics.median(k for _, _, k in ops),
        "oracle_ms": oracle_ms,
        "engine_over_oracle": ratios,
        "op_ms_by_shape": {k: v * 1e3 for k, v in _per_shape_median(ops).items()},
        "src_loc": src_loc(),
    }
    if args.trace:
        values = layer_metrics(tracer, ops, oracle_ms, ratios)
        units = dict(PER_LAYER)
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["spans"] = len(tracer.start)
        info["ops_spans_dropped"] = tracer.dropped_ops
    else:
        values = {
            "setup_s": setup_s,
            "op_ms.p50": statistics.median(scaled) * 1e3,
            "op_ms.tail": tail_s * 1e3,
            "ops_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed, "
          f"tail = p{q}, src_loc {info['src_loc']}")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def probe_setup(args):
    """Import the engine, build the inputs, print the clock: a set-up sample."""
    _need_source()
    import workloads  # noqa: E402  (imports the engine)

    workdir = _workdir(f"probe-{args.workload}")
    try:
        workloads.build(args.workload, args.seed, workdir)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh interpreter: the one command.
# ---------------------------------------------------------------------------


def _child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    info = next(json.loads(l[5:]) for l in lines if l.startswith("info "))
    return {"info": info, "result": json.loads(lines[-1])}


def run_all(args):
    _need_source()
    report = {"seed": args.seed, "seconds": args.seconds, "src_loc": src_loc(),
              "workloads": {}}
    status = 0
    print(f"src_loc {report['src_loc']} lines (informational, not gated)")
    for name in WORKLOADS:
        plain = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        if plain is None or traced is None:
            print(f"{name}: FAILED")
            status = 1
            continue
        e2e = plain["result"]["metrics"]
        layers = traced["result"]["metrics"]
        info = plain["info"]
        overhead = e2e["ops_per_s"]["value"] / layers["trace.ops_per_s"]["value"]
        report["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layers, "info": info,
            "trace_overhead": overhead,
        }
        print(f"\n== {name}: {info['ops']} ops, fail_ratio {info['fail_ratio']}, "
              f"op_ms.tail is p{info['tail_percentile']}")
        for metric, m in e2e.items():
            print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_ratio':<42} {info['fail_ratio']:>14.6g} -")
        for shape, ratio in info["engine_over_oracle"].items():
            print(f"  {'untraced engine/oracle ' + shape:<42} {ratio:>14.6g} ratio")
        print(f"  -- traced run ({traced['info']['ops']} ops, "
              f"{traced['info']['spans']} spans in {traced['info']['spans_file']})")
        for metric, m in layers.items():
            print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'tracing overhead (untraced/traced ops_per_s)':<42} {overhead:>14.6g} x")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    p.add_argument("--out", help="with --all: write the full report as JSON here")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    if args.probe_setup:
        return probe_setup(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
