"""Every pinned run of `og`: what it reads, how it is called and the golden it must print.

Each entry of `PINNED` is (document, argv, golden).  The document is fed
on stdin with `--input -` added to argv, or nothing is fed when it is
None; a directory stands for each `.og` file in it, in name order.  A
run's report is what `og` writes to stdout and stderr, followed by
`exit N` when N is not 0, so a report equals its golden only when the
run also exits cleanly.  A directory's report is, per file, the file
name, that file's report and `exit N` always: the layout of
`golden/parse_errors.txt`.

To pin a new run, write its golden under `tests/golden/` and add one
entry here; the pytest suite and the CI step both read this list.

Run from anywhere, without pytest:

    python tests/goldens.py

It diffs every entry as a `python -m opengames.cli` subprocess, then runs
every entry twice in this one interpreter through
`opengames.cli.main` (the parser is built once per process, so no run may
leave state behind for the next), prints each difference and exits 1 if
there is one.
"""

import contextlib
import difflib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
MARKET = SRC / "opengames" / "data" / "market_entry.og"
THREE = GOLDEN / "three_stage.og"
PRODUCT3 = GOLDEN / "product3.og"

PINNED = [
    (None, ["demo"], "demo.json"),
    (MARKET, ["solve", "--mode", "separable"], "market_separable.json"),
    (MARKET, ["solve", "--mode", "nash"], "market_tree_nash.json"),
    (MARKET, ["solve", "--mode", "spe"], "market_tree_spe.json"),
    (THREE, ["solve", "--mode", "spe"], "three_stage_spe.json"),
    (THREE, ["solve", "--mode", "nash"], "three_stage_nash.json"),
    # A three-player normal form with tied payoffs: the order the tensor states join emits.
    (GOLDEN / "normal_form.og", ["solve", "--mode", "nash"], "normal_form_nash.json"),
    # Four players solved by one n-ary tensor, some equilibria held by ties.
    (GOLDEN / "normal_form4.og", ["solve", "--mode", "nash"], "normal_form4_nash.json"),
    # A product of three children, one a tensor inside a seq: indices split in three digits.
    (PRODUCT3, ["solve", "--expr", "BRANCHES", "--mode", "states"], "product3_states.json"),
    (PRODUCT3, ["solve", "--expr", "BRANCHES", "--mode", "separable"], "product3_separable.json"),
    (MARKET, ["parse"], "market_parse.json"),
    (MARKET, ["parse", "--format", "text"], "market_parse.og"),
    # Stderr and exit code of each broken input.
    (GOLDEN / "broken", ["parse"], "parse_errors.txt"),
    (None, ["laws", "--trials", "5", "--seed", "42"], "laws_seed42.json"),
]


def in_process(doc, argv):
    """(exit code, stdout + stderr) of `opengames.cli.main` in this interpreter."""
    from opengames.cli import main

    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    try:
        if doc is not None:
            argv = argv + ["--input", "-"]
            sys.stdin = io.StringIO(doc.read_bytes().decode("utf-8"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue() + err.getvalue()


def as_subprocess(doc, argv):
    """(exit code, stdout and stderr as written) of `python -m opengames.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if doc is not None:
        argv = argv + ["--input", "-"]
    with open(doc if doc is not None else os.devnull, "rb") as stdin:
        done = subprocess.run([sys.executable, "-m", "opengames.cli", *argv], stdin=stdin,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    return done.returncode, done.stdout.decode("utf-8")


def report(run, doc, argv) -> str:
    """What `run` (`in_process` or `as_subprocess`) reports for one entry."""
    if doc is not None and doc.is_dir():
        return "".join(f"{path.name}\n{text}exit {code}\n"
                       for path in sorted(doc.glob("*.og"))
                       for code, text in [run(path, argv)])
    code, text = run(doc, argv)
    return text + (f"exit {code}\n" if code else "")


def diff(doc, argv, golden, run, label) -> list:
    """Unified diff lines from the golden to what `run` reports; empty when they match."""
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    got = report(run, doc, argv)
    return list(difflib.unified_diff(want.splitlines(True), got.splitlines(True), golden, label))


def main() -> int:
    sys.path.insert(0, str(SRC))
    passes = [(as_subprocess, "subprocess"), (in_process, "in-process pass 1"),
              (in_process, "in-process pass 2")]
    failed = False
    for run, label in passes:
        for doc, argv, golden in PINNED:
            lines = diff(doc, argv, golden, run, label)
            sys.stdout.writelines(lines)
            failed = failed or bool(lines)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
