"""matchseq benchmark runner (standard library only).

    python3 bench/run.py --workload {solve_panel,large_hosts,verify_sweep}
                         --seed N --seconds S --trace {0,1}

Runs one workload in this single-threaded process: passes over the
workload's fixed ops, one op at a time, until another pass would end after
``--seconds``.  Every op's verdict is checked after it ran, outside the
timed region; a wrong verdict ends the run with exit code 1.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s`` / ``cpu_s``: one pass, as the sum over ops of each op's median
  wall (CPU, this process and its children) time across the passes;
* ``setup_s``: median over several fresh interpreters of the time from
  process start to the workload's inputs being ready (interpreter start,
  ``import matchseq``, input generation);
* ``decided_share``: ops that ended with a correct verdict within their
  budget, over ops attempted;
* ``peak_rss_mb``: peak resident memory of this process.

The three times are given in reference seconds.  A fixed pure-Python loop
(:func:`reference_loop`) is timed before and after every op and every
set-up probe, and each measured time is scaled by ``REF_SECONDS`` over the
median of the loop times nearest it (four around an op, two around a
probe).  On a shared host the speed of a core swings by a factor of up to
1.8 within seconds and between minutes; the loop slows with the op, so the
scaled time keeps what the program costs and drops most of what the host's
load costs.  Raw seconds are printed above the result line.

With ``--trace 1`` it alternates untraced and traced passes, adds probe
calls after each op of a traced pass, reports the per-layer metrics of
``spans.PER_LAYER`` (medians over traced passes, times in reference
seconds; counts must repeat exactly) and writes the spans to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import pkgpath
    import spans
    import workloads
except ImportError as exc:  # no matchseq sources next to the benchmark
    sys.exit(f"error: {exc}")

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_SAMPLES = 7
# About the reference loop's time on an idle core of the machine the
# benchmark was defined on (2-core Xeon VM, Python 3.11); it sets the scale.
REF_SECONDS = 0.009

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _queens(cols: int, left: int, right: int, full: int) -> int:
    if cols == full:
        return 1
    count = 0
    free = full & ~(cols | left | right)
    while free:
        bit = free & -free
        free ^= bit
        count += _queens(cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1, full)
    return count


def reference_loop() -> float:
    """Seconds taken by fixed pure-Python work of the kinds the package's
    layers do: dict stores and integer and string arithmetic, a recursive
    bitmask search (9 queens), and building tuples, frozensets and lists.

    The garbage collector is off meanwhile: a collection would scan the
    heap the ops left behind and charge it to the loop.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(11_000):
            table[i & 1023] = i
            acc += len(str(i)) + (i ^ (i >> 3))
        acc += _queens(0, 0, 0, (1 << 9) - 1)
        index: dict[int, list] = {}
        for i in range(7_500):
            index.setdefault(i & 255, []).append((i, i + 1, frozenset((i, i + 1))))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Pass:
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # loop times around each op
    decided: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    spans: list[spans.Span] = field(default_factory=list)
    verify_rows: list[dict] | None = None


def run_pass(ops: list[workloads.Op], tr: spans.Tracer, traced: bool) -> Pass:
    """Run every op once, in order; check each verdict after the op."""
    result = Pass()
    store: dict = {}
    tr.on = traced
    first_span = len(tr.spans)
    for i, op in enumerate(ops):
        value, error = None, None
        result.refs.append(reference_loop())
        with tr.op(i, op.name):
            wall, cpu = time.perf_counter(), _cpu_seconds()
            try:
                value = op.run(tr, store)
            except Exception as exc:  # a failed op, counted against decided_share
                error = exc
            cpu = _cpu_seconds() - cpu
            wall = time.perf_counter() - wall
        if traced and op.probes is not None:
            op.probes(tr, value)
        ok = error is None and op.check(value, store)
        if not ok:
            reason = type(error).__name__ if error is not None else value.status
            result.failures.append(f"{op.name} ({reason})")
        result.walls.append(wall)
        result.cpus.append(cpu)
        result.decided.append(ok)
    result.refs.append(reference_loop())
    tr.on = False
    result.spans = tr.spans[first_span:]
    result.verify_rows = store.get("verify_rows")
    return result


def scaled(seconds: float, refs: list[float]) -> float:
    """A measured time in reference seconds, given the loop times nearest it."""
    return seconds * REF_SECONDS / statistics.median(refs)


def near_op(p: Pass, i: int) -> list[float]:
    """The four loop times nearest op i; their median ignores one outlier."""
    return p.refs[max(0, i - 1):i + 3]


def setup_seconds(args) -> list[tuple[float, float]]:
    """(raw, scaled) times of fresh interpreters from spawn to inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = reference_loop()
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw = float(proc.stdout.split()[-1]) - start
        samples.append((raw, scaled(raw, [before, reference_loop()])))
    return samples


def run_passes(ops, tr, seconds: float, traced_too: bool):
    """Untraced passes (alternating with traced ones when ``traced_too``)
    until one more round would end after ``seconds``."""
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        start = time.monotonic()
        plain.append(run_pass(ops, tr, False))
        gc.collect()
        if traced_too:
            traced.append(run_pass(ops, tr, True))
            gc.collect()
        if time.monotonic() + (time.monotonic() - start) > deadline:
            return plain, traced


def _pass_seconds(passes: list[Pass], attr: str, scale: bool) -> float:
    """Sum over ops of the op's median time across passes."""
    def op_time(p: Pass, i: int) -> float:
        t = getattr(p, attr)[i]
        return scaled(t, near_op(p, i)) if scale else t
    return sum(statistics.median(op_time(p, i) for p in passes)
               for i in range(len(passes[0].walls)))


def end_to_end(plain: list[Pass], setup: list[tuple[float, float]]) -> dict[str, float]:
    attempted = sum(len(p.decided) for p in plain)
    return {
        "wall_s": _pass_seconds(plain, "walls", True),
        "cpu_s": _pass_seconds(plain, "cpus", True),
        "setup_s": statistics.median(s for _, s in setup),
        "decided_share": sum(sum(p.decided) for p in plain) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    names = [op.name for op in ops]
    for p in traced:  # a span, probes included, is scaled like the op it belongs to
        for s in p.spans:
            s.scale = scaled(1.0, near_op(p, s.op))
    rounds = [spans.layer_metrics(p.spans, names, p.decided, p.verify_rows) for p in traced]
    rounds[0]["trace.overhead_s"] = (_pass_seconds(traced, "walls", True)
                                     - _pass_seconds(plain, "walls", True))
    rounds[0]["trace.spans"] = len(traced[0].spans)
    out = {}
    for name, unit, _ in spans.PER_LAYER:
        values = [r[name] for r in rounds if name in r]
        if unit == "count" and len(set(values)) != 1:
            raise workloads.WrongVerdict(f"{name} differs between passes: {values}")
        out[name] = statistics.median(values)
    return out


def write_spans(args, recorded: list[spans.Span]) -> Path:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {"workload": args.workload, "seed": args.seed,
               "spans": [vars(s) for s in recorded]}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.pop("MATCHSEQ_THREADS", None)  # verify runs sequentially, as shipped
    OUT.mkdir(exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, OUT)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    seed_note = " (unused: verify_sweep runs a fixed command)" \
        if args.workload == "verify_sweep" else ""
    print(f"# workload={args.workload} seed={args.seed}{seed_note} trace={args.trace}")
    print(f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"recursionlimit={sys.getrecursionlimit()} MATCHSEQ_THREADS=unset "
          f"matchseq={pkgpath.SRC}")
    setup = [] if args.trace else setup_seconds(args)
    tr = spans.Tracer()
    try:
        plain, traced = run_passes(ops, tr, args.seconds, traced_too=bool(args.trace))
        attempted = sum(len(p.decided) for p in plain + traced)
        failed = sum(len(p.failures) for p in plain + traced)
        if args.trace:
            metrics = per_layer(ops, plain, traced)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            print(f"# spans written to {write_spans(args, tr.spans)}")
        else:
            metrics = end_to_end(plain, setup)
            units = dict(END_TO_END)
    except workloads.WrongVerdict as exc:
        print(f"WRONG VERDICT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    finally:
        for leftover in OUT.glob(f"verify-{os.getpid()}.json"):
            leftover.unlink()

    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; {len(ops)} ops per pass")
    refs = [r for p in plain for r in p.refs]
    print(f"# raw seconds: wall per pass {_pass_seconds(plain, 'walls', False):.4f}, "
          f"cpu per pass {_pass_seconds(plain, 'cpus', False):.4f}"
          + (f", setup {statistics.median(r for r, _ in setup):.4f}" if setup else "")
          + f"; reference loop median {statistics.median(refs) * 1000:.3f} ms")
    for note in sorted(set(plain[0].failures)):
        print(f"# failed op each pass: {note}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6f} {units[name]}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
