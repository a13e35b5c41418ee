"""covjac benchmark: one seeded workload per run, single process, single thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs the workload's fixed batch of ops (a round) as many whole times as
fit in ``--seconds`` (at least once), then checks every output of every
round against references computed outside covjac (checks.py).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the first round runs untraced, the rest under
spans.py's spans, then the workload's extra ops (workloads.traced_extra)
once, and the metrics are the per-layer ones.  The traced run also
writes its spans to ``perfbench/out/`` and explains the slowest op by
Fitting ideal on stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up takes about 0.2 s, so it is repeated and the median kept.  On a
# shared machine the median of 15 repeats varied less between runs than
# their minimum (README, "setup_s").
SETUP_REPEATS = 15
IMPORT_REPEATS = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import covjac; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Median time to import covjac in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def run_round(ops, tracer=None, op_spans=None):
    """Run every op once.  Returns (wall, cpu, per-op seconds, outputs);
    an output is (value, None) or (None, error text)."""
    times, outputs = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.op = op.op_id
            span = tracer.open(op_spans[op.kind])
        t = time.perf_counter()
        try:
            out = (op.run(), None)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = (None, f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.close(span)
        outputs.append(out)
    return (time.perf_counter() - wall0, time.process_time() - cpu0,
            times, outputs)


def run_rounds(ops, seconds, first_wall=0.0, tracer=None, op_spans=None,
               reference=None):
    """Whole rounds while the next one is expected to end within
    ``seconds`` (counting ``first_wall`` already spent); at least one.
    With ``reference`` (a function returning seconds), the reference is
    timed before each round and after the last.  Returns (rounds,
    reference times)."""
    rounds, refs, spent = [], [], first_wall
    while True:
        if reference is not None:
            refs.append(reference())
        mark = len(tracer.spans) if tracer is not None else 0
        r = run_round(ops, tracer, op_spans)
        rounds.append((*r, mark))
        spent += r[0]
        if spent + r[0] > seconds:
            if reference is not None:
                refs.append(reference())
            return rounds, refs


def per_reference(rounds, refs):
    """Round and op times divided by the mean of the reference times
    taken just before and just after the round: (wall, slowest op), each
    the median over the rounds; the slowest op is the largest median."""
    local = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    walls = [r[0] / ref for r, ref in zip(rounds, local)]
    per_op = zip(*([t / ref for t in r[2]] for r, ref in zip(rounds, local)))
    return (statistics.median(walls),
            max(statistics.median(t) for t in per_op))


def check_output(checker, op, out):
    """The checker's complaint about ``out``, or None; a check that raises
    (say, on a report with a missing key) is a complaint too."""
    try:
        return checker.check(op, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "covjac" / "__init__.py").is_file():
        print(f"perfbench: covjac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads  # imports covjac

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = workloads.build(args.workload, args.seed)
        builds.append(time.perf_counter() - t)
    setup_s = import_seconds() + statistics.median(builds)

    tracer = None
    if args.trace:
        import spans as tr

        base, _ = run_rounds(ops, 0.0)  # one untraced round
        extra = workloads.traced_extra(args.workload)
        tracer = tr.Tracer()
        tracer.install()
        try:
            rounds, _ = run_rounds(ops, args.seconds, base[0][0], tracer,
                                   tr.OP_SPANS)
            extra_mark = len(tracer.spans)
            extra_round = run_round(extra, tracer, tr.OP_SPANS) if extra else None
        finally:
            tracer.uninstall()
        checked = [(ops, r[3]) for r in base + rounds]
        if extra:
            checked.append((extra, extra_round[3]))
    else:
        import reference

        ref = functools.partial(reference.seconds, args.workload)
        ref()  # warm-up
        rounds, refs = run_rounds(ops, args.seconds, reference=ref)
        checked = [(ops, r[3]) for r in rounds]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from checks import Checker  # sympy is imported only after timing

    checker = Checker()
    attempted = failed = 0
    problems = {}
    for round_ops, outputs in checked:
        for op, (out, err) in zip(round_ops, outputs):
            attempted += 1
            problem = err or check_output(checker, op, out)
            if problem:
                failed += 1
                problems.setdefault(op.op_id, problem)
    for op_id, problem in problems.items():
        print(f"perfbench: FAILED {op_id}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(tr, tracer, base[0], rounds, extra_mark, args)
    else:
        wall_ref, slowest_op_ref = per_reference(rounds, refs)
        per_op = zip(*(r[2] for r in rounds))
        print(f"perfbench: wall {statistics.median(r[0] for r in rounds):.4f} s, "
              f"slowest op {max(statistics.median(t) for t in per_op):.4f} s, "
              f"reference {statistics.median(refs):.5f} s", file=sys.stderr)
        metrics = {
            "wall_ref": metric(wall_ref, "ref"),
            "slowest_op_ref": metric(slowest_op_ref, "ref"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(f"perfbench: {args.workload} seed {args.seed}: {len(ops)} ops x "
          f"{len(rounds) + args.trace} rounds", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(tr, tracer, untraced, rounds, extra_mark, args):
    """Per-layer medians over the traced rounds; the spans of the extra
    ops after ``extra_mark`` are written out and explained, not counted."""
    spans = tracer.spans
    bounds = [r[4] for r in rounds] + [extra_mark]
    per_round = []
    for lo, hi in zip(bounds, bounds[1:]):
        # Parent indices are global; rebase them onto the round's slice.
        sl = [tr.Span(s.name, s.start, s.end,
                      None if s.parent is None else s.parent - lo, s.op, s.attrs)
              for s in spans[lo:hi]]
        per_round.append(tr.layer_metrics(sl))
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    traced_wall = statistics.median(r[0] for r in rounds)
    values.update({
        "cpu_s": untraced[1],
        "trace.untraced_wall_s": untraced[0],
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall / untraced[0] - 1.0),
    })
    keep = [*range(bounds[1]), *range(extra_mark, len(spans))]
    write_trace(tr, spans, keep, args)
    return {k: metric(v, unit_of(k)) for k, v in values.items()}


def unit_of(name):
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def write_trace(tr, spans, keep, args):
    """The spans indexed by ``keep`` (the first traced round and the extra
    ops) as JSON lines, preceded by the explanation of the slowest op
    among them."""
    roots = [i for i in keep if spans[i].parent is None]
    worst = max(roots, key=lambda i: spans[i].duration)
    rows = tr.explain_fitting(spans, worst)
    print(f"perfbench: slowest op {spans[worst].op} ({spans[worst].name}) "
          f"{spans[worst].duration:.3f} s", file=sys.stderr)
    for row in rows:
        print(f"perfbench:   {row['ideal']:<18} {row['ring']:<5} "
              f"{row['seconds']:8.3f} s  gens {row.get('generators')}  "
              f"rels {row.get('relations')}  minors {row.get('minors')}  "
              f"det {row['det_seconds']:.3f} s", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"slowest_op": spans[worst].op,
                             "seconds": spans[worst].duration,
                             "fitting_ideals": rows}) + "\n")
        for i in keep:
            s = spans[i]
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent, "op": s.op,
                                 **s.attrs}) + "\n")
    print(f"perfbench: spans written to {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
