"""photoref benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli-pipeline,fit-batch,forward-sweep}
                             --seed N --seconds S --trace {0,1}

A run has three phases.

1. Set-up: a fresh child process (this script with ``--setup-only``)
   imports photoref, writes the workload's seeded inputs and builds its
   models.  With ``--trace 0`` this is repeated five times; ``setup_s`` is
   the median of the scaled times (as in 2).  The repeats must write
   byte-identical inputs.
2. Timed phase: whole passes over the inputs for up to ``--seconds`` (at
   least one pass).  Every pass runs the same operations in the same order
   and each operation is timed on its own, between two runs of a fixed
   speed probe (see ``common``); ``wall_s`` sums each operation's median
   scaled time across passes.
3. Checks: each operation's outputs are checked as it completes, outside
   its timing; a failed check or a raised exception fails the operation.

With ``--trace 1`` every operation of a pass runs untraced and then traced,
back to back, for up to three passes, and the result holds the per-layer
metrics: each is a per-pass mean over the traced runs, except ``import.*``
(median of three ``python -X importtime -c "import photoref.cli"``
probes) and ``cli.handler_s`` / ``cli.process_overhead_s`` (untraced
runs).  Counts that must repeat exactly on identical inputs are compared
across the traced passes.

The last line of standard output is the result object; the line before it
is a record with the environment, the sample counts and the figures under
the names the workloads are usually discussed with.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from common import CONFIG, SRC, WORK, child_env, measure, speed_probe

WORKLOADS = {
    "cli-pipeline": "cli_pipeline",
    "fit-batch": "fit_batch",
    "forward-sweep": "forward_sweep",
}
SETUP_REPEATS = 5
MAX_TRACED_PASSES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "ok_ratio", "fit_ok_ratio")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(cmd, capture_stderr: bool = False) -> tuple[float, int, str]:
    """Run a child to completion: (wall seconds, exit code, stderr if captured)."""
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=SRC.parent, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE if capture_stderr else None, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc.returncode, proc.stderr or ""


def inputs_digest(work_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(work_dir.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(work_dir)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (SRC.parent / ".git").exists():  # a plain source tree has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=SRC.parent, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pass_wall(ops) -> float:
    return sum(op.wall_s for op in ops)


def op_times(passes, estimator, scaled: bool = False) -> list[tuple[str, float]]:
    """(kind, estimated time) of each operation position across passes.

    Every pass runs the same operations in the same order, so operation i of
    each pass is one sample of the same work.  ``scaled`` takes the times at
    the probe's reference speed instead of the raw ones.
    """
    columns = zip(*[[(op.kind, op.scaled_s if scaled else op.wall_s) for op in p]
                    for p in passes])
    return [(column[0][0], estimator(wall for _, wall in column)) for column in columns]


def another_pass(start: float, done: int, seconds: float) -> bool:
    """Start another pass only if a pass as long as the mean so far fits.

    The timed phase then ends near ``seconds``, or after one pass if a pass
    is longer, which keeps the run's length bounded on a slow machine.
    """
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_pass(workload) -> list:
    """One pass, with a speed probe before the first operation and after each one."""
    probe, reference = speed_probe(workload.in_process)
    ops, before = [], probe()
    for step in workload.steps():
        op = measure(step)
        after = probe()
        op.scale = reference / (0.5 * (before + after))
        ops.append(op)
        before = after
    return ops


def run_paired_pass(workload, tracer) -> tuple[list, list]:
    """Each operation untraced and then traced, back to back.

    Pairing per operation puts both runs of it in the same state of the
    machine, so their difference is the tracing overhead rather than noise.
    In-process workloads have the package wrapped for the traced run only.
    """
    untraced, traced = [], []
    for step in workload.steps():
        untraced.append(measure(step))
        if workload.in_process:
            with tracer.installed():
                traced.append(measure(step, tracer))
        else:
            traced.append(measure(step, tracer, harness_span=False))
    return untraced, traced


def import_probes() -> tuple[list[dict], int]:
    from layers import parse_importtime

    probes, errors = [], 0
    for _ in range(IMPORT_PROBES):
        _, code, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import photoref.cli"],
            capture_stderr=True,
        )
        if code == 0:
            probes.append(parse_importtime(stderr))
        else:
            errors += 1
    return probes, errors


def figures(workload, setup_times, passes, rss_mb=None) -> dict:
    """Every figure of a run with its unit and sample count.

    Timings are at the probes' reference speed (see ``common``): each
    operation's time times its probe's reference time over the mean of the
    probe times just before and after it, and then its median across
    passes.  The raw median is kept as ``wall_raw_s``.  The generic
    end-to-end metrics come first; the per-workload names follow for the
    workloads they apply to.
    """
    ops = [op for ops in passes for op in ops]
    times = op_times(passes, statistics.median, scaled=True)
    raw = op_times(passes, statistics.median)
    scored = [op.fit_ok for op in ops if op.fit_ok is not None]
    failed = sum(not op.ok for op in ops)
    if rss_mb is None:
        rss_mb, rss_n = max(op.extra["rss_mb"] for op in ops), len(ops)
    else:
        rss_n = 1

    def figure(value, unit, n):
        return {"value": value, "unit": unit, "n": n}

    def p50(times):
        return statistics.median(t for kind, t in times if kind in workload.latency_kinds)

    n_latency = sum(op.kind in workload.latency_kinds for op in ops)
    wall = sum(t for _, t in times)
    out = {
        "setup_s": figure(statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": figure(wall, "s", len(passes)),
        "latency_p50_s": figure(p50(times), "s", n_latency),
        "peak_rss_mb": figure(rss_mb, "MB", rss_n),
        "ok_ratio": figure((len(ops) - failed) / len(ops), "ratio", len(ops)),
        "fit_ok_ratio": figure(sum(scored) / len(scored) if scored else 1.0, "ratio", len(scored)),
        "error_ratio": figure(failed / len(ops), "ratio", len(ops)),
        "wall_raw_s": figure(sum(t for _, t in raw), "s", len(passes)),
    }
    if workload.name == "cli-pipeline":
        out["cli_latency_p50_s"] = out["latency_p50_s"]
    for kind, name in (("trace_fit", "trace_fits_per_s"), ("sweep_fit", "sweep_fits_per_s")):
        fits = [t for k, t in times if k == kind]
        if fits:
            out[name] = figure(len(fits) / sum(fits), "1/s", len(fits) * len(passes))
    points = sum(kind == "point" for kind, _ in times)
    if points:
        out["points_per_s"] = figure(points / wall, "1/s", points * len(passes))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "photoref" / "__init__.py", CONFIG) if not p.exists()]
    if missing:
        print(f"error: not a photoref checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    work_dir = WORK / args.workload
    if args.setup_only:
        module.setup(work_dir, args.seed)
        module.Workload(work_dir, args.seed)
        return 0

    setup_times, digests = [], set()
    probe, reference = speed_probe(in_process=False)
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        before = probe()
        wall, code, _ = run_child([
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only",
        ])
        if code != 0:
            print(f"error: set-up exited with code {code}", file=sys.stderr)
            return 1
        setup_times.append(wall * reference / (0.5 * (before + probe())))
        digests.add(inputs_digest(work_dir))
    workload = module.Workload(work_dir, args.seed)

    problems = []
    if len(digests) != 1:
        problems.append("set-up repeats wrote different inputs")
    record = {"environment": environment(args)}
    if args.trace:
        metrics, passes, traced = traced_run(args, workload, work_dir, record, problems)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["figures"] = figures(workload, setup_times, passes,
                                    rss_mb if workload.in_process else None)
    else:
        traced = []
        passes = []
        start = time.perf_counter()
        rss_mb = None
        while not passes or another_pass(start, len(passes), args.seconds):
            passes.append(run_pass(workload))
            if workload.in_process and rss_mb is None:
                # Peak after one pass: later passes repeat the same work, and
                # the records this harness keeps per pass would only add to it.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["figures"] = figures(workload, setup_times, passes, rss_mb)
        record["pass_walls_s"] = [pass_wall(p) for p in passes]
        metrics = {name: {key: record["figures"][name][key] for key in ("value", "unit")}
                   for name in END_TO_END}

    ops = [op for ops in passes + traced for op in ops]
    failures = [op.error for op in ops if not op.ok]
    record["failures"] = failures[:10]
    record["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    (work_dir / "result.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8"
    )
    for name, figure in record["figures"].items():
        print(f"{args.workload:14s} {name:24s} {figure['value']:.6g} {figure['unit']} (n={figure['n']})")
    for problem in problems + failures[:10]:
        print(f"{args.workload:14s} problem: {problem}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def traced_run(args, workload, work_dir, record, problems):
    """Alternate untraced and traced passes; returns per-layer metrics and both pass lists."""
    from layers import (
        deterministic_counts, layer_metrics, median_importtime, root_time, span_totals,
    )
    from tracer import Tracer, dump_spans

    probes, probe_errors = import_probes()
    tracer = Tracer()
    untraced, traced, totals, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or (another_pass(start, len(traced), args.seconds)
                         and len(traced) < MAX_TRACED_PASSES):
        plain, with_spans = run_paired_pass(workload, tracer)
        untraced.append(plain)
        traced.append(with_spans)
        spans.append(tracer.take())
        totals.append(span_totals(spans[-1]))
    dump_spans(work_dir / "spans.json", spans)

    counts = [deterministic_counts(t) for t in totals]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("deterministic counts differ between traced passes")
    untraced_wall = sum(t for _, t in op_times(untraced, min))
    traced_wall = sum(t for _, t in op_times(traced, min))
    cli_times = {"handler_s": 0.0, "process_overhead_s": 0.0}
    if not workload.in_process:
        handler = sum(min(column) for column in zip(
            *[[op.extra["handler_s"] for op in p] for p in untraced]))
        cli_times = {"handler_s": handler, "process_overhead_s": untraced_wall - handler}
    layer = layer_metrics(
        totals, median_importtime(probes, probe_errors), cli_times,
        traced_wall / untraced_wall - 1.0,
    )
    record["deterministic_counts"] = counts[0]
    record["samples"] = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                         "import_probes": len(probes)}
    record["self_time_check"] = {
        "sum_of_self_s": statistics.fmean(
            sum(v for k, v in t.items() if k.endswith(".self_s")) for t in totals),
        "root_spans_s": statistics.fmean(root_time(s) for s in spans),
        "traced_pass_wall_s": statistics.fmean(pass_wall(p) for p in traced),
        "untraced_pass_wall_s": statistics.fmean(pass_wall(p) for p in untraced),
    }
    metrics = {
        name: {"value": int(value) if unit in ("count", "B") and float(value).is_integer() else value,
               "unit": unit}
        for name, (value, unit) in layer.items()
    }
    return metrics, untraced, traced


if __name__ == "__main__":
    sys.exit(main())
