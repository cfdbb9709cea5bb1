"""Paths, operation records and small helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "example.yaml"
WORK = Path(__file__).resolve().parent / "_work"

# Speed probes.  The host gives this virtual machine's CPUs a speed that
# drifts by up to about 1.6x over seconds to minutes, whatever runs inside
# it, so every timed operation sits between two runs of a fixed probe, and
# its time is scaled by the probe's reference time over the mean of those
# two: the operation's time at a fixed machine speed.  The references are
# the probes' median times on the 2-vCPU Intel Xeon virtual machine the
# benchmark was defined on (Python 3.11, numpy 2.4), so scaled times are in
# seconds of that machine.
COMPUTE_PROBE_REFERENCE_S = 0.0033
PROCESS_PROBE_REFERENCE_S = 0.060
_PROBE_X = np.linspace(0.0, 1.0, 1201)
_PROBE_A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])


def compute_probe() -> float:
    """Seconds for Python calls around small numpy operations, as photoref does.

    The probe for operations that run in the benchmark process.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(100):
        y = np.sin(_PROBE_X * (1.0 + i * 1e-3)) ** 2
        z = 1.0 / (1.0 + 3.0 * y) - np.exp(-_PROBE_X)
        acc += float(z @ z) + float(np.linalg.solve(_PROBE_A + i * np.eye(3), z[:3]).sum())
        for j in range(20):
            acc += math.sqrt(j)
    return time.perf_counter() - start


def process_probe() -> float:
    """Seconds to start and end a bare ``python -c pass``.

    The probe for operations that are child processes.  The log time of a
    CLI process correlated 0.5-0.8 with this probe's next to it, and -0.1
    to 0.2 with the compute probe's, which runs on whichever vCPU the
    benchmark process happens to be on (pinned to the child's vCPU, 0.7).
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


def speed_probe(in_process: bool) -> tuple[Callable[[], float], float]:
    """The probe for operations in the benchmark process or in a child, and its reference."""
    if in_process:
        return compute_probe, COMPUTE_PROBE_REFERENCE_S
    return process_probe, PROCESS_PROBE_REFERENCE_S


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources first on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


@dataclass
class Op:
    """One timed operation: a CLI process, a read-and-fit, a model point or a write."""

    kind: str
    wall_s: float
    error: str | None = None
    fit_ok: bool | None = None  # None: the operation has no fit with a stated tolerance
    extra: dict = field(default_factory=dict)
    scale: float | None = None  # probe reference time over the probe times next to it

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def scaled_s(self) -> float:
        """The time at the probe's reference speed; the raw time if unprobed."""
        return self.wall_s if self.scale is None else self.wall_s * self.scale


def measure(step, tracer=None, harness_span: bool = True) -> Op:
    """Run one step ``(kind, run, check)`` and time ``run`` alone.

    ``run(tracer)`` does the timed work; ``check(result, tracer)`` runs after
    it, untimed, and returns ``(error, fit_ok, extra)``.  A raised exception
    fails the operation and the run goes on.  With a tracer and
    ``harness_span``, the timed work sits in a ``bench.<kind>`` span, so the
    harness's own time between photoref calls is a layer too.
    """
    kind, run, check = step
    result, error = None, None
    start = time.perf_counter()
    try:
        if tracer is not None and harness_span:
            with tracer.span(f"bench.{kind}"):
                result = run(tracer)
        else:
            result = run(tracer)
    except Exception as exc:  # a failed operation is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if error is not None:
        return Op(kind, wall, error)
    error, fit_ok, extra = check(result, tracer)
    return Op(kind, wall, error, fit_ok, extra)


def stratified(rng, n: int):
    """n values in [0, 1), one in each of n equal strata, in random order.

    Latin-hypercube sampling: every seed covers the whole range of each
    input property, so the batches of different seeds have the same mix.
    """
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def json_finite(value) -> bool:
    """True when every number in a JSON-like tree is finite."""
    if isinstance(value, dict):
        return all(json_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(json_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True
