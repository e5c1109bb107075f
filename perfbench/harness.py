"""Measurement machinery shared by every workload: spans, the op log,
the host-speed reference, latency statistics, the pass loop and the
import probe.

Nothing here imports selberg3; workloads call into the program and wrap
each call in `Tracer.span`, so the program itself carries no tracing code.

Timings are reported at reference speed.  On a shared 2-core virtual
machine the same Python code runs up to twice as slow from one minute to
the next (other tenants share the cores), which moves raw wall times of
identical runs by 20-50%.  So every op is bracketed by a fixed stdlib-only
loop (`reference_time`), which is also sampled every SAMPLE_EVERY_S while
the op runs (in the child's own process for a CLI command), and the op's
wall time, less the sampling, is scaled by REFERENCE_S over the mean of
those reference times.  A change to the program moves the scaled time in
proportion to its wall time; a change in host speed moves both the op and
the reference and cancels.  Raw wall times are kept next to the scaled
ones.
"""
from __future__ import annotations

import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

SETUP = "setup"


class CheckFailed(Exception):
    """An op ran but its output failed a correctness check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def within(label: str, error: float, tol: float) -> None:
    """Fail unless error <= tol; a NaN error fails too."""
    check(error <= tol, f"{label}: error {error:.3e} exceeds {tol:.1e}")


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int
    pass_id: object          # pass index, or SETUP


class Tracer:
    """In-memory spans around calls into the program's layers.

    Disabled, `span` records nothing; a workload runs the same code with
    tracing on or off.  `note` records a per-op count or error at the same
    boundary as the span it belongs to.
    """

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.pass_id: object = SETUP
        self.spans: list[Span] = []
        self.notes: list[tuple] = []       # (name, value, op_id, pass_id)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op_id,
                   self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def note(self, name: str, value: float) -> None:
        if self.enabled:
            self.notes.append((name, value, self.op_id, self.pass_id))

    def self_times(self, scales: dict, default: float = 1.0) -> dict:
        """{pass_id: {span name: self time}}; self time is the span's
        duration minus the time its child spans cover (children of one
        span never overlap: the run is single-threaded), scaled by the
        reference factor of the span's op (`default` outside ops)."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict = {}
        for sp, covered in zip(self.spans, child_time):
            per = out.setdefault(sp.pass_id, {})
            own = (sp.end - sp.start - covered) * scales.get(sp.op_id, default)
            per[sp.name] = per.get(sp.name, 0.0) + own
        return out

    def dump(self) -> dict:
        return {"spans": [sp.__dict__ for sp in self.spans],
                "notes": [dict(zip(("name", "value", "op_id", "pass_id"), n))
                          for n in self.notes]}


# ---------------------------------------------------------------------------
# ops


REFERENCE_S = 0.02      # reference loop time that defines reference speed


def reference_time() -> float:
    """Seconds the host takes now for a fixed loop of tuple arithmetic and
    dict updates: the same kind of work as the program's exact group
    arithmetic, and none of the program's code."""
    t0 = time.perf_counter()
    seen: dict = {}
    a = (1, 2, 3, 4, 5, 6, 7, 8)
    for i in range(40000):
        a = (a[1], a[2], a[3], a[4], a[5], a[6], a[7], (a[0] * 31 + i) % 1009)
        key = hash(a) & 1023
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


SAMPLE_EVERY_S = 0.5     # reference sampling period inside long calls


def sampled(fn: Callable[[], object]) -> tuple:
    """(fn's result, its wall seconds less sampling, reference samples).

    A SIGALRM timer measures the reference every SAMPLE_EVERY_S seconds
    while fn runs, in the same thread and so on the same core, between two
    bytecodes of fn.  A call made while another one samples is not
    sampled itself; the enclosing call's samples cover it.
    """
    inside: list = []
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        t0 = time.perf_counter()
        return fn(), time.perf_counter() - t0, inside

    def tick(signum, frame):
        inside.append(reference_time())

    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, old)
    return result, wall - sum(inside), inside


def stop_sampling() -> None:
    """Stop the reference timer for the rest of the current call, which is
    about to wait on a child: sampling then would only load a core the
    child may need."""
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


@dataclass(frozen=True)
class Timing:
    """An op's wall time and reference factor, measured in a child."""

    wall: float
    scale: float


@dataclass
class OpRecord:
    op_id: int
    pass_id: object
    wall: float              # seconds
    scale: float             # reference factor; wall * scale is reported
    timed: bool              # enters op_p50_ms and op_tail_ms


@dataclass
class OpLog:
    """Wall time, reference factor and outcome of every op; a failing op
    is counted once and the run goes on."""

    tracer: Tracer
    records: list = field(default_factory=list)
    references: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    _next_id: int = 0

    def scaled(self, fn: Callable[[], object]) -> tuple:
        """(fn's result, wall seconds, reference factor) for one call.

        The factor uses the references measured just before and just after
        the call and those sampled while it ran; the sampling time is taken
        out of the wall time.  The reference measured after a call also
        serves as the one before the next call.  fn may return a Timing
        measured elsewhere (in a child process); it then replaces both.
        """
        if not self.references:
            self.references.append(reference_time())
        before = self.references[-1]
        result, wall, inside = sampled(fn)
        self.references.append(reference_time())
        if isinstance(result, Timing):
            return result, result.wall, result.scale
        refs = [before, *inside, self.references[-1]]
        return result, wall, REFERENCE_S * len(refs) / sum(refs)

    def run(self, kind: str, fn: Callable[[], None], *, timed: bool = True) -> bool:
        self._next_id += 1
        self.tracer.op_id = self._next_id

        ok = True

        def guarded():
            nonlocal ok
            try:
                with self.tracer.span("op." + kind):
                    return fn()
            except Exception as exc:      # an op must never end the run
                ok = False
                last = traceback.extract_tb(exc.__traceback__)[-1]
                self.failures.append(
                    f"{kind}: {type(exc).__name__}: {exc} "
                    f"({os.path.basename(last.filename)}:{last.lineno})")
                return None

        _, wall, scale = self.scaled(guarded)
        self.records.append(OpRecord(self._next_id, self.tracer.pass_id, wall,
                                     scale, timed))
        self.tracer.op_id = 0
        self.attempted += 1
        self.failed += not ok
        return ok

    def pass_time(self, pass_id, raw: bool = False) -> float:
        return sum(r.wall * (1.0 if raw else r.scale)
                   for r in self.records if r.pass_id == pass_id)


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, samples beyond it) for the highest percentile with at
    least ten samples beyond it.  Below 20 samples that percentile would
    lie under the median, so the maximum (percentile 100, none beyond) is
    used instead."""
    if n < 20:
        return 100.0, 0
    return 100.0 * (n - 10) / n, 10


def latency_stats(latencies: list) -> dict:
    xs = sorted(latencies)
    pct, beyond = tail_percentile(len(xs))
    tail = xs[-1] if beyond == 0 else xs[len(xs) - 1 - beyond]
    return {"p50": statistics.median(xs), "tail": tail,
            "tail_percentile": round(pct, 2), "samples_beyond": beyond,
            "samples": len(xs)}


# ---------------------------------------------------------------------------
# passes


def measure(seconds: float, run_pass: Callable[[int, bool], None],
            log: OpLog, traced_run: bool, min_passes: int = 1) -> list[bool]:
    """Repeat whole passes until `seconds` at reference speed have been
    measured and at least `min_passes` have run.

    Counting reference-speed time, not wall time, keeps the number of
    passes, and so the sample counts, the same from run to run whatever
    the host's speed.  A traced run alternates untraced and traced
    passes, starting untraced, so both kinds are measured under the same
    conditions; it makes at least one of each.  Returns whether each pass
    was traced.
    """
    traced_flags: list[bool] = []
    measured = 0.0
    while True:
        k = len(traced_flags)
        traced = traced_run and k % 2 == 1
        log.tracer.enabled = traced
        log.tracer.pass_id = k
        run_pass(k, traced)
        traced_flags.append(traced)
        measured += log.pass_time(k)
        if (measured >= seconds and len(traced_flags) >= min_passes
                and (not traced_run or len(traced_flags) >= 2)):
            break
    log.tracer.enabled = False
    return traced_flags


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB


# ---------------------------------------------------------------------------
# child interpreters

PROBE = ("import importlib, sys, time\n"
         "t = time.perf_counter()\n"
         "for m in sys.argv[1:]:\n"
         "    importlib.import_module(m)\n"
         "print(time.perf_counter() - t)\n")


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def import_probe(modules: list, src_dir: str, cwd: str) -> float:
    """Seconds a fresh interpreter spends importing `modules`."""
    stop_sampling()
    proc = subprocess.run([sys.executable, "-c", PROBE, *modules],
                          cwd=cwd, env=child_env(src_dir), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])
