#!/usr/bin/env python3
"""Benchmark for hwp4m: four workloads, end-to-end metrics, and a traced
per-layer run.  Standard library only, one process, no threads.

Run it from the repository root; it imports hwp4m from ``src/`` of the same
tree and refuses any other copy:

    python3 perfbench/run.py --workload sweep120 --seed 1 --seconds 5 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object whose
``metrics`` are the gated end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced pass.  The line before it is the full record:
the environment, every metric with its unit and workload, and the digests of
each pass.  ``--out FILE`` also writes that record to FILE.  README.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUPS = 3
MODULES = ("composer", "search", "outer", "model", "verifier", "cli")

# The metrics of the final line; every workload reports all of them.
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
PER_LAYER = (
    "verify.self_s", "verify.accept_s", "verify.share", "verify.calls", "verify.edges",
    "canonicalize.self_s", "canonicalize.factors", "search.nodes", "cache.hits",
    "plan.calls", "trace.overhead", "repo.src_lines",
)

# The reference computation the sampler times: edge accounting over a few
# small cycles, the kind of work hwp4m spends its time on, so that it slows
# down with the machine the way hwp4m does.  REFERENCE_S is roughly its mean
# duration on a 2-core x86_64 sandbox with Python 3.11.7.
_REFERENCE_CYCLES = [tuple((i * 5 + j * 3) % 97 for j in range(5)) for i in range(24)]
REFERENCE_S = 0.22e-3
SAMPLE_EVERY_S = 0.02
SMOOTH = 8  # ticks averaged into the current speed


def _reference_work() -> list:
    enabled = gc.isenabled()
    gc.disable()  # a collection here would time the workload's heap, not the machine
    seen: dict = {}
    for _ in range(3):
        for cyc in _REFERENCE_CYCLES:
            n = len(cyc)
            for i in range(n):
                u, w = cyc[i], cyc[(i + 1) % n]
                edge = (u, w) if u < w else (w, u)
                seen[edge] = seen.get(edge, 0) + 1
    if enabled:
        gc.enable()
    return sorted(seen)


class Sampler:
    """A clock that runs at the reference speed.

    The machine's speed drifts by tens of percent within minutes when other
    tenants load it.  Every SAMPLE_EVERY_S seconds, on SIGALRM, the sampler
    times the reference computation; the wall time since the previous tick
    is counted as that stretch times REFERENCE_S / the mean duration of the
    last SMOOTH measurements.  The mean smooths single slow measurements,
    and stretches that one long C call (a large json.loads) makes longer.
    `now` therefore advances by what the time would have been at the
    reference speed, and leaves out the sampler's own work.  In a traced
    pass each tick is a span of its own, so no layer's self time holds it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.tracer: tracing.Tracer | None = None
        self._virtual = 0.0
        self._last = time.perf_counter()
        self._recent = [REFERENCE_S] * SMOOTH

    def _tick(self, signum, frame):
        tracer = self.tracer
        span = tracer.begin("sampler") if tracer is not None else None
        start = time.perf_counter()
        _reference_work()
        end = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
        elapsed = end - start
        self._recent = self._recent[1:] + [elapsed]
        self._virtual += (start - self._last) * self._speed()
        self._last = end
        self.samples.append(elapsed)
        self.spent += elapsed

    def _speed(self) -> float:
        return REFERENCE_S * SMOOTH / sum(self._recent)

    def now(self) -> float:
        """Reference-speed seconds since the sampler was created."""
        while True:  # retry if a tick lands between the reads
            ticks = len(self.samples)
            value = self._virtual + (time.perf_counter() - self._last) * self._speed()
            if len(self.samples) == ticks:
                return value

    def start(self):
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("bytes", "B"),
                         (".share", "ratio"), (".overhead", "ratio"), ("_lines", "lines")):
        if name.endswith(suffix):
            return unit
    return "count"


class Run:
    """State of one benchmark run: the loaded package, the tracer of the
    current pass, and every check's outcome."""

    def __init__(self, seed: int, workdir: Path, sampler: Sampler):
        self.seed = seed
        self.workdir = workdir
        self.sampler = sampler
        self.setups_wall: list[float] = []
        self.pass_wall = 0.0
        self.pkg = None
        self.own_verify = None
        self.undo: list[tuple] = []
        self.missing: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}  # output digest per operation, first pass
        self.pass_digests: dict[str, str] = {}

    @property
    def tracer(self) -> tracing.Tracer | None:
        """The tracer of the current traced pass or set-up, shared with the
        sampler."""
        return self.sampler.tracer

    @tracer.setter
    def tracer(self, tracer: tracing.Tracer | None):
        self.sampler.tracer = tracer

    def load(self):
        """Import hwp4m afresh from src/: memo, block caches and every other
        in-process cache start empty, as in a new process."""
        for name in [n for n in sys.modules if n == "hwp4m" or n.startswith("hwp4m.")]:
            del sys.modules[name]
        top = importlib.import_module("hwp4m")
        if Path(top.__file__).resolve().parent != SRC / "hwp4m":
            raise ImportError(f"hwp4m was imported from {top.__file__}, not from {SRC}")
        pkg = SimpleNamespace(**{m: importlib.import_module(f"hwp4m.{m}") for m in MODULES})
        self.own_verify = pkg.verifier.verify_solution
        if self.tracer is not None:
            undo, missing = tracing.install(pkg, self.tracer)
            self.undo += undo
            self.missing.update(missing)
        self.pkg = pkg
        return pkg

    def fail(self, key, why: str):
        self.failures.append(f"{key}: {why}")

    def op(self, key, fn, samples: list[float]):
        """Run one timed operation; a raised exception is a failed operation."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.request = str(key)
            span = tracer.begin("op")
        sampler = self.sampler
        spent, wall, start = sampler.spent, time.perf_counter(), sampler.now()
        try:
            value = fn()
        except Exception as exc:  # recorded as a failure; the run goes on
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = sampler.now() - start
            self.pass_wall += time.perf_counter() - wall - (sampler.spent - spent)
            if tracer is not None:
                tracer.end(span)
                tracer.request = None
        samples.append(elapsed)
        return value

    def verified_rs(self, sol, request) -> str | None:
        """The benchmark's own verify_solution call; None when it agrees."""
        report = self.own_verify(sol)
        if not report.ok:
            return report.summary()[:200]
        if (report.r_found, report.s_found) != tuple(request[2:]):
            return f"found r, s = {report.r_found}, {report.s_found}"
        return None

    def check_artifact(self, key, data: bytes, verify=None):
        """The first output of an operation is verified; every later one
        must have the same bytes."""
        key = str(key)
        digest = hashlib.sha256(data).hexdigest()
        self.pass_digests[key] = digest
        if key not in self.reference:
            problem = verify() if verify is not None else None
            if problem:
                self.fail(key, problem)
            else:
                self.reference[key] = digest
        elif self.reference[key] != digest:
            self.fail(key, "output bytes differ from the first pass")

    def time_setup(self, setup) -> float:
        """Set-up time at the reference speed."""
        gc.collect()
        sampler = self.sampler
        spent, wall, start = sampler.spent, time.perf_counter(), sampler.now()
        setup()
        self.setups_wall.append(time.perf_counter() - wall - (sampler.spent - spent))
        return sampler.now() - start

    def one_pass(self, workload, traced: bool) -> dict:
        gc.collect()
        self.pass_digests = {}
        self.tracer = tracing.Tracer() if traced else None
        if traced:
            self.undo, missing = tracing.install(self.pkg, self.tracer)
            self.missing.update(missing)
        self.pass_wall = 0.0
        samples: dict[str, list[float]] = {}
        try:
            workload.run_pass(samples)
        finally:
            tracing.restore(self.undo)
            self.undo = []
        pass_s = sum(sum(v) for v in samples.values())
        speed = pass_s / self.pass_wall if self.pass_wall else 1.0
        result = {
            "samples": samples,
            "speed": speed,
            "wall_s": self.pass_wall,
            "pass_s": pass_s,
            "digest": hashlib.sha256(
                "".join(f"{k}={self.pass_digests[k]}\n" for k in sorted(self.pass_digests)).encode()
            ).hexdigest(),
        }
        if traced:
            result["layers"] = tracing.layer_metrics(self.tracer.spans, speed)
            result["layers"]["cache.files"] = workload.cache_files()
            self.tracer = None
        return result


def traced_setup(run: Run, workload) -> tuple[float, dict]:
    run.tracer = tracing.Tracer()
    try:
        elapsed = run.time_setup(workload.setup)
    finally:
        tracing.restore(run.undo)
        run.undo = []
    layers = tracing.layer_metrics(run.tracer.spans, elapsed / run.setups_wall[-1])
    run.tracer = None
    return elapsed, layers


def measure(run: Run, workload, seconds: float, trace: bool) -> dict:
    workload.prime()
    setups, setup_layers = [], None
    for i in range(SETUPS):
        if trace and i == SETUPS - 1:
            elapsed, setup_layers = traced_setup(run, workload)
        else:
            elapsed = run.time_setup(workload.setup)
        setups.append(elapsed)

    baseline = run.one_pass(workload, traced=False) if trace else None
    needed = max(1, workload.min_passes - (1 if trace else 0))
    passes = []
    start = time.perf_counter()
    while len(passes) < needed or time.perf_counter() - start < seconds:
        passes.append(run.one_pass(workload, traced=trace))

    digests = [p["digest"] for p in ([baseline] if baseline else []) + passes]
    if len(set(digests)) != 1:
        run.fail("passes", "pass digests differ")
    workload.summarize([p["samples"] for p in passes])
    return {
        "setups": setups,
        "setup_layers": setup_layers,
        "baseline": baseline,
        "passes": passes,
        "digests": digests,
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "hwp4m").glob("*.py")))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    if not (SRC / "hwp4m" / "__init__.py").is_file():
        print(f"perfbench: no hwp4m sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # Any call that forgot its cache_dir would land here, where it is caught.
    home = workdir / "home"
    home.mkdir()
    os.environ["HOME"] = str(home)
    sampler = Sampler()
    try:
        run = Run(args.seed, workdir, sampler)
        try:
            run.load()
        except ImportError as exc:
            print(f"perfbench: cannot import hwp4m: {exc}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](run)
        sampler.start()
        result = measure(run, workload, args.seconds, bool(args.trace))
        if (home / ".cache" / "hwp4m").exists():
            run.fail("hermetic", "a call wrote to $HOME/.cache/hwp4m")
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    passes = result["passes"]
    end_to_end = {
        "setup_s": median(result["setups"]),
        "pass_s": median([p["pass_s"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **workload.extra,
        "ops": run.attempted,
        "failed_ops": len(run.failures),
        "passes": len(passes),
    }
    per_layer, setup_layers = {}, {}
    if args.trace:
        names = passes[0]["layers"]
        per_layer = {k: median([p["layers"][k] for p in passes]) for k in names}
        end_to_end["untraced_pass_s"] = result["baseline"]["pass_s"]
        per_layer["trace.overhead"] = end_to_end["pass_s"] / end_to_end["untraced_pass_s"] - 1
        per_layer["repo.src_lines"] = src_lines()
        setup_layers = result["setup_layers"]
    rows = [("end_to_end", k, v) for k, v in end_to_end.items()]
    rows += [("per_layer", k, v) for k, v in per_layer.items()]
    rows += [("setup_layer", k, v) for k, v in setup_layers.items()]

    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "repo.src_lines": src_lines(),
        },
        "metrics": [
            {"workload": args.workload, "scope": scope, "name": name,
             "value": value, "unit": unit_of(name)}
            for scope, name, value in rows
        ],
        "reference_s": REFERENCE_S,
        "setups_s": result["setups"],
        "setups_wall_s": run.setups_wall,
        "passes_s": [p["pass_s"] for p in passes],
        "passes_wall_s": [p["wall_s"] for p in passes],
        "passes_speed": [p["speed"] for p in passes],
        "pass_digests": result["digests"],
        "search_nodes": getattr(workload, "searches", [])[:1],
        "trace_targets_missing": sorted(run.missing),
        "failures": run.failures[:50],
    }
    text = json.dumps(record)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")

    chosen = per_layer if args.trace else end_to_end
    names = PER_LAYER if args.trace else END_TO_END
    final = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": chosen[n], "unit": unit_of(n)} for n in names},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
