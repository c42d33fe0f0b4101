"""The four workloads.  Each set-up and pass works on a freshly imported
hwp4m (see `Run.load`), so in-process caches start empty exactly where a
new process would start them empty.

An operation is one call a user would make (a build plus its encoding, one
`hwp4m verify`, one search).  Only operations are timed; checking their
outputs happens outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from pathlib import Path
from statistics import median, quantiles

from tracing import replace_everywhere

HERE = Path(__file__).resolve().parent

LARGE_REQUESTS = (
    (1604, 401, 5, 796),  # odd_r_odd_t: Cm blocks over a Walecki outer
    (1604, 401, 6, 795),  # even_r_switch: switch blocks
    (1200, 3, 599, 0),    # all_c4: C4 blocks over walecki_even(300)
)

DOC_SOLUTIONS = ((804, 201, 5, 396), (804, 201, 6, 395), (404, 101, 3, 198), (404, 101, 4, 197))
DOC_BLOCK_M = 101
DOC_BLOCK_KINDS = ("c4", "cm", "mixed", "switch")
MUTANTS_PER_KIND = 3  # 4 kinds x 3 = 12 mutants of the v = 404 documents

COLD_REQUESTS = (
    (36, 3, 5, 12),   # outer (9, 3)
    (40, 5, 3, 16),   # outer (10, 5)
    (60, 5, 5, 24),   # outer (15, 5)
    (56, 7, 3, 24),   # outer (14, 7)
    (48, 3, 10, 13),  # the searched v = 12 seed
)


def truth_table_v120():
    """Every (v, m, r, s) of the v <= 120 table of acceptance test 09."""
    for m in range(3, 31, 2):
        for t in range(1, 120 // (4 * m) + 1):
            v = 4 * m * t
            total = (v - 2) // 2
            for r in range(total + 1):
                yield v, m, r, total - r


class Workload:
    """One workload; `Run` drives the set-ups and the timed passes."""

    min_passes = 1

    def __init__(self, run):
        self.run = run
        self.rng = random.Random(run.seed)
        self.extra: dict[str, float] = {}  # workload-specific end-to-end metrics

    def prime(self):
        """Work done once before the set-ups."""

    def setup(self):
        raise NotImplementedError

    def run_pass(self, samples: dict[str, list[float]]):
        raise NotImplementedError

    def cache_files(self) -> int:
        return 0

    def summarize(self, passes: list[dict[str, list[float]]]):
        """Workload-specific metrics from the timed passes' samples."""

    def build_op(self, key, request, phase, samples, **kwargs):
        """Build and encode one request as a timed operation; check it."""
        composer, model = self.run.pkg.composer, self.run.pkg.model
        out = self.run.op(
            key, lambda: _build_encode(composer, model, request, **kwargs), samples[phase]
        )
        if out is not None:
            sol, data = out
            self.run.check_artifact(key, data, lambda: self.run.verified_rs(sol, request))
            return data
        return None


def _build_encode(composer, model, request, **kwargs):
    sol = composer.build(*request, **kwargs)
    return sol, model.encode_solution(sol)


# ============================================================
# sweep120: the researcher's sweep, many small builds
# ============================================================

class Sweep120(Workload):
    """Plan the whole v <= 120 table, then build and encode the frozen list
    of constructive requests with a warm cache."""

    # The set-up leaves the disk cache and the memo warm.  The first pass
    # still builds a few blocks of small m for the block cache, well under
    # 1% of a pass, so it is timed like the second instead of being an
    # untimed warm-up.
    min_passes = 2

    def __init__(self, run):
        super().__init__(run)
        frozen = [tuple(q) for q in json.loads((HERE / "sweep120.json").read_text())]
        groups: dict[tuple, tuple] = {}
        for q in frozen:
            groups.setdefault(q[:2], q)
        self.groups = list(groups.values())
        self.requests = frozen[:]
        self.rng.shuffle(self.requests)
        self.table = list(truth_table_v120())
        self.cache = run.workdir / "cache"

    def prime(self):
        # A cold set-up: the searches fill the disk cache, so the set-ups
        # that are timed start with a warm disk cache and an empty memo.
        self.extra["cold_setup_s"] = self.run.time_setup(self.setup)

    def setup(self):
        build = self.run.load().composer.build
        for request in self.groups:  # one request per (v, m) resolves its ingredients
            build(*request, cache_dir=str(self.cache))

    def run_pass(self, samples):
        plan = self.run.pkg.composer.plan
        self.run.op("plan-v120", lambda: [plan(*q) for q in self.table], samples.setdefault("plan", []))
        samples.setdefault("build", [])
        for request in self.requests:
            self.build_op(request, request, "build", samples, cache_dir=str(self.cache))

    def cache_files(self):
        return len(list(self.cache.iterdir()))

    def summarize(self, passes):
        builds = [t for p in passes for t in p["build"]]
        self.extra["requests_per_s"] = len(builds) / sum(builds)
        self.extra["build_p50_ms"] = 1e3 * median(builds)
        self.extra["build_p98_ms"] = 1e3 * quantiles(builds, n=100, method="inclusive")[97]
        self.extra["build_samples"] = len(builds)


# ============================================================
# large: three assembly shapes at v = 1604 and v = 1200
# ============================================================

class Large(Workload):
    def __init__(self, run):
        super().__init__(run)
        self.requests = list(LARGE_REQUESTS)
        self.rng.shuffle(self.requests)
        self.cache = run.workdir / "cache"

    def setup(self):
        self.run.load()

    def run_pass(self, samples):
        samples.setdefault("build", [])
        for request in self.requests:
            self.build_op(request, request, "build", samples, cache_dir=str(self.cache))

    def summarize(self, passes):
        self.extra["large_build_s"] = median([sum(p["build"]) for p in passes])


# ============================================================
# verify_docs: the read path through `hwp4m verify`
# ============================================================

def mutate(model, sol, rng: random.Random, kind: int):
    """The four single edits of acceptance test 10."""
    replace = dataclasses.replace
    if kind == 0:  # delete a matching edge
        edges = list(sol.one_factor.edges)
        edges.pop(rng.randrange(len(edges)))
        return replace(sol, one_factor=model.one_factor(edges))
    if kind == 1:  # duplicate a factor edge into the matching
        f = sol.factors[rng.randrange(len(sol.factors))]
        cyc = f.cycles[rng.randrange(len(f.cycles))]
        i = rng.randrange(len(cyc))
        extra = (cyc[i], cyc[(i + 1) % len(cyc)])
        return replace(sol, one_factor=model.one_factor(list(sol.one_factor.edges) + [extra]))
    fi = rng.randrange(len(sol.factors))
    f = sol.factors[fi]
    cycles = list(f.cycles)
    ci = rng.randrange(len(cycles))
    if kind == 2:  # swap two vertices inside one cycle
        cyc = list(cycles[ci])
        i, j = rng.sample(range(len(cyc)), 2)
        cyc[i], cyc[j] = cyc[j], cyc[i]
        cycles[ci] = tuple(cyc)
    else:  # drop a whole cycle
        cycles.pop(ci)
    factors = list(sol.factors)
    factors[fi] = model.two_factor(cycles, f.n, f.cycle_length)
    return replace(sol, factors=tuple(factors))


class VerifyDocs(Workload):
    def __init__(self, run):
        super().__init__(run)
        self.dir = run.workdir / "docs"
        self.docs: list[tuple[str, Path, bool, tuple | None]] = []
        self.valid_digest = None

    def setup(self):
        pkg = self.run.load()
        self.dir.mkdir(exist_ok=True)
        rng = random.Random(self.run.seed)
        docs, valid = [], hashlib.sha256()
        bases = []
        for request in DOC_SOLUTIONS:
            sol = pkg.composer.build(*request, cache_dir=str(self.run.workdir / "cache"))
            data = pkg.model.encode_solution(sol)
            path = self.dir / ("sol-%d-%d-%d-%d.json" % request)
            path.write_bytes(data)
            docs.append((path.name, path, True, request[2:]))
            valid.update(data)
            if request[0] == 404:
                bases.append((request, sol, data))
        for kind in DOC_BLOCK_KINDS:
            path = self.dir / f"block-{kind}-{DOC_BLOCK_M}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg.cli.main(["block", "--m", str(DOC_BLOCK_M), "--kind", kind, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"hwp4m block --kind {kind} exited {code}")
            docs.append((path.name, path, True, None))
            valid.update(path.read_bytes())
        for kind in range(4):
            for j in range(MUTANTS_PER_KIND):
                request, sol, data = bases[(kind + j) % len(bases)]
                mutant = data
                while mutant == data:  # skip edits that are canonically no-ops
                    mutant = pkg.model.encode_solution(mutate(pkg.model, sol, rng, kind))
                path = self.dir / f"mutant-{kind}-{j}.json"
                path.write_bytes(mutant)
                docs.append((path.name, path, False, None))
        if self.valid_digest not in (None, valid.hexdigest()):
            self.run.fail("setup", "documents differ between set-ups")
        self.valid_digest = valid.hexdigest()
        self.extra["document_bytes"] = sum(p.stat().st_size for _, p, _, _ in docs)
        self.docs = docs
        self.rng.shuffle(self.docs)

    def run_pass(self, samples):
        samples.setdefault("verify", [])
        cli = self.run.pkg.cli
        for name, path, expect_ok, rs in self.docs:
            out = self.run.op(name, lambda: _cli_verify(cli, path), samples["verify"])
            if out is None:
                continue
            code, text = out
            try:
                report = json.loads(text)
            except ValueError:
                self.run.fail(name, f"verify printed no JSON: {text[:80]!r}")
                continue
            if (code, report.get("ok")) != ((0, True) if expect_ok else (1, False)):
                self.run.fail(name, f"exit {code}, ok={report.get('ok')}, expected ok={expect_ok}")
            elif rs is not None and (report["r_found"], report["s_found"]) != tuple(rs):
                self.run.fail(name, f"found r, s = {report['r_found']}, {report['s_found']}")
            self.run.check_artifact(name, text.encode())

    def summarize(self, passes):
        self.extra["verify_docs_s"] = median([sum(p["verify"]) for p in passes])
        self.extra["documents"] = len(self.docs)


def _cli_verify(cli, path: Path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--in", str(path), "--report", "json"])
    return code, buf.getvalue()


# ============================================================
# search_cold: outer searches, cache writes and cache reads
# ============================================================

class SearchCold(Workload):
    min_passes = 2  # search node counts must repeat from one pass to the next

    def __init__(self, run):
        super().__init__(run)
        self.requests = list(COLD_REQUESTS)
        self.rng.shuffle(self.requests)
        self.passes = 0
        self.searches: list[dict] = []
        self.cache = None

    def setup(self):
        self.run.load()

    def _load_with_probe(self, searches: dict):
        """Fresh import (empty memo), recording every search's status and nodes."""
        pkg = self.run.load()
        solve = pkg.search.solve

        def probed(instance, *args, **kwargs):
            outcome = solve(instance, *args, **kwargs)
            searches.setdefault(instance.name, []).append((outcome.status, outcome.nodes))
            return outcome

        replace_everywhere(solve, probed)
        return pkg

    def run_pass(self, samples):
        for phase in ("cold", "unsat", "warm"):
            samples.setdefault(phase, [])
        self.cache = self.run.workdir / f"cache-{self.passes}"
        self.passes += 1
        searches: dict = {}
        self._load_with_probe(searches)
        cold = {}
        for request in self.requests:
            cold[request] = self.build_op(("cold",) + request, request, "cold", samples,
                                          cache_dir=str(self.cache))
        search = self.run.pkg.search
        outcome = self.run.op(
            "unsat-c4-cm3-m3", lambda: search.solve(search.c4_cm3_split_instance(3)), samples["unsat"]
        )
        if outcome is not None and outcome.status != "unsat":
            self.run.fail("unsat-c4-cm3-m3", f"status {outcome.status}")

        self._load_with_probe(searches)  # memo emptied, disk cache kept
        for request in self.requests:
            key = ("warm",) + request
            data = self.build_op(key, request, "warm", samples, cache_dir=str(self.cache),
                                 time_limit=0.0)
            if data is not None and data != cold[request]:
                self.run.fail(key, "warm reload differs from the cold build")

        if self.searches and searches != self.searches[0]:
            self.run.fail("search", f"node counts changed: {searches} vs {self.searches[0]}")
        self.searches.append(searches)

    def cache_files(self):
        return len(list(self.cache.iterdir()))

    def summarize(self, passes):
        self.extra["cold_build_s"] = median([sum(p["cold"]) for p in passes])
        self.extra["unsat_s"] = median([sum(p["unsat"]) for p in passes])
        self.extra["warm_reload_s"] = median([sum(p["warm"]) for p in passes])


WORKLOADS = {
    "sweep120": Sweep120,
    "large": Large,
    "verify_docs": VerifyDocs,
    "search_cold": SearchCold,
}
