#!/usr/bin/env python3
"""germkit benchmark: seeded workloads through ``germkit.cli.main``.

Run from the repository root:

    python3 germbench/run.py --workload heis-split --seed 0 --seconds 20 --trace 0
    python3 germbench/run.py --workload all

Every job calls the real entry point in this process, with stdout and
stderr captured, and its answer is checked (exit code, verdicts, the
obstruction shape recorded in ``expected.json`` and, for the default seed,
a digest of the obstruction polynomials).  Set-up imports germkit from
``src/``, writes the seeded inputs, validates them with ``germkit check``
and, for germ-readback, writes the germ files; it is repeated (see
SETUP_MIN) and ``setup_s`` is the median.  The timed part repeats the
workload's jobs in passes for ``--seconds``; ``wall_s`` and ``cpu_s`` sum
each job's median over the passes.

The host's speed drifts by up to a factor of two over seconds to minutes
(see README.md), so every end-to-end time is host-normalised: with
``--trace 0`` a timer signal runs a short host probe (probes.py, no germkit
code) every 0.1 s in this thread, and each job's and each set-up's time,
less the probes inside it, is divided by the mean probe while it ran and
multiplied by the probe's reference time.  Times therefore read as seconds
on a host where the probe takes ``PROBE_REFERENCE_S``.

With ``--trace 1`` passes alternate between untraced and traced (see
spans.py); the run reports per-layer metrics, layer microbenchmarks and the
host probe instead of the end-to-end metrics, and checks that traced and
untraced passes give the same answers.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import inputs
import probes
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed
# (at most SETUP_MAX times): the cheap set-ups take about 0.2 s, too short
# for a median of three to be steady on a host whose speed changes from one
# second to the next.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 3.0
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Job:
    name: str  # key of expected.json
    kind: str  # check | pipeline | kuranishi | mc-check
    argv: list[str]
    output: Path | None = None  # kuranishi --json file


@dataclass
class Result:
    wall: float
    cpu: float
    start: float  # time.monotonic(), the clock of probes.HostSampler
    end: float
    report: dict | None = field(default=None, repr=False)  # None when the job failed


# -- workloads ------------------------------------------------------------------
#
# A workload maps (seed, tiny) to its algebra files, the germ files set-up
# writes from them, and the jobs timed in each pass.  ``tiny`` picks the
# smallest rung of each ladder, for the self-test.


def _algebra_path(key: str) -> Path:
    return WORK / f"{key}.json"


def heis_split(seed: int, tiny: bool):
    ks = (1,) if tiny else (2, 3, 4)
    algebras = {f"h{2 * k + 1}": inputs.heisenberg(k, inputs.rng_for(seed, f"h{k}")) for k in ks}
    jobs = [
        Job(f"heis-split/{key}", "pipeline",
            ["pipeline", str(_algebra_path(key)), "--target", "sl2", "--strategy", "metric", "--json"])
        for key in algebras
    ]
    return algebras, [], jobs


def filiform_series(seed: int, tiny: bool):
    ns = (4,) if tiny else (6, 7)
    algebras = {f"L{n}": inputs.filiform(n, inputs.rng_for(seed, f"L{n}")) for n in ns}
    jobs = [
        Job(f"filiform-series/{key}", "pipeline",
            ["pipeline", str(_algebra_path(key)), "--target", "gl:2", "--json"])
        for key in algebras
    ]
    return algebras, [], jobs


def solv_characters(seed: int, tiny: bool):
    ks = (1,) if tiny else (2, 3)
    algebras = {
        f"solv_h{2 * k + 1}": inputs.solvable_heisenberg(k, inputs.rng_for(seed, f"solv{k}"))
        for k in ks
    }
    jobs = [
        Job(f"solv-characters/{key}", "pipeline",
            ["pipeline", str(_algebra_path(key)), "--target", "gl:3", "--strategy", "pivot", "--json"])
        for key in algebras
    ]
    return algebras, [], jobs


def germ_readback(seed: int, tiny: bool):
    n, k = (4, 1) if tiny else (7, 3)
    pairs = ((f"L{n}", "gl:2", inputs.filiform(n, inputs.rng_for(seed, f"L{n}"))),
             (f"h{2 * k + 1}", "gl:3", inputs.heisenberg(k, inputs.rng_for(seed, f"h{k}"))))
    algebras = {key: data for key, _, data in pairs}
    germs = []
    for key, target, _ in pairs:
        germ = f"{key}x{target.replace(':', '')}"
        path = WORK / f"germ_{germ}.json"
        germs.append(Job(f"germ-readback/{germ}", "kuranishi",
                         ["kuranishi", str(_algebra_path(key)), "--target", target, "--json", str(path)],
                         output=path))
    return algebras, germs, None


def readback_jobs(seed: int, germs: list[Job], variables: dict[str, list[str]]) -> list[Job]:
    """mc-check jobs: per germ file, two flat axis points and two generic points."""
    jobs = []
    for germ in germs:
        rng = inputs.rng_for(seed, germ.name)
        names = variables[germ.name]
        for kind, make in (("axis", inputs.axis_point), ("generic", inputs.generic_point)):
            for i in range(2):
                jobs.append(Job(f"{germ.name}/{kind}{i}", "mc-check",
                                ["mc-check", str(germ.output), "--point", make(names, rng), "--json"]))
    return jobs


WORKLOADS = {
    "heis-split": heis_split,
    "filiform-series": filiform_series,
    "solv-characters": solv_characters,
    "germ-readback": germ_readback,
}


# -- answers ----------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _germ_shape(germ: dict) -> dict:
    obstructions = germ["obstructions"]
    return {
        "variables": len(germ["variables"]),
        "nonzero_polynomials": sum(1 for p in obstructions["polynomials"] if p),
        "max_degree": obstructions["max_degree"],
        "b1": len(germ["harmonic_one_forms"]),
        "b2": len(germ["harmonic_two_forms"]),
    }


def answer(job: Job, stdout: str) -> tuple[dict, object, dict]:
    """(shape, payload to digest, report) of a job that exited 0; raises CheckFailed."""
    if job.kind == "kuranishi":
        with open(job.output, encoding="utf-8") as handle:
            report = json.load(handle)
    else:
        report = json.loads(stdout)
    if job.kind == "check":
        shape = {k: report[k] for k in ("jacobi", "solvable", "nilpotent", "nu")}
        return shape, shape, report
    if job.kind == "mc-check":
        _require(report["consistent"] is True, "mc-check: not consistent")
        shape = {k: report[k] for k in ("obstructions_vanish", "residual_is_zero", "gauge_is_zero")}
        return shape, [report["obstruction_values"], report["residual"]], report
    germ = report["germ"] if job.kind == "pipeline" else report
    bound = germ["obstructions"]["degree_bound"]
    _require(bound is not None and bound["satisfied"] is True, "degree bound not satisfied")
    shape = _germ_shape(germ)
    if job.kind == "pipeline":
        stages = {s["stage"]: s for s in report["stages"]}
        _require(stages["pd_type"]["verdict"] == "pass", "pd_type verdict")
        _require(stages["degree2_cocycle_weights"]["satisfied"] is True, "cocycle weights verdict")
        shape["betti012"] = stages["germ"]["betti"][:3]
        sub = stages.get("character_subdga")
        if sub is not None:
            _require(sub["embedding_agree"] is True, "embedding_agree verdict")
            shape["sub_variables"] = sub["variables"]
    return shape, germ["obstructions"]["polynomials"], report


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- running jobs ------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs jobs through ``germkit.cli.main`` and checks their answers."""

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected
        self.cli = None
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: dict[str, str] = {}

    def import_germkit(self) -> None:
        """Fresh import of germkit from src/."""
        for name in [m for m in sys.modules if m == "germkit" or m.startswith("germkit.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        cli = importlib.import_module("germkit.cli")
        if SRC not in Path(cli.__file__).resolve().parents:
            raise SystemExit(f"germbench: germkit imported from {cli.__file__}, not from {SRC}")
        self.cli = cli

    def run(self, job: Job, tracer: spans.Tracer | None = None) -> Result:
        out, err = io.StringIO(), io.StringIO()
        rc: object = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu0 = cpu_seconds()
            start = time.monotonic()
            try:
                if tracer is None:
                    rc = self.cli.main(job.argv)
                else:
                    tracer.job = job.name
                    with tracer.span(spans.JOB_SPAN):
                        rc = self.cli.main(job.argv)
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            except Exception:  # any escape from main is a failed job, not a crash
                traceback.print_exc()
            end = time.monotonic()
            cpu = cpu_seconds() - cpu0
        self.attempted += 1
        try:
            _require(rc == 0, f"exit {rc}: {err.getvalue().strip()[-400:]}")
            _require("Traceback" not in err.getvalue(), "traceback on stderr")
            shape, payload, report = answer(job, out.getvalue())
            self._compare(job, shape, digest(payload))
        except CheckFailed as exc:
            self.failures.append(f"{job.name}: {exc}")
            report = None
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable answer
            self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            report = None
        return Result(end - start, cpu, start, end, report)

    def _compare(self, job: Job, shape: dict, got: str) -> None:
        want = self.expected.get(job.name)
        _require(want is not None, "no expectation recorded")
        _require(shape == want["shape"], f"shape {shape} != expected {want['shape']}")
        first = self.first_digest.setdefault(job.name, got)
        _require(got == first, "answer differs from this job's first pass")
        if self.seed == DEFAULT_SEED:
            _require(got == want["digest"], f"digest {got} != expected {want['digest']}")


# -- phases -------------------------------------------------------------------------


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def set_up(runner: Runner, workload: str, seed: int, tiny: bool) -> list[Job]:
    """One set-up (import, inputs, their checks, germ files); returns the timed jobs."""
    runner.import_germkit()
    algebras, germs, jobs = WORKLOADS[workload](seed, tiny)
    for key, data in algebras.items():
        write_json(_algebra_path(key), data)
    for key in algebras:
        runner.run(Job(f"{workload}/check/{key}", "check",
                       ["check", str(_algebra_path(key)), "--json"]))
    variables = {}
    for germ in germs:
        result = runner.run(germ)
        # A failed germ job is already counted; its mc-check jobs then fail too.
        variables[germ.name] = result.report["variables"] if result.report else ["t1"]
    if jobs is None:
        jobs = readback_jobs(seed, germs, variables)
    return jobs


@dataclass
class Passes:
    untraced: dict[str, list[Result]] = field(default_factory=dict)
    traced_wall: dict[str, list[float]] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)  # per traced pass
    fastest: spans.Tracer | None = None  # the traced pass with the least wall time
    fastest_wall: float = float("inf")
    count: int = 0


def one_pass(runner: Runner, jobs: list[Job], passes: Passes, traced: bool) -> None:
    if not traced:
        for job in jobs:
            # Keep the times, not the report: memory must not grow with the pass count.
            result = replace(runner.run(job), report=None)
            passes.untraced.setdefault(job.name, []).append(result)
        return
    tracer = spans.Tracer()
    total = 0.0
    with tracer.installed():
        for job in jobs:
            result = runner.run(job, tracer)
            passes.traced_wall.setdefault(job.name, []).append(result.wall)
            total += result.wall
    passes.layers.append(tracer.metrics())
    if total < passes.fastest_wall:
        passes.fastest, passes.fastest_wall = tracer, total


def timed_passes(runner: Runner, jobs: list[Job], seconds: float, trace: bool) -> Passes:
    """Repeat passes (untraced, then traced if ``trace``) for about ``seconds``.

    Stops once the time left is under half the last round, so a run lasts
    ``seconds`` give or take half a round, and makes at least MIN_PASSES.
    """
    passes = Passes()
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        one_pass(runner, jobs, passes, traced=False)
        if trace:
            one_pass(runner, jobs, passes, traced=True)
        passes.count += 1
        now = time.perf_counter()
        if passes.count >= MIN_PASSES and now + (now - begin) / 2 > start + seconds:
            return passes


def sum_of_medians(samples: dict[str, list[float]]) -> float:
    """Sum over jobs of each job's median over the passes."""
    return sum(median(values) for values in samples.values())


def per_job(passes: Passes, value) -> dict[str, list[float]]:
    """``value(result)`` of every untraced pass, by job."""
    return {name: [value(r) for r in results] for name, results in passes.untraced.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    runner = Runner(seed, expected)
    WORK.mkdir(exist_ok=True)
    sampler = probes.HostSampler()
    probe_s = [probes.host_probe()] if trace else []

    with contextlib.nullcontext() if trace else sampler.installed():
        setups: list[tuple[float, float]] = []  # start, end
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and time.monotonic() - setups[0][0] < SETUP_SECONDS
        ):
            start = time.monotonic()
            jobs = set_up(runner, workload, seed, tiny)
            setups.append((start, time.monotonic()))

        layer_extra = {}
        if trace:
            layer_extra = {
                "scalars.muladd_ns": (probes.muladd_ns(), "ns"),
                "linalg.rref_fixed_ms": (probes.rref_fixed_ms(), "ms"),
                "kuranishi.bracket11_fixed_us": (probes.bracket11_fixed_us(), "us"),
            }
        passes = timed_passes(runner, jobs, seconds, trace)

    if trace:
        probe_s.append(probes.host_probe())
    else:
        probe_s = [wall for _, wall, _ in sampler.samples]
    wall_raw_s = sum_of_medians(per_job(passes, lambda r: r.wall))
    if trace:
        if not spans.counts_agree(passes.layers):
            runner.failures.append("trace: counters differ between traced passes")
        path = WORK / f"spans-{workload}.tsv"
        passes.fastest.write(path)
        print(f"spans of the fastest traced pass: {path.relative_to(ROOT)}")
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in passes.fastest.metrics().items()
        }
        for name, (value, unit) in layer_extra.items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["host.probe_s"] = {"value": median(probe_s), "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": sum_of_medians(passes.traced_wall) / wall_raw_s, "unit": "ratio"}
    else:
        values = {
            "setup_s": median(sampler.normalise(end - start, start, end) for start, end in setups),
            "wall_s": sum_of_medians(per_job(
                passes, lambda r: sampler.normalise(r.wall, r.start, r.end))),
            "cpu_s": sum_of_medians(per_job(
                passes, lambda r: sampler.normalise(r.cpu, r.start, r.end, cpu=True))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {workload} seed {seed}: {passes.count} passes of {len(jobs)} jobs, "
          f"{len(probe_s)} host probes {min(probe_s):.4f}..{max(probe_s):.4f} s "
          f"(median {median(probe_s):.4f}), wall_raw_s {wall_raw_s:.4f} s")
    print(f"fail_ratio {failed / runner.attempted:.4f} ({failed} of {runner.attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name in spans.TIME_METRICS:
        return "s"
    return spans.COUNT_METRICS.get(name, "count")


def run_all(args) -> dict:
    """Each workload in its own process, one after another; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"germbench: {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "germkit" / "cli.py").is_file():
        print(f"germbench: no germkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
