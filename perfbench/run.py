"""End-to-end benchmark of the ``slimcodeml`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run.iii --seed 1 --seconds 60 --trace 0

Each attempt is a fresh ``python3 -m repro.cli`` process on seeded input
files, with BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds one traced attempt and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checks
import inputs
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

#: One BLAS thread, as the paper's sequential comparison and
#: ``benchmarks/harness.py`` use.  numpy and scipy each load their own
#: OpenBLAS, and each would otherwise start a pool per core.  Set in this
#: process before numpy is first imported, and passed to every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Every child must be gone well before the 180 s limit on a run.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    dataset: str
    kind: str  # "run" or "survey"
    #: ``--max-iterations`` per hypothesis; ``None`` runs to convergence.
    budget: Optional[int]
    #: Measured attempts made even when they overrun the window.
    min_attempts: int


#: Why each was chosen: ``perfbench/README.md`` and ``BENCHMARK.json``.
#: ``run.i`` is not in ``BENCHMARK.json``: one attempt takes 35-50 s on a
#: 2-core box, too long for a gated window; run it by hand.
WORKLOADS: Dict[str, Workload] = {
    "run.i": Workload("i", "run", None, min_attempts=2),
    "run.iii": Workload("iii", "run", 1, min_attempts=3),
    "survey.i": Workload("i", "survey", 1, min_attempts=3),
}


@dataclass
class Attempt:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    verdict: checks.Verdict
    setup_s: Optional[float] = None
    #: Mean probe time on the attempt's core over the attempt, relative to
    #: the reference (``speed.py``); ``None`` when no probe ran inside it.
    slowdown: Optional[float] = None
    trace: Optional[dict] = None
    note: str = ""

    def at_reference(self, seconds: Optional[float]) -> float:
        """``seconds`` of this attempt, at the reference core speed."""
        if seconds is None or not self.slowdown:
            return float("nan")
        return seconds / self.slowdown

    def describe(self) -> str:
        setup = f" setup {self.setup_s:.3f} s" if self.setup_s is not None else ""
        slow = f" slowdown {self.slowdown:.3f}" if self.slowdown else " slowdown ?"
        bad = f" FAILED: {'; '.join(self.verdict.failures[:3])}" if self.verdict.failures else ""
        return (f"{self.note:<7s} wall {self.wall_s:.3f} s cpu {self.cpu_s:.3f} s "
                f"rss {self.peak_rss_mb:.1f} MB{setup}{slow} exit {self.exit_code} "
                f"ok {self.verdict.attempted - self.verdict.failed}/{self.verdict.attempted}{bad}")


@dataclass
class Inputs:
    phy: Path
    nwk: Path
    taxa: List[str]

    @property
    def gene_id(self) -> str:
        """The task-id prefix ``scan`` derives from the alignment file name."""
        return self.phy.stem


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: List[str], cwd: Path, stem: str, timeout: float):
    """Run one child to completion; returns (wall, rusage, exit code, stdout).

    ``os.wait4`` gives the child's own CPU time and peak RSS.  A child
    still running at ``timeout`` is killed (and reaped) first.
    """
    out_path, err_path = cwd / f"{stem}.out", cwd / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
        done = threading.Event()

        def kill() -> None:
            if not done.is_set():
                proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (e.g. SIGTERM): stop and reap the child first.
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, out_path.read_text(encoding="utf-8", errors="replace")


def cli_args(work: Workload, data: Inputs, budget: Optional[int], journal: Path) -> List[str]:
    files = ["--seqfile", data.phy.name, "--treefile", data.nwk.name]
    iters = [] if budget is None else ["--max-iterations", str(budget)]
    if work.kind == "run":
        return ["run", *files, *iters]
    return ["scan", *files, "--survey", "--map", "--journal", journal.name, *iters]


class Runner:
    """One benchmark run: inputs, measured and traced attempts."""

    def __init__(self, name: str, seed: int, rundir: Path, meter: speed.Speedometer) -> None:
        self.work = WORKLOADS[name]
        self.meter = meter
        self.seed = seed
        self.rundir = rundir
        self.started = time.perf_counter()
        self.count = 0
        self.data = self.make_inputs()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        return DEADLINE_S - self.elapsed()

    def make_inputs(self) -> Inputs:
        ds = self.work.dataset
        prefix = self.rundir / f"dataset_{ds}"
        taxa = inputs.present(*inputs.make_base(ds), self.seed, prefix)
        return Inputs(prefix.with_suffix(".phy"), prefix.with_suffix(".nwk"), taxa)

    def attempt(self, budget: Optional[int], traced: bool = False, note: str = "") -> Attempt:
        self.count += 1
        stem = f"a{self.count:02d}"
        journal = self.rundir / f"{stem}.jsonl"
        args = cli_args(self.work, self.data, budget, journal)
        summary_path = self.rundir / f"{stem}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(summary_path), *args]
        else:
            argv = [sys.executable, "-m", "repro.cli", *args]
        start = time.perf_counter()
        wall, usage, code, text = spawn(argv, self.rundir, stem, self.remaining())
        slowdown = self.meter.slowdown(start, time.perf_counter())
        verdict = self.check(text, journal, budget)
        if code != 0:
            verdict.failures.append(f"exit code {code}")
        att = Attempt(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      code, verdict, slowdown=slowdown, note=note)
        att.setup_s = self.setup_seconds(text, wall)
        if traced and summary_path.exists():
            att.trace = json.loads(summary_path.read_text(encoding="utf-8"))
        elif traced:
            verdict.failures.append("traced run wrote no summary")
        print(att.describe(), flush=True)
        return att

    def check(self, text: str, journal: Path, budget: Optional[int]) -> checks.Verdict:
        if self.work.kind == "survey":
            jtext = journal.read_text(encoding="utf-8") if journal.exists() else ""
            return checks.check_survey(text, jtext, self.data.gene_id, self.data.taxa)
        if budget is None:
            return checks.check_run_converged(text)
        return checks.check_run_budgeted(text, budget)

    def setup_seconds(self, text: str, wall: float) -> Optional[float]:
        """Process wall minus the fit/scan seconds the command prints."""
        try:
            if self.work.kind == "run":
                return wall - sum(checks.parse_run_report(text).fit_seconds)
            return wall - checks.parse_survey_report(text, self.data.gene_id).wall_seconds
        except ValueError:
            return None

    def window(self, seconds: float) -> List[Attempt]:
        """Attempts for ``seconds``: the minimum, then none that would overrun."""
        start = time.perf_counter()
        attempts = [self.attempt(self.work.budget, note="measure")]
        while True:
            elapsed = time.perf_counter() - start
            last = attempts[-1].wall_s
            if last * 1.5 > self.remaining():
                return attempts
            if len(attempts) >= self.work.min_attempts and elapsed + last > seconds:
                return attempts
            attempts.append(self.attempt(self.work.budget, note="measure"))


def calibration_seconds() -> float:
    """Time of a fixed small-matrix loop: host speed, for the record only."""
    import numpy as np

    m = np.random.default_rng(0).random((61, 61))
    x = np.ones(61)
    start = time.perf_counter()
    for _ in range(20000):
        x = m @ x
        x /= x.sum()
    return time.perf_counter() - start


def host_record() -> dict:
    """What the host looked like: load, steal, cores, speed, versions, BLAS."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 — loads scipy's own BLAS

    record = {
        "loadavg": list(os.getloadavg()),
        "steal_ticks": _steal_ticks(),
        "calibration_s": calibration_seconds(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": BLAS_ENV,
    }
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            record[f"{mod.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except Exception as exc:  # noqa: BLE001 — the record is informational
            record[f"{mod.__name__}_blas"] = f"unknown ({type(exc).__name__})"
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {Path(ln.split()[-1]).name for ln in maps if "/lib" in ln and "blas" in ln.lower()}
        record["blas_libs"] = sorted(libs)
    except OSError:
        record["blas_libs"] = []
    return record


def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(attempts: List[Attempt]) -> Dict[str, float]:
    """Medians over the attempts; times at the reference core speed."""
    checked = sum(a.verdict.attempted for a in attempts)
    ok = checked - sum(a.verdict.failed for a in attempts)
    return {
        "wall_s": statistics.median(a.at_reference(a.wall_s) for a in attempts),
        "cpu_s": statistics.median(a.at_reference(a.cpu_s) for a in attempts),
        "setup_s": statistics.median(a.at_reference(a.setup_s) for a in attempts),
        "peak_rss_mb": statistics.median(a.peak_rss_mb for a in attempts),
        "ok_frac": ok / checked if checked else 0.0,
    }


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        host = host_record()
        # Attempts, and the probe that times their core, share one core;
        # children inherit the main thread's affinity.
        cpu = host["attempt_cpu"] = speed.attempt_cpu()
        os.sched_setaffinity(0, {cpu})
        with speed.Speedometer(cpu) as meter:
            runner = Runner(args.workload, args.seed, rundir, meter)
            attempts = runner.window(args.seconds)
            everything = list(attempts)
            if args.trace:
                everything.append(runner.attempt(runner.work.budget, traced=True, note="traced"))
        if args.trace:
            traced = everything[-1]
            untraced = statistics.median(a.wall_s for a in attempts)
            layer = tracer.finish(traced.trace or {}, traced.wall_s, untraced)
            metrics = {name: {"value": layer.get(name, float("nan")), "unit": unit}
                       for name, unit in tracer.METRICS}
        else:
            metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                       for name, value in end_to_end(attempts).items()}
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host["steal_ticks_after"] = _steal_ticks()
    host["loadavg_after"] = list(os.getloadavg())
    host["calibration_s_after"] = calibration_seconds()
    attempted = sum(a.verdict.attempted for a in everything)
    failed = sum(a.verdict.failed for a in everything)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    result = {
        "correct": finite and failed == 0 and all(a.exit_code == 0 for a in everything),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as log:
        per_attempt = [{"note": a.note, "wall_s": a.wall_s, "cpu_s": a.cpu_s,
                        "setup_s": a.setup_s, "slowdown": a.slowdown} for a in everything]
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, "host": host, "attempts": per_attempt,
                              **result}) + "\n")
    if result["correct"]:
        shutil.rmtree(rundir, ignore_errors=True)
    print("host: " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
