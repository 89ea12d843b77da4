"""abbalab benchmark: drive the real command line and report end-to-end and
per-layer metrics as one JSON line.

    python3 bench/run.py --workload run_s1_90d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sweep_s1s4_15d --seed 3 --trace 1
    python3 bench/run.py --workload run_s1_90d --seed 1 --profile 25

Run it from the root of a checkout. Every `abbalab` command runs as
`python -m abbalab ...` in a fresh interpreter with PYTHONPATH set to the
checkout's src/, so each measurement pays the costs a user pays. Scratch
output goes to .bench_work/ in the checkout and is removed on exit.

With --trace 0 the last line holds the end-to-end metrics (README.md in this
directory lists them). With --trace 1 it holds the per-layer metrics of a run
through bench/tracer.py, which wraps each layer's functions in-process. The
line before the last is a `bench_record` object with provenance, the report's
sha256 and the per-repetition figures. A human-readable table goes to stderr.
A broken correctness check prints `"correct": false` and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MB = float(1 << 20)
SETUP_REPS = 3            # timed fresh imports per run (after one warm-up)
CHILD_TIMEOUT_S = 150.0   # a command that runs longer is killed and fails
COHORT_90D = 5            # the smallest cohort for which paired_compare runs Lilliefors
COHORT_SWEEP = 2
SWEEP_DAYS = 15           # the shortest trial the CLI accepts


# --- commands and workloads ---------------------------------------------------------


@dataclasses.dataclass
class Step:
    """One `abbalab` invocation of a workload's command sequence."""
    kind: str             # run | replay | report
    args: list[str]
    out: Path
    trials: int
    days: int


@dataclasses.dataclass
class Plan:
    jobs: int
    # jobs override (None keeps the config's) and repetition dir -> steps
    sequence: Callable[[int | None, Path], list[Step]]
    prepare: list[Step] = dataclasses.field(default_factory=list)


def _write_ini(path: Path, **keys) -> Path:
    body = "".join(f"{k} = {v}\n" for k, v in keys.items())
    path.write_text("[run]\n" + body)
    return path


def _run_step(config: Path, out: Path, trials: int, days: int,
              jobs: int | None) -> Step:
    args = ["run", "--config", str(config), "--out", str(out)]
    if jobs is not None:
        args += ["--jobs", str(jobs)]
    return Step("run", args, out, trials, days)


def _s1_90d_config(work: Path, seed: int, jobs: int) -> Path:
    return _write_ini(work / "s1_90d.ini", scenario="S1", diabetes_type="T1D",
                      cohort_size=COHORT_90D, seed=seed, days=90,
                      arms="abba,bba", jobs=jobs)


def plan_run_s1_90d(work: Path, seed: int, nproc: int) -> Plan:
    config = _s1_90d_config(work, seed, jobs=1)
    trials = 2 * COHORT_90D
    return Plan(1, lambda jobs, rep: [
        _run_step(config, rep / "out", trials, 90, jobs)])


def plan_replay_s1_90d(work: Path, seed: int, nproc: int) -> Plan:
    # Traces come from the code under test with the run_s1_90d config; jobs
    # is not part of the config hash, so a parallel untimed run writes the
    # same bytes sooner.
    config = _s1_90d_config(work, seed, jobs=nproc)
    out = work / "traces_s1_90d"
    trials = 2 * COHORT_90D
    return Plan(1, lambda jobs, rep: [
        Step("replay", ["replay", "--out", str(out)], out, trials, 90),
        Step("report", ["report", "--out", str(out)], out, trials, 90),
    ], prepare=[_run_step(config, out, trials, 90, None)])


SWEEP_CELLS = [(s, t) for s in ("S1", "S2", "S3", "S4") for t in ("T1D", "T2D")]


def plan_sweep_s1s4_15d(work: Path, seed: int, nproc: int) -> Plan:
    configs = [(f"{s}_{t}", _write_ini(
        work / f"sweep_{s}_{t}.ini", scenario=s, diabetes_type=t,
        cohort_size=COHORT_SWEEP, seed=seed, days=SWEEP_DAYS,
        arms="abba,bba", jobs=nproc)) for s, t in SWEEP_CELLS]
    return Plan(nproc, lambda jobs, rep: [
        _run_step(config, rep / cell, 2 * COHORT_SWEEP, SWEEP_DAYS, jobs)
        for cell, config in configs])


WORKLOADS = {
    "run_s1_90d": plan_run_s1_90d,
    "replay_s1_90d": plan_replay_s1_90d,
    "sweep_s1s4_15d": plan_sweep_s1s4_15d,
}


# --- child processes ------------------------------------------------------------------


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], cwd: Path, tag: str) -> Child:
    """Run one child to completion; CPU and peak RSS come from wait4 on it.

    wait4 reports the child plus the descendants it reaped (the CLI's pool
    workers) for CPU, and the largest single process for ru_maxrss, so with
    jobs > 1 peak RSS is the biggest process, not the sum.
    """
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=cwd,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stdout, stderr)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure_setup(work: Path) -> list[float]:
    """Fresh interpreter until `import abbalab.cli` returns, SETUP_REPS times.

    CLOCK_MONOTONIC is system-wide, so the child's timestamp after the import
    and the parent's before the spawn share one clock. A first untimed import
    compiles the bytecode cache, which a user pays once per install.
    """
    code = "import time, abbalab.cli; print(repr(time.monotonic()))"
    times = []
    for i in range(SETUP_REPS + 1):
        t0 = time.monotonic()
        child = spawn([sys.executable, "-c", code], work, f"setup{i}")
        if child.code != 0:
            raise RuntimeError(f"import abbalab.cli failed:\n{child.stderr}")
        if i:
            times.append(float(child.stdout.strip()) - t0)
    return times


# --- one repetition of a command sequence -------------------------------------------


@dataclasses.dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    artifact_bytes: int = 0
    patient_days: int = 0
    attempted: int = 0
    failed: int = 0
    reports: dict = dataclasses.field(default_factory=dict)   # out -> bytes
    stats: list = dataclasses.field(default_factory=list)     # tracer output
    problems: list = dataclasses.field(default_factory=list)


def _report_path(out: Path) -> Path | None:
    found = sorted(out.glob("report_*.csv"))
    return found[0] if len(found) == 1 else None


def _failed_trials(step: Step) -> int | None:
    """Trials `failures.txt` lists as failed, or None if it is unreadable."""
    try:
        lines = (step.out / "failures.txt").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        parts = line.split()
        if parts[:2] == ["#", "failures"] and parts[3:5] == ["of", str(step.trials)]:
            return int(parts[2]) if parts[2].isdigit() else None
    return None


def check_step(step: Step, child: Child, expected: dict) -> list[str]:
    """Correctness of one command; `expected` maps out dir -> report bytes
    written by the run that made the traces."""
    problems = []
    if child.code != 0:
        problems.append(f"{step.kind} {step.out.name}: exit {child.code}: "
                        f"{child.stderr.strip()[-400:]}")
    if step.kind == "run":
        failed = _failed_trials(step)
        if failed != 0:
            problems.append(f"run {step.out.name}: failures.txt does not read "
                            f"'0 of {step.trials}' (got {failed})")
    report = _report_path(step.out)
    if report is None:
        problems.append(f"{step.kind} {step.out.name}: no single report CSV")
    elif step.kind == "replay" and report.read_bytes() != expected.get(step.out):
        problems.append(f"replay {step.out.name}: report CSV differs from the "
                        "one run wrote")
    if step.kind == "report" and f"n={step.trials // 2}" not in child.stdout:
        problems.append(f"report {step.out.name}: table header missing")
    return problems


def run_sequence(steps: list[Step], work: Path, expected: dict,
                 tracer_stats: Path | None = None) -> Rep:
    rep = Rep()
    for i, step in enumerate(steps):
        step.out.parent.mkdir(parents=True, exist_ok=True)
        if tracer_stats is None:
            argv = [sys.executable, "-m", "abbalab", *step.args]
        else:
            stats_path = tracer_stats.with_name(f"{tracer_stats.stem}{i}.json")
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    str(stats_path), "--", *step.args]
        child = spawn(argv, work, f"step{i}")
        rep.wall_s += child.wall_s
        rep.cpu_s += child.cpu_s
        rep.peak_rss_mb = max(rep.peak_rss_mb, child.rss_mb)
        rep.patient_days += step.trials * step.days
        problems = check_step(step, child, expected)
        rep.problems += problems
        rep.attempted += step.trials
        if problems:                # a failed check fails the command's trials
            rep.failed += step.trials
        report = _report_path(step.out)
        if report is not None:
            rep.reports[step.out] = report.read_bytes()
        if tracer_stats is not None:
            rep.stats.append(json.loads(stats_path.read_text())
                             if stats_path.exists() else None)
    outs = {step.out for step in steps}
    rep.artifact_bytes = sum(p.stat().st_size for out in outs
                             for p in out.rglob("*") if p.is_file())
    return rep


# --- results --------------------------------------------------------------------------


def delta_tir_pp(report: bytes) -> float:
    """ABBA minus BBA mean full-window TIR from a report CSV."""
    means = {}
    for line in report.decode().splitlines():
        cells = line.split(",")
        if cells[:2] == ["full", "tir_pct"] and cells[2] in ("abba", "bba"):
            means[cells[2]] = float(cells[4])
    return means["abba"] - means["bba"]


def reports_digest(reports: dict) -> str:
    digest = hashlib.sha256()
    for out in sorted(reports):
        digest.update(reports[out])
    return digest.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest of p50..p99 with at least ten samples beyond it, else 50."""
    return max([q for q in (50, 75, 90, 95, 99) if n * (100 - q) >= 1000],
               default=50)


def end_to_end(setup: list[float], reps: list[Rep]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "wall_s": med(r.wall_s for r in reps),
        "cpu_s": med(r.cpu_s for r in reps),
        "patient_days_per_s": med(r.patient_days / r.wall_s for r in reps),
        "peak_rss_mb": med(r.peak_rss_mb for r in reps),
        "artifact_mb": med(r.artifact_bytes / MB for r in reps),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Rep, base: Rep, pool: Rep, pool_jobs: int,
              setup_s: float, n_steps: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the tracer output of every command of `traced`.

    A metric built on a wrapped function that no longer exists (renamed or
    removed) is left out and named in the returned list.
    """
    calls: dict[str, list] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy_s = dict.fromkeys(LAYERS, 0.0)
    trials: list = []
    trace_bytes = {"written": 0, "parsed": 0}
    for s in traced.stats:
        for key, (count, seconds) in s["calls"].items():
            acc = calls.setdefault(key, [0, 0.0])
            acc[0] += count
            acc[1] += seconds
        for layer in LAYERS:
            self_s[layer] += s["self_s"][layer]
            busy_s[layer] += s["busy_s"][layer]
        trials += s["trials"]
        for k in trace_bytes:
            trace_bytes[k] += s["trace_bytes"][k]

    def n(key):              # KeyError when the wrapped name is absent
        return calls[key][0]

    def t(key):
        return calls[key][1]

    def need(*keys):         # for metrics read from a hook, not a count
        for key in keys:
            calls[key]

    durations = [d for _, d, _ in trials]
    abba_trials = sum(1 for arm, _, _ in trials if arm == "abba")
    formulas = {
        "patient.rk4_calls": lambda: n("patient._rk4_minute"),
        "patient.rk4_s": lambda: t("patient._rk4_minute"),
        "patient.rk4_us_per_call": lambda: 1e6 * _ratio(
            t("patient._rk4_minute"), n("patient._rk4_minute")),
        "patient.smbg_reads": lambda: n("patient.read_smbg"),
        "patient.cohort_s": lambda: t("patient.generate_cohort"),
        "protocol.trials": lambda: n("protocol.run_trial"),
        "protocol.trial_s_p50": lambda: (need("protocol.run_trial")
                                         or percentile(durations, 50)),
        "protocol.trial_s_ptail": lambda: percentile(
            durations, tail_percentile(n("protocol.run_trial"))),
        "protocol.trial_self_s": lambda: (need("protocol.run_trial")
                                          or sum(own for _, _, own in trials)),
        "protocol.trace_write_s": lambda: t("protocol.trace_to_text"),
        "protocol.trace_bytes": lambda: (need("protocol.trace_to_text")
                                         or trace_bytes["written"]),
        "protocol.trace_write_mb_per_s": lambda: _ratio(
            trace_bytes["written"] / MB, t("protocol.trace_to_text")),
        "protocol.trace_parse_calls": lambda: n("protocol.trace_from_text"),
        "protocol.trace_parse_s": lambda: t("protocol.trace_from_text"),
        "protocol.trace_parse_mb_per_s": lambda: _ratio(
            trace_bytes["parsed"] / MB, t("protocol.trace_from_text")),
        "advisor.critic_updates": lambda: n("advisor.critic_update"),
        "advisor.actor_updates": lambda: n("advisor.actor_update"),
        "advisor.actor_per_critic": lambda: _ratio(
            n("advisor.actor_update"), n("advisor.critic_update")),
        "advisor.policy_calls": lambda: n("advisor.policy"),
        "advisor.iob_calls": lambda: n("advisor.iob"),
        "advisor.busy_s": lambda: busy_s["advisor"],
        "initialisation.calls": lambda: n("initialisation.initialise_agents"),
        "initialisation.busy_s": lambda: busy_s["initialisation"],
        "analytics.reduce_calls": lambda: n("analytics.reduce_trial"),
        "analytics.reduce_s": lambda: t("analytics.reduce_trial"),
        "analytics.build_report_s": lambda: t("analytics.build_report"),
        "analytics.lilliefors_calls": lambda: n("analytics.lilliefors"),
        "analytics.lilliefors_s": lambda: t("analytics.lilliefors"),
        "analytics.export_s": lambda: (t("analytics.report_to_csv")
                                       + t("analytics.chart_svg")),
        "analytics.delta_tir_pp": lambda: statistics.fmean(
            delta_tir_pp(r) for r in traced.reports.values()),
        "cli.checkpoint_writes": lambda: n("advisor.bundle_to_text"),
        "cli.checkpoint_useful_ratio": lambda: need("protocol.run_trial") or _ratio(
            abba_trials, n("advisor.bundle_to_text")),
        "cli.io_s": lambda: t("cli.read_text") + t("cli.write_text"),
        "cli.pool_efficiency": lambda: pool.cpu_s / (pool.wall_s * pool_jobs),
        "trace.traced_wall_s": lambda: traced.wall_s,
        "trace.untraced_wall_s": lambda: base.wall_s,
        "trace.overhead_s": lambda: traced.wall_s - base.wall_s,
        "trace.unattributed_s": lambda: (traced.wall_s - n_steps * setup_s
                                         - sum(self_s.values())),
    }
    for layer in LAYERS:
        formulas[f"{layer}.self_s"] = lambda layer=layer: self_s[layer]
    metrics, missing = {}, []
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except KeyError:
            missing.append(name)
    return metrics, missing


# --- provenance -----------------------------------------------------------------------


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():     # a plain checkout: src_sha256 only
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(nproc: int) -> dict:
    return {"git_revision": _git_revision(), "src_sha256": _src_digest(),
            "nproc": nproc, "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "machine": platform.machine()}


# --- main -----------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, nproc: int) -> tuple[dict, dict, bool, int, int]:
    plan = WORKLOADS[workload](work, seed, nproc)
    setup = measure_setup(work)
    expected: dict = {}
    problems: list[str] = []
    for i, step in enumerate(plan.prepare):
        child = spawn([sys.executable, "-m", "abbalab", *step.args], work,
                      f"prepare{i}")
        problems += check_step(step, child, expected)
        report = _report_path(step.out)
        if report is not None:
            expected[step.out] = report.read_bytes()

    reps: list[Rep] = []

    def one(jobs, tracer_stats=None) -> Rep:
        rep_dir = work / f"rep{len(reps)}"
        rep = run_sequence(plan.sequence(jobs, rep_dir), work, expected,
                           tracer_stats)
        reps.append(rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    if trace:
        # Tracing runs with jobs=1 so every call lands in this one process;
        # the overhead baseline uses the same shape, untraced.
        base = one(1)
        pool = one(None) if plan.jobs > 1 else base
        traced = one(1, work / "stats.json")
        metrics: dict = {}
        if not (traced.problems or None in traced.stats):
            metrics, missing = per_layer(
                traced, base, pool, plan.jobs, statistics.median(setup),
                len(plan.sequence(1, work)))
            for name in missing:
                print(f"warning: {name} absent: a wrapped function is gone",
                      file=sys.stderr)
        timed = [base]
    else:
        # Start another repetition only while one more, at the mean so far,
        # still ends within `seconds`; there is always at least one.
        start = time.perf_counter()
        while True:
            one(None)
            elapsed = time.perf_counter() - start
            if elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
        timed = reps
        metrics = end_to_end(setup, reps)

    for rep in reps:
        problems += rep.problems
    digests = {reports_digest(r.reports) for r in reps}
    if len(digests) > 1:
        problems.append("reports differ between repetitions of one seed")
    sample = reps[0].reports
    record = {
        "setup_s": setup,
        "reps": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                  "peak_rss_mb": r.peak_rss_mb,
                  "artifact_bytes": r.artifact_bytes} for r in timed],
        "report_sha256": reports_digest(sample),
        "delta_tir_pp": statistics.fmean(delta_tir_pp(b) for b in sample.values())
        if sample else None,
        "problems": problems,
    }
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return metrics, record, not problems, attempted, failed


def _units(trace: bool) -> dict[str, str]:
    """Metric units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="TOP",
                        help="profile the workload's commands untimed and "
                             "print the TOP entries by own time")
    args = parser.parse_args(argv)
    if not (SRC / "abbalab" / "cli.py").is_file():
        print(f"error: no abbalab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    load_start = os.getloadavg()[0]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        if args.profile is not None:
            return profile(args.workload, args.seed, args.profile, work, nproc)
        metrics, record, correct, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    load_end = os.getloadavg()[0]

    record.update(provenance(nproc), workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds,
                  load_1min=[load_start, load_end],
                  failed_frac=_ratio(failed, attempted))
    if max(load_start, load_end) > nproc:
        print(f"warning: 1-minute load {max(load_start, load_end):.2f} exceeds "
              f"nproc {nproc}; figures are unreliable", file=sys.stderr)
    units = _units(bool(args.trace))
    for problem in record["problems"]:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}  correct={correct}  "
          f"failed_frac={record['failed_frac']:.4f} ({failed}/{attempted} trials)",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"bench_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def profile(workload: str, seed: int, top: int, work: Path, nproc: int) -> int:
    """cProfile each command of one repetition (jobs=1); nothing is timed."""
    plan = WORKLOADS[workload](work, seed, nproc)
    for step in plan.prepare:
        spawn([sys.executable, "-m", "abbalab", *step.args], work, "prepare")
    code = 0
    for i, step in enumerate(plan.sequence(1, work / "profile")):
        step.out.parent.mkdir(parents=True, exist_ok=True)
        child = spawn([sys.executable, str(BENCH_DIR / "tracer.py"), "--profile",
                       str(top), "--", *step.args], work, f"profile{i}")
        print(f"== abbalab {' '.join(step.args)} (exit {child.code})")
        print(child.stdout)
        code = code or child.code
    return code


if __name__ == "__main__":
    sys.exit(main())
