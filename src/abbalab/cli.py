"""Batch experiment runner.

`abbalab run` simulates a cohort under the configured scenario and arms,
writing one trace pair per trial (`protocol.write_trace`; an ABBA trace
also holds the trial's final agents), a failures manifest, and the
comparison report (CSV + SVG chart). Each trial is reduced to its
per-window outcome where it ran, so no command holds more than one trial's
minutes, and `analytics.build_report` pairs the outcomes into the report.
`replay` and `report` hand it the outcomes reduced from the traces, so all
three commands apply one pairing rule, and `replay` over the same directory
reproduces the report byte for byte because the trace round trip is exact.
A config document plus a master seed fully determines every artifact;
per-patient seed streams are split by patient id, so growing the cohort
never perturbs existing patients.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import io
import os
import pickle
import select
import signal
import sys
import traceback
from pathlib import Path

from . import analytics as ana
from . import initialisation as init
from . import patient as pat
from . import protocol as proto

CONFIG_SECTION = "run"
# Plumbing keys, as opposed to the keys that pick the experiment; they stay
# out of the config hash, so re-running into a new directory or with more
# workers still counts as the same experiment.
UNHASHED_KEYS = ("out", "jobs")


@dataclasses.dataclass
class RunConfig:
    scenario: str = "S1"
    diabetes_type: str = "T1D"
    cohort_size: int = 2
    seed: int = 1
    days: int = 30
    arms: tuple[str, ...] = (proto.ABBA, proto.BBA)
    out: str = ""
    jobs: int = 1

    def validate(self) -> None:
        if self.scenario not in proto.SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"expected one of {sorted(proto.SCENARIOS)}")
        if self.diabetes_type not in (pat.T1D, pat.T2D):
            raise ValueError(f"unknown diabetes_type {self.diabetes_type!r}")
        if self.cohort_size < 1:
            raise ValueError("cohort_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.days <= init.COLLECTION_DAYS:
            raise ValueError(f"days must be at least {init.COLLECTION_DAYS + 1}: "
                             "the on-line phase requires the "
                             f"{init.COLLECTION_DAYS}-day collection window")
        bad = [a for a in self.arms if a not in (proto.ABBA, proto.BBA)]
        if bad or not self.arms:
            raise ValueError(f"arms must be drawn from abba/bba, got {self.arms}")
        if len(set(self.arms)) != len(self.arms):
            raise ValueError(f"arms must not repeat, got {self.arms}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if not self.out:
            raise ValueError("no output directory; set out= or pass --out")

    def canonical_text(self) -> str:
        parts = []
        for key in CONFIG_KEYS:
            if key in UNHASHED_KEYS:
                continue
            value = getattr(self, key)
            if key == "arms":
                value = ",".join(sorted(value))
            parts.append(f"{key} = {value}")
        return "\n".join(parts) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


# Field order is the order of the canonical text, and so of the config hash.
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _parse_arms(raw: str) -> tuple[str, ...]:
    arms = tuple(a.strip() for a in raw.split(",") if a.strip())
    return arms


# Keys whose values are not parsed by their default's type.
_PARSERS = {"arms": _parse_arms}


def load_config(path: str | None) -> RunConfig:
    """Read the declarative config document; unknown sections/keys reject."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    unknown_sections = [s for s in parser.sections() if s != CONFIG_SECTION]
    if unknown_sections:
        raise ValueError(f"unknown config sections: {unknown_sections}")
    if not parser.has_section(CONFIG_SECTION):
        raise ValueError(f"config must have a [{CONFIG_SECTION}] section")
    section = parser[CONFIG_SECTION]
    unknown = [k for k in section if k not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for f in dataclasses.fields(RunConfig):
        if f.name in section:
            parse = _PARSERS.get(f.name, type(f.default))
            setattr(cfg, f.name, parse(section[f.name].strip()))
    return cfg


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for key in ("seed", "out", "jobs", "scenario"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "arm", None):
        cfg.arms = tuple(args.arm)
    return cfg


# --- run --------------------------------------------------------------------------


def _trace_path(cfg: RunConfig, params: pat.PatientParams, arm: str) -> Path:
    return Path(cfg.out) / "traces" / f"p{params.id:03d}_{arm}.txt"


def _run_one(task: tuple[RunConfig, dict[str, str], pat.PatientParams, str]
             ) -> tuple[int, str, ana.PatientOutcome | None, str | None]:
    """Simulate and reduce one patient+arm, then write its trace pair. Returns
    the outcome, or an error string instead of raising, so a failed patient
    never stops the rest of its process's share."""
    cfg, headers, params, arm = task
    try:
        result = proto.run_trial(params, arm, proto.SCENARIOS[cfg.scenario],
                                 master_seed=cfg.seed, days=cfg.days)
        outcome = ana.reduce_trial(result, ana.standard_windows(result.days))
        proto.write_trace(_trace_path(cfg, params, arm), result, headers)
        return (params.id, arm, outcome, None)
    except Exception as exc:                    # noqa: BLE001 - manifest entry
        return (params.id, arm, None, f"{type(exc).__name__}: {exc}")


@dataclasses.dataclass
class _Child:
    """A forked worker: its share of the task indices, the read end of its
    pipe (None once closed at EOF), the bytes read, and its exit code."""
    pid: int
    share: range
    fd: int | None
    data: bytearray = dataclasses.field(default_factory=bytearray)
    code: int = 0


def _read_pipes(children: list[_Child], block: bool) -> None:
    """Read what the children have written, closing each pipe at EOF: to EOF
    on every pipe when `block`, else only what is ready now, so no child
    stalls on a full pipe while this process runs its own share."""
    while (live := {c.fd: c for c in children if c.fd is not None}):
        ready, _, _ = select.select(list(live), [], [], None if block else 0)
        if not ready:
            return
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            live[fd].data += chunk
            if not chunk:
                os.close(fd)
                live[fd].fd = None


def _run_forked(tasks: list, jobs: int) -> list:
    """`_run_one` over `tasks` in `jobs` processes, this one included: process
    k runs tasks k, k + jobs, ... Each forked child pickles one status per
    finished trial onto its own pipe. A child that dies, exits non-zero or
    sends an unreadable status fails its unfinished trials, and any trace
    files they left are deleted. Statuses come back in task order."""
    statuses: list = [None] * len(tasks)
    children: list[_Child] = []
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for k in range(1, jobs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:                    # child: never returns
                code = 1
                try:
                    for fd in (r, *(c.fd for c in children)):
                        os.close(fd)
                    with os.fdopen(w, "wb") as pipe:
                        for i in range(k, len(tasks), jobs):
                            pickle.dump(_run_one(tasks[i]), pipe)
                            pipe.flush()
                    code = 0
                except Exception:           # noqa: BLE001 - exit status 1 says it
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(w)                     # so no later child holds it
            children.append(_Child(pid, range(k, len(tasks), jobs), r))
        for i in range(0, len(tasks), jobs):
            statuses[i] = _run_one(tasks[i])
            _read_pipes(children, block=False)
        _read_pipes(children, block=True)
    except BaseException:
        for child in children:
            os.kill(child.pid, signal.SIGKILL)
        raise
    finally:
        for child in children:
            if child.fd is not None:
                os.close(child.fd)
            child.code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
    for child in children:
        why = f"worker exit status {child.code}"
        if child.code < 0:
            why += f" ({signal.Signals(-child.code).name})"
        stream = io.BytesIO(child.data)
        try:
            for i in child.share:
                if stream.tell() == len(child.data):
                    break
                statuses[i] = pickle.load(stream)
        except Exception:                   # noqa: BLE001 - its trials are lost
            why += ", unreadable status"
        for i in child.share:
            if statuses[i] is None:
                cfg, _, params, arm = tasks[i]
                path = _trace_path(cfg, params, arm)
                path.unlink(missing_ok=True)
                path.with_suffix(".npy").unlink(missing_ok=True)
                statuses[i] = (params.id, arm, None, f"WorkerLost: {why}")
    return statuses


def _reduce_from_traces(out: Path, only: tuple[str, ...] | None = None
                        ) -> tuple[list[ana.PatientOutcome], list[ana.Window],
                                   dict[str, str]]:
    """Parse and reduce the traces under out/traces one at a time, headers and
    windows verified; the outcomes, the windows reduced (those named in `only`,
    or all) and the run headers."""
    paths = sorted((out / "traces").glob("p*.txt"))
    if not paths:
        raise ValueError(f"no trace files under {out / 'traces'}")
    outcomes, first = [], None
    for path in paths:
        result, headers = proto.read_trace(path)
        windows = ana.standard_windows(result.days)
        if first is None:
            first = (headers, windows)
        elif (headers, windows) != first:
            raise ValueError(f"{path.name} carries different run headers; "
                             "directory mixes runs")
        if only is not None:
            windows = [w for w in windows if w.name in only]
        outcomes.append(ana.reduce_trial(result, windows))
        del result                  # before the next parse: one trial at a time
    return outcomes, windows, headers


def _write_report(out: Path, report: ana.TrialReport,
                  headers: dict[str, str]) -> list[Path]:
    """Report CSV (+ chart when both arms are present)."""
    csv_path = out / f"report_{report.diabetes_type}.csv"
    csv_path.write_text(ana.report_to_csv(report, headers))
    written = [csv_path]
    if report.comparisons and any(w.name.startswith("week") for w in report.windows):
        svg_path = out / f"chart_{report.diabetes_type}.svg"
        svg_path.write_text(ana.chart_svg(report, headers))
        written.append(svg_path)
    return written


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.out)
    if any((out / "traces").glob("*")):
        print(f"error: {out} already holds traces of another run; "
              "use an empty output directory", file=sys.stderr)
        return 2
    try:
        (out / "traces").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out}: {exc.strerror}", file=sys.stderr)
        return 2
    headers = {"config_hash": cfg.config_hash(), "master_seed": str(cfg.seed)}
    (out / "config.resolved.txt").write_text(
        f"# config_hash {headers['config_hash']}\n"
        f"# master_seed {cfg.seed}\n" + cfg.canonical_text() +
        "".join(f"{key} = {getattr(cfg, key)}\n" for key in UNHASHED_KEYS))

    cohort = pat.generate_cohort(cfg.cohort_size, cfg.diabetes_type, cfg.seed)
    # Arm-major, so each process's stride holds an even share of both arms.
    tasks = [(cfg, headers, p, arm) for arm in cfg.arms for p in cohort]
    jobs = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        pat.load_kernel()                       # built once; the children inherit it
        statuses = _run_forked(tasks, jobs)
    else:
        statuses = [_run_one(t) for t in tasks]

    failures = [(pid, arm, err) for pid, arm, _, err in statuses if err is not None]
    manifest = [f"# config_hash {headers['config_hash']}",
                f"# master_seed {cfg.seed}",
                f"# failures {len(failures)} of {len(tasks)} trials"]
    manifest += [f"p{pid:03d} {arm} {err}" for pid, arm, err in sorted(failures)]
    (out / "failures.txt").write_text("\n".join(manifest) + "\n")

    completed = [outcome for _, _, outcome, err in statuses if err is None]
    if completed:
        try:
            report = ana.build_report(completed, ana.standard_windows(cfg.days))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for path in _write_report(out, report, headers):
            print(f"wrote {path}")
    print(f"{len(completed)}/{len(tasks)} trials completed; "
          f"failures manifest: {out / 'failures.txt'}")
    return 0 if not failures else 1


# --- replay / report ---------------------------------------------------------------


def cmd_replay(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        outcomes, windows, headers = _reduce_from_traces(out)
        written = _write_report(out, ana.build_report(outcomes, windows), headers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


_TABLE_METRICS = tuple(m for m in ana.METRIC_FIELDS if m != "mean_glucose")
_TABLE_WINDOWS = ("full", "first4w", "last4w")


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        outcomes, windows, _ = _reduce_from_traces(out, _TABLE_WINDOWS)
        report = ana.build_report(outcomes, windows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    arms = list(report.outcomes)
    print(f"scenario {report.scenario}  {report.diabetes_type}  "
          f"n={len(report.outcomes[arms[0]])}")
    for window in _TABLE_WINDOWS:
        print(f"\n[{window}]")
        header = f"{'metric':<14}" + "".join(f"{a:>22}" for a in arms)
        print(header + ("        test       p" if report.comparisons else ""))
        for metric in _TABLE_METRICS:
            cells = ""
            for arm in arms:
                mean, sd, _, _ = ana._describe(report.metric(arm, window, metric))
                cells += f"{mean:>13.2f} ±{sd:>6.2f}"
            line = f"{metric:<14}" + cells
            if report.comparisons:
                row = next(r for r in report.comparisons
                           if r.window == window and r.metric == metric)
                line += f"{row.test:>12}{row.p_value:>8.4f}"
            print(line)
    rescue_note = "  ".join(
        f"{arm}: {sum(o.rescue_count for o in arm_outcomes)}"
        for arm, arm_outcomes in report.outcomes.items())
    print(f"\nrescue activations  {rescue_note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abbalab",
        description="In-silico basal-bolus advisor trials: run, replay, report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a cohort and write artifacts")
    p_run.add_argument("--config", help="declarative run config (INI)")
    p_run.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--jobs", type=int, help="parallel workers")
    p_run.add_argument("--scenario", choices=sorted(proto.SCENARIOS),
                       help="scenario id (overrides config)")
    p_run.add_argument("--arm", action="append", choices=[proto.ABBA, proto.BBA],
                       help="restrict to an arm (repeatable)")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser(
        "replay", help="recompute the report from existing trace files")
    p_replay.add_argument("--out", required=True, help="run output directory")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser(
        "report", help="print the comparison table from existing trace files")
    p_report.add_argument("--out", required=True, help="run output directory")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
