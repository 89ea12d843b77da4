import filecmp
import hashlib
import itertools
import os
import signal
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import pytest

from abbalab import advisor as adv
from abbalab import analytics as ana
from abbalab import cli
from abbalab import patient as pat
from abbalab import protocol as proto


def _config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


SMOKE = """[run]
scenario = S1
diabetes_type = T1D
cohort_size = 2
seed = 101
days = 30
arms = abba,bba
"""


def _run(tmp_path, out_name, extra_args=()):
    cfg = _config(tmp_path, SMOKE)
    out = tmp_path / out_name
    rc = cli.main(["run", "--config", cfg, "--out", str(out), *extra_args])
    return rc, out


# --- run -------------------------------------------------------------------------

def test_smoke_run_emits_comparison_artifacts(tmp_path):
    rc, out = _run(tmp_path, "out_a")
    assert rc == 0
    traces = [f"traces/p00{i}_{arm}{suffix}" for i in (0, 1)
              for arm in ("abba", "bba") for suffix in (".npy", ".txt")]
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == sorted(
        ["chart_T1D.svg", "config.resolved.txt", "failures.txt", "report_T1D.csv",
         "traces", *traces])
    for i in (0, 1):                    # each ABBA trace holds its final agents
        result, _ = proto.read_trace(out / "traces" / f"p00{i}_abba.txt")
        assert set(result.final_agents) == set(adv.AgentKind)


def test_identical_runs_are_byte_identical(tmp_path):
    _, out_a = _run(tmp_path, "out_a")
    _, out_b = _run(tmp_path, "out_b")
    for rel in ("report_T1D.csv", "chart_T1D.svg", "failures.txt",
                "traces/p000_abba.txt", "traces/p001_bba.txt",
                "traces/p000_abba.npy", "traces/p001_bba.npy"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    assert "\n# agent.Basal.theta " in (out_a / "traces/p000_abba.txt").read_text()


def test_output_files_carry_config_hash_and_seed(tmp_path):
    _, out = _run(tmp_path, "out_a")
    cfg = cli.load_config(_config(tmp_path, SMOKE))
    cfg.out = str(out)
    wanted_hash = cfg.config_hash()
    for rel in ("report_T1D.csv", "traces/p000_abba.txt", "failures.txt"):
        text = (out / rel).read_text()
        head = "\n".join(text.splitlines()[:12])
        assert wanted_hash in head, rel
        assert "master_seed" in head or "seed" in head, rel
    # The agent bundle shares the ABBA trace's header with the run provenance,
    # and is not handed back as provenance.
    result, headers = proto.read_trace(out / "traces" / "p001_abba.txt")
    assert headers == {"config_hash": wanted_hash, "master_seed": "101"}
    assert result.final_agents is not None


def test_single_arm_run_writes_summaries_only(tmp_path):
    cfg = _config(tmp_path, SMOKE)
    out = tmp_path / "solo"
    rc = cli.main(["run", "--config", cfg, "--out", str(out), "--arm", "bba"])
    assert rc == 0
    assert (out / "report_T1D.csv").exists()
    assert not (out / "chart_T1D.svg").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _config(tmp_path, SMOKE)
    out_a = tmp_path / "seed_a"
    out_b = tmp_path / "seed_b"
    assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_b),
                     "--seed", "202"]) == 0
    a = (out_a / "traces" / "p000_bba.txt").read_text()
    b = (out_b / "traces" / "p000_bba.txt").read_text()
    assert a != b


# --- config validation ------------------------------------------------------------

def test_short_trial_is_rejected(tmp_path):
    cfg = _config(tmp_path, SMOKE.replace("days = 30", "days = 14"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_negative_seed_is_rejected_before_any_output(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["run", "--config", _config(tmp_path, SMOKE),
                     "--out", str(out), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_arm_flag_is_rejected(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(proto, "run_trial", lambda *a, **k: calls.append(a))
    out = tmp_path / "x"
    assert cli.main(["run", "--config", _config(tmp_path, SMOKE), "--out", str(out),
                     "--arm", "abba", "--arm", "abba"]) == 2
    assert calls == [] and not out.exists()


def test_repeated_arm_in_config_is_rejected(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(proto, "run_trial", lambda *a, **k: calls.append(a))
    out = tmp_path / "x"
    cfg = _config(tmp_path, SMOKE.replace("arms = abba,bba", "arms = abba, abba, bba"))
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert calls == [] and not out.exists()


def test_unknown_config_key_is_rejected(tmp_path, monkeypatch, capsys):
    # dawn, misestimation and rescue_threshold were keys until trace schema
    # v7; the scenario and the diabetes type fix them now.
    calls = []
    monkeypatch.setattr(proto, "run_trial", lambda *a, **k: calls.append(a))
    out = tmp_path / "x"
    for line in ("frobnicate = 3", "dawn = off", "misestimation = 0.8, 1.2",
                 "rescue_threshold = 25"):
        cfg = _config(tmp_path, SMOKE + line + "\n")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        key = line.split(" = ")[0]
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_unknown_scenario_is_rejected(tmp_path):
    cfg = _config(tmp_path, SMOKE.replace("scenario = S1", "scenario = S9"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


EVERY_KEY = """[run]
scenario = S3
diabetes_type = T2D
cohort_size = 4
seed = 9
days = 45
arms = bba, abba
out = x
jobs = 2
"""


def test_config_setting_every_key_loads_and_keeps_its_hash(tmp_path, monkeypatch):
    cfg = cli.load_config(_config(tmp_path, EVERY_KEY))
    assert len(cli.CONFIG_KEYS) == 8
    assert cfg == cli.RunConfig(
        scenario="S3", diabetes_type="T2D", cohort_size=4, seed=9, days=45,
        arms=("bba", "abba"), out="x", jobs=2)
    assert cfg.arms == ("bba", "abba")
    assert cfg.days == 45 and isinstance(cfg.days, int)
    assert cfg.config_hash() == "4da2551e70bc9008"
    assert cli.load_config(_config(tmp_path, SMOKE)).config_hash() == "1083b66a0f98971f"

    calls = []
    monkeypatch.setattr(proto, "run_trial", lambda *a, **k: calls.append(a))
    for body in (SMOKE.replace("cohort_size = 2", "cohort_size = two"),
                 SMOKE.replace("days = 30", "days = 30.5")):
        cfg_path = _config(tmp_path, body)
        assert cli.main(["run", "--config", cfg_path,
                         "--out", str(tmp_path / "x")]) == 2
    assert calls == []


def test_config_hash_ignores_out_and_jobs(tmp_path):
    a = cli.load_config(_config(tmp_path, SMOKE))
    b = cli.load_config(_config(tmp_path, SMOKE))
    a.out, a.jobs = "/tmp/somewhere", 4
    b.out, b.jobs = "/tmp/elsewhere", 1
    assert a.config_hash() == b.config_hash()


# --- replay and report ---------------------------------------------------------------

def test_replay_is_idempotent(tmp_path):
    _, out = _run(tmp_path, "out_a")
    before = (out / "report_T1D.csv").read_bytes()
    svg_before = (out / "chart_T1D.svg").read_bytes()
    assert cli.main(["replay", "--out", str(out)]) == 0
    assert (out / "report_T1D.csv").read_bytes() == before
    assert (out / "chart_T1D.svg").read_bytes() == svg_before


def test_replay_rejects_truncated_trace(tmp_path):
    _, out = _run(tmp_path, "out_a")
    target = out / "traces" / "p000_abba.txt"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    assert cli.main(["replay", "--out", str(out)]) == 2


def test_replay_rejects_foreign_schema(tmp_path):
    _, out = _run(tmp_path, "out_a")
    target = out / "traces" / "p000_abba.txt"
    text = target.read_text()
    tag = f"# {proto.TRACE_SCHEMA}"
    assert tag in text
    target.write_text(text.replace(tag, "# abbalab-trace v999", 1))
    assert cli.main(["replay", "--out", str(out)]) == 2


def _edit_header(path, key, value):
    lines = path.read_text().splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"# {key} ")]
    lines[i] = f"# {key} {value}"
    path.write_text("\n".join(lines) + "\n")


def _cut_bundle(path):
    """Drop the last line of the trace's agent bundle."""
    lines = path.read_text().splitlines()
    del lines[max(i for i, line in enumerate(lines) if line.startswith("# agent."))]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit", [
    lambda traces: [_edit_header(traces / f"p00{i}_bba.txt", "arm", "xyz")
                    for i in (0, 1)],
    lambda traces: _edit_header(traces / "p001_abba.txt", "scenario", "S9"),
    lambda traces: (traces / "p000_bba.npy").unlink(),
    lambda traces: _cut_bundle(traces / "p000_abba.txt"),
], ids=["arm", "scenario", "missing_npy", "cut_bundle"])
def test_replay_rejects_a_bad_trace_pair_and_writes_no_report(tmp_path, capsys, edit):
    _, out = _run(tmp_path, "out_a")
    for report in (out / "report_T1D.csv", out / "chart_T1D.svg"):
        report.unlink()
    edit(out / "traces")
    capsys.readouterr()
    assert cli.main(["replay", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: p00")
    assert not (out / "report_T1D.csv").exists()
    assert not (out / "chart_T1D.svg").exists()


def test_report_prints_comparison_table(tmp_path, capsys):
    _, out = _run(tmp_path, "out_a")
    assert cli.main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "tir_pct" in text
    assert "rescue activations" in text
    assert "[last4w]" in text


# The first 16 hex digits of the sha256 of report_<type>.csv, chart_<type>.svg
# and the `abbalab report` table, for criterion 9's config and for one with
# five or more pairs (so the Lilliefors gate and the t-test run). A change that
# moves the numbers on purpose re-pins them. The CSV and the SVG carry the
# config hash, so a change of config keys re-pins those two: trace schema v7
# dropped three keys, and every number and the table stayed the same.
REPORT_DIGESTS = {
    "s1_t1d_n2": (("S1", "T1D", 2, 7, 30),
                  ("c1480c2a247a1013", "2f67a22e8292de6f", "3863bf822683c7c3")),
    "s4_t2d_n6": (("S4", "T2D", 6, 1, 45),
                  ("5b3be94f1ff3d16d", "5af3b35c673dbaf5", "edb5023ccec0ec66")),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_outputs_keep_their_pinned_digests(tmp_path, capsys, name):
    (scenario, dtype, n, seed, days), pinned = REPORT_DIGESTS[name]
    cfg = _config(tmp_path, f"[run]\nscenario = {scenario}\ndiabetes_type = {dtype}\n"
                            f"cohort_size = {n}\nseed = {seed}\ndays = {days}\n"
                            "arms = abba,bba\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--out", str(out)]) == 0
    texts = ((out / f"report_{dtype}.csv").read_bytes(),
             (out / f"chart_{dtype}.svg").read_bytes(),
             capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(t).hexdigest()[:16] for t in texts) == pinned


def test_parallel_run_matches_serial_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    _, out_serial = _run(tmp_path, "serial")
    for jobs in (2, 3):                 # 3 processes do not divide the 4 trials
        _, out_par = _run(tmp_path, f"jobs{jobs}", extra_args=["--jobs", str(jobs)])
        match, mismatch, errors = filecmp.cmpfiles(
            out_serial / "traces", out_par / "traces",
            [p.name for p in (out_serial / "traces").iterdir()], shallow=False)
        assert len(match) == 8 and not mismatch and not errors
        for name in ("report_T1D.csv", "chart_T1D.svg", "failures.txt"):
            assert (out_serial / name).read_bytes() == (out_par / name).read_bytes()


def test_run_reports_without_parsing_a_trace(tmp_path, monkeypatch):
    def no_parse(text, glucose):
        raise AssertionError("run parsed a trace")

    with monkeypatch.context() as patch:
        patch.setattr(proto, "trace_from_text", no_parse)
        rc, out = _run(tmp_path, "out_a")
    assert rc == 0
    report = (out / "report_T1D.csv").read_bytes()
    chart = (out / "chart_T1D.svg").read_bytes()
    assert cli.main(["replay", "--out", str(out)]) == 0
    assert (out / "report_T1D.csv").read_bytes() == report
    assert (out / "chart_T1D.svg").read_bytes() == chart


@pytest.mark.parametrize("command", ["run", "replay"])
def test_each_trial_is_released_before_the_next_is_reduced(tmp_path, monkeypatch,
                                                           command):
    _, out = _run(tmp_path, "out_a")
    real_reduce = ana.reduce_trial
    seen = []

    def reduce_trial(result, windows):
        assert all(ref() is None for ref in seen), "an earlier trial is still held"
        seen.append(weakref.ref(result))
        return real_reduce(result, windows)

    monkeypatch.setattr(ana, "reduce_trial", reduce_trial)
    if command == "run":
        rc, _ = _run(tmp_path, "out_b", ["--jobs", "1"])
    else:
        rc = cli.main(["replay", "--out", str(out)])
    assert rc == 0
    assert len(seen) == 4


# --- failures, dirty directories, worker count ------------------------------------

def test_failed_trial_is_reported_and_its_patient_left_unpaired(tmp_path, monkeypatch):
    real_trial, real_integrate = proto.run_trial, pat.load_kernel()
    days = itertools.count(1)

    def faulty_integrate(y, c, sens, cho, g_out, m0, m1, rescue):
        if m0 == 0 and next(days) == 21:        # day 21's first segment: on-line phase
            raise pat.SimulationFault("injected")
        return real_integrate(y, c, sens, cho, g_out, m0, m1, rescue)

    def trial(params, arm, *args, **kwargs):
        faulty = (params.id, arm) == (1, proto.ABBA)
        monkeypatch.setattr(pat, "_kernel", faulty_integrate if faulty else real_integrate)
        return real_trial(params, arm, *args, **kwargs)

    monkeypatch.setattr(proto, "run_trial", trial)
    rc, out = _run(tmp_path, "out_a")
    assert rc == 1
    manifest = (out / "failures.txt").read_text().splitlines()
    assert "# failures 1 of 4 trials" in manifest
    assert "p001 abba SimulationFault: injected" in manifest
    assert not (out / "traces" / "p001_abba.txt").exists()
    assert proto.read_trace(out / "traces" / "p000_abba.txt")[0].final_agents is not None
    report = (out / "report_T1D.csv").read_bytes()
    rows = [line.split(",") for line in report.decode().splitlines()
            if line.startswith("full,tir_pct,")]
    assert len(rows) == 3 and all(row[3] == "1" for row in rows)   # p000 only
    assert cli.main(["replay", "--out", str(out)]) == 0
    assert (out / "report_T1D.csv").read_bytes() == report


def test_run_refuses_a_directory_holding_another_runs_traces(tmp_path, monkeypatch, capsys):
    _, out = _run(tmp_path, "out_a")
    calls = []
    monkeypatch.setattr(proto, "run_trial", lambda *a, **k: calls.append(a))
    rc, _ = _run(tmp_path, "out_a")
    assert rc == 2
    assert calls == []
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below_a_file"])
def test_run_refuses_an_output_path_that_is_a_file(tmp_path, monkeypatch, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    calls = []
    monkeypatch.setattr(proto, "run_trial", lambda *a, **k: calls.append(a))
    rc = cli.main(["run", "--config", _config(tmp_path, SMOKE),
                   "--out", str(taken.joinpath(*below))])
    assert rc == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: cannot create ")
    assert taken.read_text() == "not a directory\n"


def test_worker_count_is_capped_by_tasks_and_cpus(tmp_path, monkeypatch):
    sizes = []

    def run_forked(tasks, jobs):
        """Records the process count it is asked for; runs the tasks in-process."""
        sizes.append(jobs)
        return [cli._run_one(t) for t in tasks]

    monkeypatch.setattr(cli, "_run_forked", run_forked)
    short = SMOKE.replace("days = 30", "days = 15")
    cfg = _config(tmp_path, short)
    for n, (cpus, jobs) in enumerate([(64, 8), (3, 8), (64, 2), (1, 8)]):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
        out = tmp_path / f"out{n}"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--jobs", str(jobs)]) == 0
    # 4 tasks: capped by the tasks, then the CPUs, then jobs; 1 CPU runs serially.
    assert sizes == [4, 3, 2]


def test_a_killed_child_fails_only_its_unfinished_trials(tmp_path, monkeypatch):
    parent, real_run_one, done_in_child = os.getpid(), cli._run_one, []

    def run_one(task):
        status = real_run_one(task)             # writes the trace pair
        if os.getpid() != parent:
            done_in_child.append(task)
            if len(done_in_child) == 2:         # its status is never sent
                os.kill(os.getpid(), signal.SIGKILL)
        return status

    def hung(signum, frame):
        raise TimeoutError("run did not return")

    monkeypatch.setattr(cli, "_run_one", run_one)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = _config(tmp_path, SMOKE.replace("cohort_size = 2", "cohort_size = 3")
                  .replace("days = 30", "days = 15"))
    out = tmp_path / "out"
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        rc = cli.main(["run", "--config", cfg, "--out", str(out), "--jobs", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 1
    # Arm-major tasks, the child's stride is abba p1, bba p0, bba p2: it dies
    # after writing bba p0's trace and before reporting it.
    manifest = (out / "failures.txt").read_text().splitlines()
    assert manifest[2:] == [
        "# failures 2 of 6 trials",
        "p000 bba WorkerLost: worker exit status -9 (SIGKILL)",
        "p002 bba WorkerLost: worker exit status -9 (SIGKILL)"]
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        f"p00{i}_{arm}{suffix}" for i, arm in
        ((0, "abba"), (1, "abba"), (1, "bba"), (2, "abba"))
        for suffix in (".npy", ".txt")]
    rows = [line.split(",") for line in (out / "report_T1D.csv").read_text()
            .splitlines() if line.startswith("full,tir_pct,")]
    assert len(rows) == 3 and all(row[3] == "1" for row in rows)   # p001 only
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_never_waits_on_a_full_pipe_while_the_parent_runs(tmp_path,
                                                                    monkeypatch):
    parent, done = os.getpid(), tmp_path / "child_done"
    tasks = [(cli.RunConfig(out=str(tmp_path)), {}, types.SimpleNamespace(id=i),
              proto.BBA) for i in range(20)]
    seen = []

    def run_one(task):
        i = task[2].id
        if os.getpid() != parent:
            if i == 19:                         # every earlier status was sent
                done.touch()
            return (i, proto.BBA, "x" * (1 << 14), None)    # 10 x 16 KiB > a pipe
        time.sleep(0.02)
        if i == 18:                             # the parent's last trial
            deadline = time.monotonic() + 10.0
            while not done.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            seen.append(done.exists())
        return (i, proto.BBA, None, None)

    monkeypatch.setattr(cli, "_run_one", run_one)
    statuses = cli._run_forked(tasks, 2)
    assert seen == [True]
    assert [s[0] for s in statuses] == list(range(20))
    assert all(s[2] == "x" * (1 << 14) for s in statuses[1::2])


def test_trial_that_cannot_be_reduced_writes_nothing_and_is_left_unpaired(
        tmp_path, monkeypatch):
    real_reduce = ana.reduce_trial

    def reduce_trial(result, windows):
        if (result.patient.id, result.arm) == (0, proto.ABBA):
            raise ValueError("injected")
        return real_reduce(result, windows)

    monkeypatch.setattr(ana, "reduce_trial", reduce_trial)
    rc, out = _run(tmp_path, "out_a")
    monkeypatch.setattr(ana, "reduce_trial", real_reduce)
    assert rc == 1
    manifest = (out / "failures.txt").read_text().splitlines()
    assert "# failures 1 of 4 trials" in manifest
    assert "p000 abba ValueError: injected" in manifest
    assert sorted(p.name for p in (out / "traces").glob("*.txt")) == \
        ["p000_bba.txt", "p001_abba.txt", "p001_bba.txt"]
    assert proto.read_trace(out / "traces" / "p001_abba.txt")[0].final_agents is not None
    report = (out / "report_T1D.csv").read_bytes()
    rows = [line.split(",") for line in report.decode().splitlines()
            if line.startswith("full,tir_pct,")]
    assert len(rows) == 3 and all(row[3] == "1" for row in rows)   # p001 only
    chart = (out / "chart_T1D.svg").read_bytes()
    assert cli.main(["replay", "--out", str(out)]) == 0
    assert (out / "report_T1D.csv").read_bytes() == report
    assert (out / "chart_T1D.svg").read_bytes() == chart


# --- entry point ------------------------------------------------------------------

def _blas_probe(module, openblas_threads):
    """Import `module` then scipy.special in a fresh interpreter whose
    OPENBLAS_NUM_THREADS is `openblas_threads` (None: unset); its thread
    count (-1 without /proc) and OPENBLAS_NUM_THREADS afterwards."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import os, {module}, scipy.special; t = '/proc/self/task'; "
            "print(len(os.listdir(t)) if os.path.isdir(t) else -1, "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return int(out[0]), out[1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_command_process_runs_one_blas_thread():
    assert _blas_probe("abbalab.__main__", None) == (1, "1")


def test_explicit_blas_thread_count_wins():
    assert _blas_probe("abbalab.__main__", "2")[1] == "2"


def test_library_import_leaves_the_environment_alone():
    assert _blas_probe("abbalab.cli", None)[1] == "None"


def test_console_script_enters_through_the_thread_pin():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["abbalab"] == "abbalab.__main__:main"
