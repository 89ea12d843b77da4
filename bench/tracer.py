"""Run one abbalab command in this process with its layers' functions wrapped.

    python bench/tracer.py STATS.json -- run --config run.ini --out out/
    python bench/tracer.py --profile 25 -- run --config run.ini --out out/

The first form imports `abbalab.cli`, replaces the module attributes listed in
LAYERS with timing wrappers, runs `abbalab.cli.main` on the arguments after
`--` and writes per-call counts, summed times, per-layer self times and the
per-trial spans to STATS.json. The package calls these functions through
module attributes (`proto.run_trial`, `pat._rk4_minute`, ...), so no file
under src/ is edited. Hot functions (about 130k `_rk4_minute` calls per
90-day trial) are aggregated as a count plus summed time, not one span each.

The second form runs the same command under cProfile instead and prints the
top entries by own time. Neither form is used by a timed run.

abbalab must be importable (run.py sets PYTHONPATH to the checkout's src/).
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys
import time

# Layer -> wrapped attributes of abbalab.<layer>. `cli` also owns file reads
# and writes (pathlib.Path.read_text / write_text): only the CLI touches
# files, and the checkpoint write runs inside run_trial via a callback.
LAYERS = {
    "patient": ("_rk4_minute", "read_smbg", "generate_cohort",
                "equilibrium_state"),
    "protocol": ("run_trial", "trace_to_text", "trace_from_text"),
    "advisor": ("critic_update", "actor_update", "policy", "iob",
                "apply_action", "bolus_features", "basal_features",
                "build_state", "bolus_recommendation", "bba_recommendation",
                "correction_bolus", "bundle_to_text"),
    "initialisation": ("initialise_agents",),
    "analytics": ("summarize_cohort", "reduce_trial", "build_report",
                  "paired_compare", "lilliefors", "report_to_csv",
                  "chart_svg"),
    "cli": ("main",),
}
PATH_IO = ("read_text", "write_text")


class Tracer:
    """Span stack kept in memory; written out once the command returns.

    A span's self time is its duration minus the time of the wrapped calls
    made inside it, so the layers' self times sum to the top-level spans.
    `busy` counts only a layer's entry calls (parent span in another layer).
    """

    def __init__(self) -> None:
        self.child_time = [0.0]
        self.layer_stack = [""]
        self.calls: dict[str, list] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.busy_s = dict.fromkeys(LAYERS, 0.0)
        self.trials: list[list] = []
        self.trace_bytes = {"written": 0, "parsed": 0}

    def wrap(self, layer: str, owner, name: str, on_return=None) -> None:
        fn = getattr(owner, name, None)
        if fn is None:          # renamed or removed: its metrics read absent
            return
        stat = self.calls[f"{layer}.{name}"] = [0, 0.0]
        child_time, layer_stack = self.child_time, self.layer_stack
        self_s, busy_s = self.self_s, self.busy_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            layer_stack.append(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer_stack.pop()
                inner = child_time.pop()
                child_time[-1] += dt
                stat[0] += 1
                stat[1] += dt
                self_s[layer] += dt - inner
                if layer_stack[-1] != layer:
                    busy_s[layer] += dt
            if on_return is not None:
                on_return(args, kwargs, result, dt, dt - inner)
            return result

        setattr(owner, name, wrapper)

    def install(self) -> None:
        hooks = {
            "run_trial": self._on_trial,
            "trace_to_text": self._on_trace_written,
            "trace_from_text": self._on_trace_parsed,
        }
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"abbalab.{layer}")
            for name in names:
                self.wrap(layer, module, name, hooks.get(name))
        for name in PATH_IO:
            self.wrap("cli", pathlib.Path, name)

    def _on_trial(self, args, kwargs, result, dt, own) -> None:
        arm = args[1] if len(args) > 1 else kwargs.get("advisor_kind")
        self.trials.append([arm, dt, own])

    def _on_trace_written(self, args, kwargs, result, dt, own) -> None:
        self.trace_bytes["written"] += len(result.encode())

    def _on_trace_parsed(self, args, kwargs, result, dt, own) -> None:
        text = args[0] if args else kwargs["text"]
        self.trace_bytes["parsed"] += len(text.encode())

    def stats(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "busy_s": self.busy_s, "trials": self.trials,
                "trace_bytes": self.trace_bytes}


def _traced(stats_path: str, argv: list[str]) -> int:
    import abbalab.cli as cli
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(stats_path, "w") as fh:
        json.dump(tracer.stats(), fh)
    return code


def _profiled(top: int, argv: list[str]) -> int:
    import cProfile
    import pstats
    import abbalab.cli as cli
    profiler = cProfile.Profile()
    code = profiler.runcall(cli.main, argv)
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(top)
    return code


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    head, command = argv[:split], argv[split + 1:]
    if len(head) == 2 and head[0] == "--profile":
        return _profiled(int(head[1]), command)
    if len(head) == 1:
        return _traced(head[0], command)
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
