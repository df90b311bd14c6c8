"""Benchmark of the `evpose tore`, `filter` and `simulate` subcommands.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. The load is a closed loop: one subcommand process at a time, each
started only after the previous one exited and its output was checked.
A round is the workload's fixed list of invocations; a run does one
untimed warm-up round, then whole rounds until S seconds have passed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 120.0
IMPORT_SAMPLES = 5


class Workload:
    """Inputs made from a seed, the invocations of one round, and their checks."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.work = work

    def round(self) -> list[dict]:
        """Invocations of one round: argv, output dir, events, windows."""
        raise NotImplementedError

    def check(self, op: dict, stdout: str) -> tuple[list[str], bool]:
        """(problems, hit_known_fault) for one finished invocation."""
        raise NotImplementedError


class ToreDense(Workload):
    name = "tore_dense"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.events = work / "dense.evt1"
        self.info = wl.make_tore_dense(seed, self.events)
        self.expected = checks.expected_volumes(self.events)

    def round(self):
        out = self.work / "out"
        return [{"argv": ["tore", "--events", str(self.events), "--out", str(out),
                          "--k", str(wl.K), "--tau-us", str(wl.TAU_US),
                          "--window-us", str(wl.WINDOW_US)],
                 "out": out, "events": self.info["events"], "windows": self.info["windows"]}]

    def check(self, op, stdout):
        return checks.check_tore(op["out"], self.expected), False


class FilterSilhouette(Workload):
    name = "filter_silhouette"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.events = work / "silhouette.evt1"
        self.info = wl.make_filter_silhouette(seed, self.events)
        self.expected = checks.expected_volumes(self.events)

    def round(self):
        out = self.work / "out"
        return [{"argv": ["filter", "--events", str(self.events), "--out", str(out),
                          "--k", str(wl.K), "--tau-us", str(wl.TAU_US),
                          "--window-us", str(wl.WINDOW_US), "--beta", str(wl.FILTER_BETA)],
                 "out": out, "events": self.info["events"], "windows": self.info["windows"]}]

    def check(self, op, stdout):
        return checks.check_filter(op["out"], self.expected, stdout, wl.FILTER_BETA), False


class SimulateSilhouette(Workload):
    name = "simulate_silhouette"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.clips = wl.make_simulate_silhouette(seed, work / "clips")

    def round(self):
        ops = []
        for c in self.clips:
            clip, d = c["clip"], c["dir"]
            out = self.work / f"out_{clip.name}"
            ops.append({"argv": ["simulate", "--frames", str(d / "frames"),
                                 "--masks", str(d / "masks"), "--background", str(d / "background"),
                                 "--skeleton", str(d / "skeleton.csv"), "--cam", str(d / "camera.txt"),
                                 "--out", str(out), "--interpolate", str(clip.interpolate),
                                 "--theta-pos", str(wl.SIM_THETA), "--theta-neg", str(wl.SIM_THETA),
                                 "--eps", str(wl.SIM_EPS),
                                 "--shot-noise-scale", str(clip.shot_noise_scale),
                                 "--seed", str(c["sim_seed"])],
                        "out": out, "clip": c, "events": 0, "windows": c["windows"]})
        return ops

    def check(self, op, stdout):
        c = op["clip"]
        op["events"] = wl.EVT1_HEADER.unpack_from(
            (op["out"] / "events.evt1").read_bytes()[:wl.EVT1_HEADER.size])[4]
        problems, nan_events = checks.check_simulate(
            op["out"], c["clip"], c["images"], c["dir"] / "skeleton.csv")
        return problems, nan_events > 0


WORKLOADS = {w.name: w for w in (ToreDense, FilterSilhouette, SimulateSilhouette)}


# -- one subcommand process ------------------------------------------------------------


def invoke(op: dict, trace: bool, env: dict) -> dict:
    """Start the subcommand in a fresh interpreter and wait for it to exit."""
    shutil.rmtree(op["out"], ignore_errors=True)
    result = WORK / "child.json"
    result.unlink(missing_ok=True)
    with open(WORK / "child.out", "w+") as out, open(WORK / "child.err", "w+") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(result), str(int(trace)), "--",
                                 *op["argv"]], stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            watchdog.join()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0 or not result.exists():
        return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr}
    r = json.loads(result.read_text())
    return {"exit": r["exit"], "stdout": stdout, "stderr": stderr, "spans": r["spans"],
            "t_ready": r["t_ready"],
            "setup_s": r["t_ready"] - t_spawn,
            "run_s": t_exit - r["t_ready"],
            "cpu_s": usage.ru_utime + usage.ru_stime - r["cpu_ready"],
            "peak_rss_mb": r["peak_rss_kb"] / 1024.0}


# -- per-layer figures from spans ----------------------------------------------------


LAYER_TIMES = ("events.read", "events.slice", "events.write", "representations.ingest",
               "representations.materialize", "representations.write_tensor", "gating.predict",
               "gating.schedule", "gating.apply", "gating.write", "simulator.load",
               "simulator.composite", "simulator.interpolate", "simulator.frames_to_events",
               "simulator.labels")


def layer_figures(res: dict) -> dict:
    """Self time per layer (span minus its child spans) and the counts."""
    spans = res["spans"]
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    fig = {name: 0.0 for name in LAYER_TIMES}
    counts = {"read_events": 0, "ingest_events": 0, "materialize_calls": 0, "bytes": 0,
              "backend_calls": 0, "windows": 0, "reused": 0, "events_out": 0}
    first_output = None
    for i, (name, t0, t1, parent, n) in enumerate(spans):
        if name != "cli":
            fig[name] += (t1 - t0) - child_s[i]
        if name == "events.read":
            counts["read_events"] += n["events"]
        elif name == "representations.ingest":
            counts["ingest_events"] += n["events"]
        elif name == "representations.materialize":
            counts["materialize_calls"] += 1
        elif name == "representations.write_tensor":
            counts["bytes"] += n["bytes"]
            if first_output is None:
                first_output = t1 - res["t_ready"]
        elif name == "gating.predict":
            counts["backend_calls"] += 1
        elif name == "gating.schedule":
            counts["windows"] += n["windows"]
            counts["reused"] += n["reused"]
        elif name == "simulator.frames_to_events":
            counts["events_out"] += n["events"]
    fig["cli.self"] = res["run_s"] - sum(fig[name] for name in LAYER_TIMES)
    fig["run"] = res["run_s"]
    fig["first_output"] = first_output or 0.0
    return {**fig, **counts}


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import time of evpose.cli (with its package) and of
    evpose.gating, from `-X importtime` in fresh interpreters."""
    cli_s, gating_s = [], []
    for i in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import evpose.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import evpose.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                cumulative[(len(m.group(2)), m.group(3))] = int(m.group(1)) * 1e-6
        if i == 0:
            continue  # warm-up: compiles bytecode on a fresh checkout
        cli_s.append(cumulative.get((1, "evpose"), 0.0) + cumulative.get((1, "evpose.cli"), 0.0))
        gating_s.append(next((v for (_, name), v in cumulative.items() if name == "evpose.gating"), 0.0))
    return statistics.median(cli_s), statistics.median(gating_s)


# -- the run ------------------------------------------------------------------------------


def run_round(workload: Workload, trace: bool, env: dict, tally: dict) -> dict:
    """Invoke and check every operation of one round; return the round's figures."""
    fig = {"run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "events": 0, "windows": 0.0,
           "setup_s": [], "layers": [], "spans": [], "complete": True}
    for op in workload.round():
        res = invoke(op, trace, env)
        tally["attempted"] += 1
        if res["exit"] != 0 or "run_s" not in res:
            tally["failed"] += 1
            tally["problems"].append(f"{op['argv'][0]} exited {res['exit']}: {res['stderr'][-300:]}")
            fig["complete"] = False
            continue
        problems, known_fault = workload.check(op, res["stdout"])
        if problems:
            tally["failed"] += 1
            tally["problems"] += problems[:5]
        elif known_fault:
            tally["failed"] += 1
        fig["run_s"] += res["run_s"]
        fig["cpu_s"] += res["cpu_s"]
        fig["peak_rss_mb"] = max(fig["peak_rss_mb"], res["peak_rss_mb"])
        fig["events"] += op["events"]
        fig["windows"] += op["windows"]
        fig["setup_s"].append(res["setup_s"])
        print(f"{op['argv'][0]}: setup {res['setup_s']:.4f} s, run {res['run_s']:.4f} s, "
              f"cpu {res['cpu_s']:.4f} s, peak rss {res['peak_rss_mb']:.1f} MB"
              f"{', trace' if trace else ''}", file=sys.stderr)
        if trace:
            fig["layers"].append(layer_figures(res))
            fig["spans"].append({"argv": op["argv"], "t_ready": res["t_ready"],
                                 "run_s": res["run_s"], "spans": res["spans"]})
    return fig


def end_to_end(rounds: list[dict]) -> dict:
    """Medians over the rounds; set-up over every invocation."""
    def med(values):
        return statistics.median(list(values))

    return {
        "setup_s": (med(s for r in rounds for s in r["setup_s"]), "s"),
        "run_s": (med(r["run_s"] for r in rounds), "s"),
        "events_per_s": (med(r["events"] / r["run_s"] for r in rounds), "1/s"),
        "windows_per_s": (med(r["windows"] / r["run_s"] for r in rounds), "1/s"),
        "cpu_s": (med(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict], imports: tuple[float, float]) -> dict:
    """Means per round over the traced rounds, so the self times add up to
    the traced run time exactly."""
    per_round = []
    for r in traced:
        total: dict = {}
        for inv in r["layers"]:
            for key, v in inv.items():
                total[key] = total.get(key, 0.0) + v
        total["first_output"] /= len(r["layers"])  # a per-invocation time
        per_round.append(total)

    def mean(key):
        return statistics.fmean(r[key] for r in per_round)

    def ratio(num, den):
        return mean(num) / mean(den) if mean(den) > 0 else 0.0

    traced_run = mean("run")
    return {
        "events.read_s": (mean("events.read"), "s"),
        "events.read_events_per_s": (ratio("read_events", "events.read"), "1/s"),
        "events.slice_s": (mean("events.slice"), "s"),
        "events.write_s": (mean("events.write"), "s"),
        "representations.ingest_s": (mean("representations.ingest"), "s"),
        "representations.ingest_events_per_s": (ratio("ingest_events", "representations.ingest"), "1/s"),
        "representations.materialize_s": (mean("representations.materialize"), "s"),
        "representations.materialize_calls": (mean("materialize_calls"), "count"),
        "representations.write_tensor_s": (mean("representations.write_tensor"), "s"),
        "representations.bytes_written": (mean("bytes"), "B"),
        "gating.predict_s": (mean("gating.predict"), "s"),
        "gating.backend_calls": (mean("backend_calls"), "count"),
        "gating.reuse_ratio": (ratio("reused", "windows"), "ratio"),
        "gating.schedule_self_s": (mean("gating.schedule"), "s"),
        "gating.apply_s": (mean("gating.apply"), "s"),
        "gating.write_s": (mean("gating.write"), "s"),
        "simulator.load_s": (mean("simulator.load"), "s"),
        "simulator.composite_s": (mean("simulator.composite"), "s"),
        "simulator.interpolate_s": (mean("simulator.interpolate"), "s"),
        "simulator.frames_to_events_s": (mean("simulator.frames_to_events"), "s"),
        "simulator.events_out": (mean("events_out"), "count"),
        "simulator.labels_s": (mean("simulator.labels"), "s"),
        "cli.self_s": (mean("cli.self"), "s"),
        "cli.first_output_s": (mean("first_output"), "s"),
        "cli.import_s": (imports[0], "s"),
        "gating.import_s": (imports[1], "s"),
        "bench.traced_run_s": (traced_run, "s"),
        "bench.trace_overhead_s": (traced_run - statistics.fmean(r["run_s"] for r in untraced), "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "evpose" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'evpose'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    work = WORK / args.workload
    shutil.rmtree(WORK, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)

    run_round(workload, False, env, {"attempted": 0, "failed": 0, "problems": []})  # warm-up
    tally = {"attempted": 0, "failed": 0, "problems": []}
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_round(workload, False, env, tally))
        if args.trace:
            traced.append(run_round(workload, True, env, tally))
    untraced = [r for r in untraced if r["complete"]]
    traced = [r for r in traced if r["complete"]]
    if not untraced or (args.trace and not traced):
        print("\n".join(tally["problems"][:20]) + "\nno round ran to its end", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced, import_times(env))
        (WORK / f"trace_{args.workload}_{args.seed}.json").write_text(
            json.dumps([inv for r in traced for inv in r["spans"]]))
    else:
        metrics = end_to_end(untraced)
    for p in tally["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not tally["problems"], "attempted": tally["attempted"],
                      "failed": tally["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
