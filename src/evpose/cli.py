"""Command-line front door composing the modules into batch pipelines.

Subcommands: simulate, tore, filter, eval, bench. Every parameter can
come from a ``key = value`` config file (--config), be overridden on the
command line, and the fully resolved configuration can be emitted with
--manifest for exact reruns. All randomness flows from explicit seeds.

Exit codes: 0 success, 2 config error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import camera as cam_mod
from . import events as ev
from . import gating
from . import metrics as met
from . import representations as rep
from . import simulator as sim
from .errors import ConfigError, DataError, ToolkitError, from_file


# -- config file: `key = value` lines, strings quoted, # comments ----------------


def render_config(config: dict) -> str:
    lines = []
    for key in sorted(config):
        v = config[key]
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, (int, float)):
            s = repr(v)
        elif isinstance(v, str):
            s = json.dumps(v)
        else:
            raise ConfigError(f"unsupported config value type for {key}: {type(v)}")
        lines.append(f"{key} = {s}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict:
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"config line {ln}: empty key")
        if val in ("true", "false"):
            out[key] = val == "true"
            continue
        if val.startswith('"'):
            try:
                out[key] = json.loads(val)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config line {ln}: bad string literal: {e}") from e
            continue
        try:
            out[key] = int(val)
            continue
        except ValueError:
            pass
        try:
            out[key] = float(val)
            continue
        except ValueError:
            pass
        raise ConfigError(f"config line {ln}: cannot parse value {val!r} "
                          "(strings must be quoted)")
    return out


@dataclass(frozen=True)
class Param:
    name: str
    type: type
    default: object = None
    required: bool = False
    help: str = ""


def _resolve(params: list[Param], args: argparse.Namespace) -> dict:
    config: dict = {p.name: p.default for p in params if p.default is not None}
    if args.config:
        loaded = parse_config(Path(args.config).read_text())
        known = {p.name: p for p in params}
        for key, val in loaded.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            want = known[key].type
            if want is float and isinstance(val, int):
                val = float(val)
            if not isinstance(val, want) or (want is not bool and isinstance(val, bool)):
                raise ConfigError(f"config key {key!r} should be {want.__name__}")
            config[key] = val
    for p in params:
        v = getattr(args, p.name)
        if v is not None:
            config[p.name] = v
    missing = [p.name for p in params if p.required and p.name not in config]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    return config


def _add_params(sub: argparse.ArgumentParser, params: list[Param]) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--manifest", help="write the resolved config here")
    for p in params:
        flag = "--" + p.name.replace("_", "-")
        if p.type is bool:
            sub.add_argument(flag, dest=p.name, default=None,
                             action=argparse.BooleanOptionalAction, help=p.help)
        else:
            sub.add_argument(flag, dest=p.name, type=p.type, default=None, help=p.help)


def _emit_manifest(config: dict, args, out_dir: Path | None = None,
                   echo: bool = False) -> None:
    text = render_config(config)
    if echo:
        sys.stdout.write(text)
    if args.manifest:
        Path(args.manifest).write_text(text)
    if out_dir is not None:
        (out_dir / "manifest.cfg").write_text(text)


# -- simulate ---------------------------------------------------------------------

SIMULATE_PARAMS = [
    Param("frames", str, required=True, help="foreground frame directory"),
    Param("masks", str, help="foreground mask directory (with background)"),
    Param("background", str, help="background frame directory"),
    Param("skeleton", str, help="skeleton label CSV (t_us,joint_name,x_mm,y_mm,z_mm)"),
    Param("cam", str, help="camera text file (9 + 12 floats)"),
    Param("out", str, required=True, help="output directory"),
    Param("interpolate", int, 1, help="linear frame interpolation factor"),
    Param("theta_pos", float, 0.2),
    Param("theta_neg", float, 0.2),
    Param("leak_rate_hz", float, 0.0),
    Param("shot_noise_scale", float, 0.0),
    Param("eps", float, 0.02),
    Param("seed", int, 0),
    Param("heatmap_resolution", int, 64),
    Param("heatmap_sigma", float, 2.0),
]


def cmd_simulate(args) -> int:
    config = _resolve(SIMULATE_PARAMS, args)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = sim.load_frame_sequence(config["frames"])
    if ("masks" in config) != ("background" in config):
        raise ConfigError("masks and background must be given together")
    if "masks" in config:  # masks load before the background; neither outlives composite
        frames = sim.composite(frames, sim.load_mask_sequence(config["masks"]),
                               sim.load_frame_sequence(config["background"]))
    if config["interpolate"] > 1:
        frames = sim.interpolate_linear(frames, config["interpolate"])
    params = sim.PixelModelParams(
        theta_pos=config["theta_pos"], theta_neg=config["theta_neg"],
        leak_rate_hz=config["leak_rate_hz"],
        shot_noise_scale=config["shot_noise_scale"],
        eps=config["eps"], seed=config["seed"])
    stream = sim.frames_to_events(frames, params)
    ev.write_stream(out_dir / "events.evt1", stream)

    if ("skeleton" in config) != ("cam" in config):
        raise ConfigError("skeleton and cam must be given together")
    if "skeleton" in config:
        cam = cam_mod.load_camera(config["cam"])
        skeletons = sim.read_skeleton_csv(config["skeleton"])
        sim.write_skeleton_csv(out_dir / "skeleton.csv", skeletons)
        cam_mod.save_camera(out_dir / "camera.txt", cam)
        for s in skeletons:
            norm = sim.normalize_labels(s, cam)
            triplets = sim.make_heatmaps(norm, config["heatmap_resolution"],
                                         config["heatmap_sigma"])
            stack = np.concatenate([np.stack([t.xy, t.xz, t.zy]) for t in triplets])
            rep.write_tensor(out_dir / f"heatmaps_{s.t_us:012d}.tore",
                             stack.astype(np.float32))
    _emit_manifest(config, args, out_dir, echo=True)
    return 0


# -- tore -------------------------------------------------------------------------

TORE_PARAMS = [
    Param("events", str, required=True, help="EVT1 input file"),
    Param("out", str, required=True, help="output directory"),
    Param("k", int, rep.DEFAULT_K, help="FIFO depth per pixel per polarity"),
    Param("tau_us", int, rep.DEFAULT_TAU_US, help="max retained event age"),
    Param("window_us", int, 20_000),
    Param("origin_us", int, 0),
    Param("emit_empty", bool, False,
          help="emit one all-zero tensor when the stream is empty"),
    Param("text_dump", bool, False, help="also write lossless text dumps"),
]


def cmd_tore(args) -> int:
    config = _resolve(TORE_PARAMS, args)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = ev.read_stream(config["events"])
    written = 0
    for i, vol in enumerate(rep.window_volumes(stream, config["k"], config["tau_us"],
                                               config["window_us"], config["origin_us"])):
        path = out_dir / f"tore_{i:05d}.tore"
        rep.write_tensor(path, vol.data)
        if config["text_dump"]:
            rep.write_tensor_text(path.with_suffix(".txt"), vol.data)
        written += 1
    if len(stream) == 0 and config["emit_empty"]:
        # an empty FIFO materializes to exactly 0 at any query time
        g = stream.geometry
        rep.write_tensor(out_dir / "tore_00000.tore",
                         np.zeros((2 * config["k"], g.height, g.width), np.float32))
        written = 1
    print(f"wrote {written} tensor(s) to {out_dir}")
    _emit_manifest(config, args, out_dir)
    return 0


# -- filter -----------------------------------------------------------------------

FILTER_PARAMS = [
    Param("events", str, required=True, help="EVT1 input file"),
    Param("out", str, required=True, help="output directory"),
    Param("k", int, rep.DEFAULT_K),
    Param("tau_us", int, rep.DEFAULT_TAU_US),
    Param("window_us", int, 20_000),
    Param("origin_us", int, 0),
    Param("beta", float, 0.95, help="mask reuse threshold"),
    Param("horizon", int, 4, help="masks per backend invocation"),
    Param("activity_percentile", float, 80.0),
    Param("external_masks", str, help="MSK1 mask stack replacing the reference backend"),
    Param("external_scores", str, help="CSV of per-frame plan scores for external masks"),
]


def cmd_filter(args) -> int:
    config = _resolve(FILTER_PARAMS, args)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = ev.read_stream(config["events"])
    if "external_masks" in config:
        _, masks = gating.read_masks(config["external_masks"])
        scores = None
        if "external_scores" in config:
            with from_file(config["external_scores"]):
                scores = np.loadtxt(config["external_scores"], delimiter=",", ndmin=2)
        backend = gating.ExternalMaskBackend(masks, config["window_us"],
                                             config["origin_us"], config["horizon"], scores)
    else:
        backend = gating.ReferenceMaskBackend(gating.ReferenceBackendParams(
            horizon=config["horizon"],
            activity_percentile=config["activity_percentile"]))
    volumes = rep.window_volumes(stream, config["k"], config["tau_us"],
                                 config["window_us"], config["origin_us"])
    calls = 0
    with open(out_dir / "schedule.csv", "w") as schedule, \
            gating.MaskStackWriter(out_dir / "masks.msk1", stream.geometry) as masks_out:
        schedule.write(gating.SCHEDULE_HEADER)
        for vol, entry, mask in gating.iter_schedule(volumes, backend, config["beta"]):
            masked = gating.apply_mask(vol, mask)
            rep.write_tensor(out_dir / f"masked_{entry.frame:05d}.tore", masked.data)
            schedule.write(gating.schedule_row(entry))
            masks_out.append(mask)
            calls += entry.recompute
    print(f"{masks_out.count} window(s), {calls} backend call(s)")
    _emit_manifest(config, args, out_dir)
    return 0


# -- eval -------------------------------------------------------------------------

EVAL_PARAMS = [
    Param("manifest_json", str, required=True,
          help="evaluation manifest listing pred/gt pose files and tags"),
    Param("out", str, required=True, help="report CSV path"),
    Param("group_by", str, "", help="comma-separated condition axes"),
]


def cmd_eval(args) -> int:
    config = _resolve(EVAL_PARAMS, args)
    records = met.load_eval_manifest(config["manifest_json"])
    group_by = tuple(a for a in config["group_by"].split(",") if a)
    report = met.evaluate(records, group_by=group_by)
    met.report_to_csv(report, config["out"], joint_names=sim.JOINT_NAMES_13)
    print(met.format_report(report, joint_names=sim.JOINT_NAMES_13))
    _emit_manifest(config, args)
    return 0


# -- bench ------------------------------------------------------------------------

BENCH_PARAMS = [
    Param("n_events", int, 2_000_000),
    Param("duration_us", int, 1_000_000),
    Param("seed", int, 0),
    Param("k", int, rep.DEFAULT_K),
    Param("tau_us", int, rep.DEFAULT_TAU_US),
    Param("window_us", int, 20_000),
    Param("width", int, 346),
    Param("height", int, 260),
    Param("out", str, help="write the report as key = value text"),
]


def bench_fixture(config) -> ev.EventStream:
    geometry = ev.SensorGeometry(width=config["width"], height=config["height"])
    rng = np.random.default_rng(config["seed"])
    n = config["n_events"]
    t = np.sort(rng.integers(0, config["duration_us"], n)).astype(np.uint64)
    return ev.EventStream.from_arrays(
        geometry, t,
        rng.integers(0, geometry.width, n).astype(np.uint16),
        rng.integers(0, geometry.height, n).astype(np.uint16),
        rng.choice(np.array([-1, 1], dtype=np.int8), n))


def run_bench(config) -> dict:
    stream = bench_fixture(config)
    blob = ev.serialize_stream(stream)

    start = time.perf_counter()
    parsed = ev.parse_stream(blob)
    parse_s = time.perf_counter() - start

    state = rep.ToreState(geometry=parsed.geometry, k=config["k"],
                          tau_us=config["tau_us"])
    start = time.perf_counter()
    state.ingest_stream(parsed)
    ingest_s = time.perf_counter() - start

    start = time.perf_counter()
    windows = sum(1 for _ in rep.window_volumes(parsed, config["k"], config["tau_us"],
                                                config["window_us"], 0))
    windows_s = time.perf_counter() - start

    n = len(parsed)
    return {
        "events": n,
        "parse_s": parse_s,
        "parse_events_per_s": n / parse_s,
        "ingest_s": ingest_s,
        "ingest_events_per_s": n / ingest_s,
        "combined_events_per_s": n / (parse_s + ingest_s),
        "windows": windows,
        "windows_s": windows_s,
        "windows_per_s": windows / windows_s if windows_s > 0 else 0.0,
    }


def cmd_bench(args) -> int:
    config = _resolve(BENCH_PARAMS, args)
    report = run_bench(config)
    text = render_config(report)
    sys.stdout.write(text)
    if "out" in config:
        Path(config["out"]).write_text(text)
    if args.manifest:
        Path(args.manifest).write_text(render_config(config))
    return 0


# -- entry point --------------------------------------------------------------------

_COMMANDS = {
    "simulate": (cmd_simulate, SIMULATE_PARAMS,
                 "render frame sequences into events and paired labels"),
    "tore": (cmd_tore, TORE_PARAMS, "build decay-volume tensors per time window"),
    "filter": (cmd_filter, FILTER_PARAMS,
               "apply scheduled body masks to decay volumes"),
    "eval": (cmd_eval, EVAL_PARAMS, "score predicted poses against ground truth"),
    "bench": (cmd_bench, BENCH_PARAMS, "parse/ingest throughput and the window loop rate"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpose", description="event-camera pose pipeline toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, params, help_text) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        _add_params(sub, params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except ToolkitError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # noqa: BLE001 - surface as invariant violation
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
