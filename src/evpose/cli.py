"""Command-line front door composing the modules into batch pipelines.

Subcommands: simulate, tore, filter, eval, bench. Every parameter can
come from a ``key = value`` config file (--config), be overridden on the
command line, and the fully resolved configuration can be emitted with
--manifest for exact reruns. All randomness flows from explicit seeds.
Each value in a config file, manifest or bench report is one JSON
scalar: a number, true/false or a double-quoted string. A subcommand's
options, and the library modules their defaults and its run read, are
loaded only when that subcommand is parsed.

Exit codes: 0 success, 2 config error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, DataError, GeometryMismatch, check_budget, check_range, from_file

if TYPE_CHECKING:
    from .events import EventStream


# -- config file: `key = value` lines, each value a JSON scalar, # comments ---------

SCALARS = (bool, int, float, str)  # the JSON scalars: numbers, true/false and strings


def render_config(config: dict) -> str:
    for key, v in config.items():
        if not isinstance(v, SCALARS):
            raise ConfigError(f"unsupported config value type for {key}: {type(v)}")
    return "\n".join(f"{key} = {json.dumps(config[key])}" for key in sorted(config)) + "\n"


def parse_config(text: str) -> dict:
    out: dict = {}
    lines: dict = {}  # the line each key was set on
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
        if lines.setdefault(key, ln) != ln:
            raise ConfigError(f"config line {ln}: key {key!r} repeats line {lines[key]}")
        out[key] = None  # text that is not JSON, or an int of too many digits, fails as null does
        with contextlib.suppress(ValueError):
            out[key] = json.loads(val)
        if not isinstance(out[key], SCALARS):
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
        known = {p.name: p for p in params}
        try:
            for key, val in parse_config(Path(args.config).read_text()).items():
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
                want = known[key].type
                if want is float and type(val) is int and abs(val) <= sys.float_info.max:
                    val = float(val)
                if not isinstance(val, want) or (want is not bool and isinstance(val, bool)):
                    raise ConfigError(f"config key {key!r} should be {want.__name__}")
                config[key] = val
        except (ConfigError, UnicodeDecodeError) as e:
            raise ConfigError(f"{args.config}: {e}") from e
    for p in params:
        v = getattr(args, p.name)
        if v is not None:
            config[p.name] = v
        if p.type is int and p.name in config:  # no setting needs more, nor can numpy hold it
            check_range(p.name, config[p.name], -2**63, 2**64 - 1)
    missing = [p.name for p in params if p.required and p.name not in config]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    return config


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its options when it first parses:
    `params` imports the library modules their defaults come from, so only
    the chosen subcommand's modules are loaded."""

    def __init__(self, *args, params: Callable[[], list[Param]], **kwargs):
        super().__init__(*args, **kwargs)
        self._params = params

    def parse_known_args(self, args=None, namespace=None):
        if self._params is not None:
            _add_params(self, self._params())
            self._params = None
        return super().parse_known_args(args, namespace)


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


def _write_config(config: dict, *paths, echo: bool = False) -> None:
    """render_config's text to stdout if echo, and to each path that is not None."""
    text = render_config(config)
    if echo:
        sys.stdout.write(text)
    for path in filter(None, paths):
        Path(path).write_text(text)


# -- simulate ---------------------------------------------------------------------

# the PixelModelParams fields simulate takes as options, with the library's defaults
PIXEL_MODEL_OPTIONS = ("theta_pos", "theta_neg", "leak_rate_hz", "shot_noise_scale", "eps", "seed")

def simulate_params() -> list[Param]:
    from . import simulator as sim

    return [
        Param("frames", str, required=True, help="foreground frame directory"),
        Param("masks", str, help="foreground mask directory (with background)"),
        Param("background", str, help="background frame directory"),
        Param("skeleton", str, help="skeleton label CSV (t_us,joint_name,x_mm,y_mm,z_mm)"),
        Param("cam", str, help="camera text file (9 + 12 floats)"),
        Param("out", str, required=True, help="output directory"),
        Param("interpolate", int, 1, help="linear frame interpolation factor"),
        *(Param(name, type(getattr(sim.PixelModelParams, name)),
                getattr(sim.PixelModelParams, name))
          for name in PIXEL_MODEL_OPTIONS),
        Param("heatmap_resolution", int, sim.HEATMAP_RESOLUTION),
        Param("heatmap_sigma", float, sim.HEATMAP_SIGMA),
    ]


def cmd_simulate(args) -> int:
    from . import camera as cam_mod, events as ev, representations as rep, simulator as sim

    config = _resolve(simulate_params(), args)
    for a, b in (("masks", "background"), ("skeleton", "cam")):
        if (a in config) != (b in config):
            raise ConfigError(f"{a} and {b} must be given together")
    params = sim.PixelModelParams(**{name: config[name] for name in PIXEL_MODEL_OPTIONS})
    sim.check_heatmap_settings(config["heatmap_resolution"], config["heatmap_sigma"])
    fg = sim.list_frames(config["frames"])
    frames = iter(fg)
    if "masks" in config:
        frames = sim.iter_composite(fg, sim.list_frames(config["masks"]),
                                    sim.list_frames(config["background"]))
    frames = sim.iter_interpolated(frames, config["interpolate"])
    if "skeleton" in config:
        cam = cam_mod.load_camera(config["cam"])
        skeletons = sim.read_skeleton_csv(config["skeleton"])
        heatmap = config["heatmap_resolution"], config["heatmap_sigma"]
        with from_file(config["skeleton"]):
            labels = [sim.normalize_labels(s, cam, heatmap) for s in skeletons]
    # iter_events draws two frames, so every input is checked before out_dir exists
    chunks = sim.iter_events(frames, fg.geometry, fg.fps * config["interpolate"], params)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config(config, args.manifest, out_dir / "manifest.cfg", echo=True)
    # one frame interval at a time: frames are read, blended, interpolated,
    # turned into events and written before the next interval
    with ev.EventStreamWriter(out_dir / "events.evt1", fg.geometry) as events:
        for chunk in chunks:
            events.append(*chunk)

    if "skeleton" in config:
        sim.write_skeleton_csv(out_dir / "skeleton.csv", skeletons)
        cam_mod.save_camera(out_dir / "camera.txt", cam)
        for s, norm in zip(skeletons, labels):
            rep.write_tensor(out_dir / f"heatmaps_{s.t_us:012d}.tore",
                             sim.make_heatmaps(norm, *heatmap).astype(np.float32))
    return 0


# -- tore -------------------------------------------------------------------------

# the event file, output directory and windowing: `tore`'s settings, all shared by `filter`
def window_params() -> list[Param]:
    from . import events as ev, representations as rep

    return [
        Param("events", str, required=True, help="EVT1 input file"),
        Param("out", str, required=True, help="output directory"),
        Param("k", int, rep.DEFAULT_K, help="FIFO depth per pixel per polarity"),
        Param("tau_us", int, rep.DEFAULT_TAU_US, help="max retained event age"),
        Param("window_us", int, ev.DEFAULT_WINDOW_US),
        Param("origin_us", int, 0),
    ]


def cmd_tore(args) -> int:
    from . import events as ev, representations as rep

    config = _resolve(window_params(), args)
    stream = ev.EventFile(config["events"])
    frames = rep.window_frames(stream, config["k"], config["tau_us"],
                               config["window_us"], config["origin_us"])
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config(config, args.manifest, out_dir / "manifest.cfg")
    written = 0
    for i, frame in enumerate(frames):
        frame.write(out_dir / f"tore_{i:05d}.tore")
        written += 1
    print(f"wrote {written} tensor(s) to {out_dir}")
    return 0


# -- filter -----------------------------------------------------------------------

def filter_params() -> list[Param]:
    from . import gating

    return window_params() + [
        Param("beta", float, 0.95, help="mask reuse threshold"),
        Param("horizon", int, gating.ReferenceMaskBackend.horizon,
              help="masks per backend invocation"),
        Param("activity_percentile", float, gating.ReferenceMaskBackend.activity_percentile),
        Param("external_masks", str, help="MSK1 mask stack replacing the reference backend"),
        Param("external_scores", str, help="CSV of per-frame plan scores for external masks"),
    ]


def cmd_filter(args) -> int:
    from . import events as ev, gating, representations as rep

    config = _resolve(filter_params(), args)
    if "external_scores" in config and "external_masks" not in config:
        raise ConfigError("external_scores needs external_masks")
    stream = ev.EventFile(config["events"])
    if "external_masks" in config:
        geometry, masks = gating.read_masks(config["external_masks"])
        if geometry != stream.geometry:
            raise GeometryMismatch(f"{config['external_masks']}: mask geometry {geometry} "
                                   f"differs from the events' {stream.geometry}")
        settings = (masks, config["window_us"], config["origin_us"], config["horizon"])
        if "external_scores" in config:
            path = config["external_scores"]
            with open(path) as f, from_file(path):
                # the lines np.loadtxt would read; of none it warns and returns a (0, 1) table
                rows = [line for line in f if line.partition("#")[0].strip()]
                if not rows:
                    raise DataError("scores table holds no row")
                scores = np.loadtxt(rows, delimiter=",", ndmin=2)
                backend = gating.ExternalMaskBackend(*settings, scores)
        else:
            backend = gating.ExternalMaskBackend(*settings)
    else:
        backend = gating.ReferenceMaskBackend(
            horizon=config["horizon"], activity_percentile=config["activity_percentile"])
        backend.check_geometry(stream.geometry)
    frames = rep.window_frames(stream, config["k"], config["tau_us"],
                               config["window_us"], config["origin_us"])
    scheduled = gating.iter_schedule(frames, backend, config["beta"])
    # every setting is checked above, so a bad one leaves no output behind
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config(config, args.manifest, out_dir / "manifest.cfg")
    calls = 0
    with gating.schedule_writer(out_dir / "schedule.csv") as schedule, \
            gating.MaskStackWriter(out_dir / "masks.msk1", stream.geometry) as masks_out:
        # a frame decays only its mask's pixels, and its activity if the backend reads it
        for frame, entry, mask in scheduled:
            frame.write(out_dir / f"masked_{entry.frame:05d}.tore", mask)
            schedule([entry])
            masks_out.append(mask)
            calls += entry.recompute
    print(f"{masks_out.count} window(s), {calls} backend call(s)")
    return 0


# -- eval -------------------------------------------------------------------------

def eval_params() -> list[Param]:
    return [
        Param("manifest_json", str, required=True,
              help="evaluation manifest listing pred/gt pose files and tags"),
        Param("out", str, required=True, help="report CSV path"),
        Param("group_by", str, "", help="comma-separated condition axes"),
    ]


def cmd_eval(args) -> int:
    from . import metrics as met

    config = _resolve(eval_params(), args)
    records = met.load_eval_manifest(config["manifest_json"])
    group_by = tuple(a for a in config["group_by"].split(",") if a)
    report = met.evaluate(records, group_by=group_by)
    met.report_to_csv(report, config["out"])
    print(met.format_report(report))
    _write_config(config, args.manifest)
    return 0


# -- bench ------------------------------------------------------------------------

def bench_params() -> list[Param]:
    from . import events as ev, representations as rep

    return [
        Param("n_events", int, 2_000_000),
        Param("duration_us", int, 1_000_000),
        Param("seed", int, 0),
        Param("k", int, rep.DEFAULT_K),
        Param("tau_us", int, rep.DEFAULT_TAU_US),
        Param("width", int, ev.DAVIS346.width),
        Param("height", int, ev.DAVIS346.height),
        Param("out", str, help="write the report as key = value text"),
    ]


def bench_fixture(config) -> EventStream:
    """n_events uniform random events over [0, duration_us). Each setting
    is checked before any array exists: the EVT1 records run_bench
    serializes, RECORD_SIZE bytes an event, are the largest array."""
    from . import events as ev

    n = check_range("n_events", config["n_events"], 0, math.inf)
    check_range("duration_us", config["duration_us"], 1, 2**63 - 1)  # numpy draws int64
    check_range("seed", config["seed"], 0, math.inf)
    check_budget("n_events", n, ev.RECORD_SIZE * n)
    geometry = ev.SensorGeometry(width=config["width"], height=config["height"])
    rng = np.random.default_rng(config["seed"])
    t = np.sort(rng.integers(0, config["duration_us"], n)).astype(np.uint64)
    return ev.EventStream.from_arrays(
        geometry, t,
        rng.integers(0, geometry.width, n).astype(np.uint16),
        rng.integers(0, geometry.height, n).astype(np.uint16),
        rng.choice(np.array([-1, 1], dtype=np.int8), n))


def run_bench(config) -> dict:
    from . import events as ev, representations as rep

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

    n = len(parsed)
    return {
        "events": n,
        "parse_s": parse_s,
        "parse_events_per_s": n / parse_s,
        "ingest_s": ingest_s,
        "ingest_events_per_s": n / ingest_s,
        "combined_events_per_s": n / (parse_s + ingest_s),
    }


def cmd_bench(args) -> int:
    config = _resolve(bench_params(), args)
    _write_config(run_bench(config), config.get("out"), echo=True)
    _write_config(config, args.manifest)
    return 0


# -- entry point --------------------------------------------------------------------

_COMMANDS = {
    "simulate": (cmd_simulate, simulate_params,
                 "render frame sequences into events and paired labels"),
    "tore": (cmd_tore, window_params, "build decay-volume tensors per time window"),
    "filter": (cmd_filter, filter_params,
               "apply scheduled body masks to decay volumes"),
    "eval": (cmd_eval, eval_params, "score predicted poses against ground truth"),
    "bench": (cmd_bench, bench_params, "parse and ingest throughput"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpose", description="event-camera pose pipeline toolkit")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (_, params, help_text) in _COMMANDS.items():
        subs.add_parser(name, help=help_text, params=params)
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
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - surface as invariant violation
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
