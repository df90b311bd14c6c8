"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Runs the real `tore`, `filter` and `simulate` subcommands on small inputs
made by the workload generators, requires every check to pass on their
output, then alters one value of an output at a time and requires the
check to reject it. Exits 1 on the first check that accepts an altered
output or rejects an unaltered one.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

import checks
import workloads as wl

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work" / "selftest"


def evpose(*argv: str) -> str:
    from evpose import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"evpose {argv[0]} exited {code}")
    return buf.getvalue()


def patch_f32(path: Path, index: int, value: float, header: int = 16) -> None:
    """Overwrite float32 number `index` of a tensor file."""
    with open(path, "r+b") as f:
        f.seek(header + 4 * index)
        f.write(struct.pack("<f", value))


def patch_event(path: Path, index: int, field: str, value: int) -> None:
    offset = wl.EVT1_HEADER.size + index * wl.EVT1_RECORD.itemsize + wl.EVT1_RECORD.fields[field][1]
    fmt = {"t": "<Q", "p": "<b"}[field]
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(struct.pack(fmt, value))


def mutant(good: Path, name: str) -> Path:
    """Fresh copy of an output directory, for one value to be altered in."""
    copy = good.parent / f"{good.name}.{name}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(good, copy)
    return copy


def expect(label: str, problems: list[str], want_problems: bool) -> bool:
    ok = bool(problems) == want_problems
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    return ok


def tore_cases() -> list[bool]:
    events = WORK / "dense.evt1"
    wl.make_tore_dense(5, events, n_events=200_000, duration_us=100_000)
    good = WORK / "tore"
    evpose("tore", "--events", str(events), "--out", str(good), "--k", str(wl.K),
           "--tau-us", str(wl.TAU_US), "--window-us", str(wl.WINDOW_US))
    expected = checks.expected_volumes(events)
    run = lambda d: checks.check_tore(d, expected)  # noqa: E731
    results = [expect("tore unaltered", run(good), False)]
    vol = checks.read_tensor(good / "tore_00002.tore")
    hot = int(np.flatnonzero(vol.reshape(-1) > 0)[7])
    m = mutant(good, "ulp")
    patch_f32(m / "tore_00002.tore", hot, float(np.nextafter(vol.reshape(-1)[hot], 2.0)))
    results.append(expect("tore value one ulp off", run(m), True))
    m = mutant(good, "order")
    idx = int(np.flatnonzero(((vol[1] > 0) & (vol[0] < 1.0)).reshape(-1))[0])
    patch_f32(m / "tore_00002.tore", wl.HEIGHT * wl.WIDTH + idx, 1.0)  # slot 1 above slot 0
    results.append(expect("tore slots out of order", run(m), True))
    m = mutant(good, "missing")
    sorted(m.glob("tore_*.tore"))[-1].unlink()
    results.append(expect("tore tensor missing", run(m), True))
    return results


def filter_cases() -> list[bool]:
    events = WORK / "silhouette.evt1"
    wl.make_filter_silhouette(5, events, duration_us=200_000)
    good = WORK / "filter"
    stdout = evpose("filter", "--events", str(events), "--out", str(good), "--k", str(wl.K),
                    "--tau-us", str(wl.TAU_US), "--window-us", str(wl.WINDOW_US),
                    "--beta", str(wl.FILTER_BETA))
    expected = checks.expected_volumes(events)
    run = lambda d, out=stdout: checks.check_filter(d, expected, out, wl.FILTER_BETA)  # noqa: E731
    results = [expect("filter unaltered", run(good), False)]
    masks = checks.read_msk1(good / "masks.msk1")
    active = expected[3].max(axis=0) > 0
    outside = int(np.flatnonzero((~masks[3] & active).reshape(-1))[0])
    m = mutant(good, "outside")
    patch_f32(m / "masked_00003.tore", outside, 0.5)
    results.append(expect("filter nonzero outside mask", run(m), True))
    vol = checks.read_tensor(good / "masked_00003.tore").reshape(-1)
    inside = int(np.flatnonzero(vol > 0)[0])
    m = mutant(good, "inside")
    patch_f32(m / "masked_00003.tore", inside, float(np.nextafter(vol[inside], 0.0)))
    results.append(expect("filter value inside mask altered", run(m), True))
    m = mutant(good, "score")
    lines = (m / "schedule.csv").read_text().splitlines()
    reused = next(i for i, ln in enumerate(lines[1:], 1) if ln.split(",")[1] == "0")
    frame, _, _ = lines[reused].split(",")
    lines[reused] = f"{frame},0,0.5"
    (m / "schedule.csv").write_text("\n".join(lines) + "\n")
    results.append(expect("filter reuse below beta", run(m), True))
    calls = stdout.replace(" backend call", "1 backend call", 1)
    results.append(expect("filter backend calls misreported", run(good, calls), True))
    m = mutant(good, "maskbit")
    with open(m / "masks.msk1", "r+b") as f:
        f.seek(wl.EVT1_HEADER.size + 3 * (-(-wl.WIDTH * wl.HEIGHT // 8)) + outside // 8)
        byte = f.read(1)[0]
        f.seek(-1, 1)
        f.write(bytes([byte ^ (0x80 >> (outside % 8))]))
    results.append(expect("filter mask bit flipped", run(m), True))
    return results


def simulate_cases() -> list[bool]:
    clips = (wl.Clip("bright", fps=100.0, frames=12, gain=1.0, shot_noise_scale=0.0, interpolate=1),)
    (c,) = wl.make_simulate_silhouette(5, WORK / "clips", clips)
    clip, d, frames = c["clip"], c["dir"], c["images"]
    good = WORK / "simulate"
    evpose("simulate", "--frames", str(d / "frames"), "--masks", str(d / "masks"),
           "--background", str(d / "background"), "--skeleton", str(d / "skeleton.csv"),
           "--cam", str(d / "camera.txt"), "--out", str(good), "--theta-pos", str(wl.SIM_THETA),
           "--theta-neg", str(wl.SIM_THETA), "--eps", str(wl.SIM_EPS), "--seed", "5")
    run = lambda dd: checks.check_simulate(dd, clip, frames, d / "skeleton.csv")[0]  # noqa: E731
    results = [expect("simulate unaltered", run(good), False)]
    _, t, _, _, _ = checks.read_evt1(good / "events.evt1")
    last = int(np.sum(t != checks.NAN_TIMESTAMP)) - 1  # NaN-timestamp events sort last
    m = mutant(good, "late")
    patch_event(m / "events.evt1", last, "t", clip.duration_us + 1)
    results.append(expect("simulate event after the clip", run(m), True))
    m = mutant(good, "unsorted")
    patch_event(m / "events.evt1", 0, "t", int(t[len(t) // 2]) + 1)
    results.append(expect("simulate events out of order", run(m), True))
    m = mutant(good, "polarity")
    _, _, _, _, p = checks.read_evt1(good / "events.evt1")
    patch_event(m / "events.evt1", last // 2, "p", -int(p[last // 2]))
    results.append(expect("simulate one polarity flipped", run(m), True))
    hm = sorted(good.glob("heatmaps_*.tore"))[1].name
    m = mutant(good, "heatmap")
    patch_f32(m / hm, 100, 0.25)
    results.append(expect("simulate heatmap value altered", run(m), True))
    m = mutant(good, "nan")
    patch_event(m / "events.evt1", last, "t", checks.NAN_TIMESTAMP)
    problems, nan_events = checks.check_simulate(m, clip, frames, d / "skeleton.csv")
    results.append(expect("simulate NaN timestamp is the known fault, not a problem",
                          problems + ([] if nan_events else ["NaN event not counted"]), False))
    return results


def main() -> int:
    root = BENCH.parent
    if not (root / "src" / "evpose" / "cli.py").is_file():
        print(f"no program source at {root / 'src' / 'evpose'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = tore_cases() + filter_cases() + simulate_cases()
    print(f"{sum(results)}/{len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
