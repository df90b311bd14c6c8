"""Run one `evpose` subcommand in this fresh interpreter and report on it.

    python child.py RESULT_JSON TRACE(0|1) -- <evpose arguments>

Set-up ends once `evpose.cli` is imported and the arguments parse; the
parent takes its spawn time from the same monotonic clock, so set-up time
is `t_ready` minus that. With TRACE=1 the public functions of the
program's layers are wrapped to record spans (name, start, end, parent)
and counts. Spans stay in memory and are written out with the result
after the subcommand returns.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _peak_rss_kb() -> int:
    """VmHWM of this process image: unlike ru_maxrss it excludes the parent's
    memory inherited across fork and exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, {}]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[4] = count(args, out)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def install(self) -> None:
        from evpose import events as ev
        from evpose import gating
        from evpose import representations as rep
        from evpose import simulator as sim

        def n_out(args, out):
            return {"events": len(out)}

        def n_in(args, out):
            return {"events": len(args[1])}

        def tensor_bytes(args, out):
            return {"bytes": 16 + 4 * int(args[1].size)}

        def schedule(args, out):
            return {"windows": len(out.entries),
                    "reused": sum(not e.recompute for e in out.entries)}

        self.wrap(ev, "read_stream", "events.read", n_out)
        self.wrap(ev, "slice_constant_time", "events.slice")
        self.wrap(ev, "write_stream", "events.write")
        self.wrap(rep.ToreState, "ingest_stream", "representations.ingest", n_in)
        self.wrap(rep.ToreState, "materialize", "representations.materialize")
        self.wrap(rep, "write_tensor", "representations.write_tensor", tensor_bytes)
        self.wrap(gating, "schedule_masks", "gating.schedule", schedule)
        self.wrap(gating.ReferenceMaskBackend, "predict", "gating.predict")
        self.wrap(gating, "apply_mask", "gating.apply")
        self.wrap(gating, "write_schedule_csv", "gating.write")
        self.wrap(gating, "write_masks", "gating.write")
        self.wrap(sim, "load_frame_sequence", "simulator.load")
        self.wrap(sim, "load_mask_sequence", "simulator.load")
        self.wrap(sim, "composite", "simulator.composite")
        self.wrap(sim, "interpolate_linear", "simulator.interpolate")
        self.wrap(sim, "frames_to_events", "simulator.frames_to_events", n_out)
        for attr in ("read_skeleton_csv", "write_skeleton_csv", "normalize_labels",
                     "make_heatmaps"):
            self.wrap(sim, attr, "simulator.labels")


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    from evpose import cli

    cli.build_parser().parse_args(argv)
    t_ready = time.perf_counter()
    cpu_ready = _cpu_s()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.wrap(cli, "main", "cli")
    code = cli.main(argv)
    result = {"t_ready": t_ready, "cpu_ready": cpu_ready, "exit": code,
              "peak_rss_kb": _peak_rss_kb(),
              "spans": tracer.spans if tracer else []}
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
