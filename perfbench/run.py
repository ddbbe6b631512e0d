"""Benchmark of the prosody codec: one workload per process, one client in a
closed loop, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train|resynth|encode --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``. Inputs
are synthesized from ``--seed``; set-up runs at least SETUPS times and its
median is ``setup_s``; rounds of identical work then repeat for about
``--seconds``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md). The last line of standard
output is one JSON object; the exit code is 0 only if every op and check
passed.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUPS = 3  # set-ups per run at least, and as many as fit in SETUP_SECONDS
SETUP_SECONDS = 2.0
BUSY_LOAD = 1.5  # 1-minute load above which the machine is reported as not idle

END_TO_END = [
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("loss_final", "loss"),
    ("gl_error", "fraction"),
    ("psnr_db", "dB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "resynth", "encode"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    p.add_argument(
        "--inject-nan-mel",
        action="store_true",
        help="fault injection: reconstruct returns a mel with a NaN cell",
    )
    return p.parse_args(argv)


def import_package():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import prosody_codec  # noqa: F401
    from prosody_codec import analysis, autodiff, corpus, dsp, metrics, model, quantizer, training

    modules = dict(
        analysis=analysis, autodiff=autodiff, corpus=corpus, dsp=dsp, metrics=metrics,
        model=model, quantizer=quantizer, training=training,
    )
    return np, modules


def environment(np) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs between numpy versions
        env["blas"] = "unknown"
    return env


def inject_nan_mel(model_mod) -> None:
    real = model_mod.CodecModel.reconstruct

    def reconstruct(self, *args, **kwargs):
        mel = real(self, *args, **kwargs)
        mel.values[0, 0] = float("nan")
        return mel

    model_mod.CodecModel.reconstruct = reconstruct


def corrected_times(probe, meter, rounds, setup_s):
    """Set-up times, frames per second and op latencies, each corrected for
    the host's speed at the instant it was measured (see speed.py). Time in a
    round outside its ops takes the round's median correction."""
    setup = [s * probe.factor(t) for t, s in setup_s]
    op_s, wall = [], 0.0
    for round_wall, first, end in rounds:
        factors = [probe.factor(t) for t in meter.op_start[first:end]]
        ops = [s * f for s, f in zip(meter.op_s[first:end], factors)]
        outside = round_wall - sum(meter.op_s[first:end])
        wall += sum(ops) + outside * statistics.median(factors or [1.0])
        op_s += ops
    return setup, meter.frames / wall, op_s


def percentile(np, values, q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q))


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()[0]
    try:
        np, pc = import_package()
        from layers import build_tracer, per_layer_names
        from speed import NOMINAL_S, SpeedProbe
        from workloads import WORKLOADS, Meter, Sizes
        from prosody_codec.config import FeatureConfig
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    if args.inject_nan_mel:
        inject_nan_mel(pc["model"])
    workload = WORKLOADS[args.workload](args.seed, Sizes(args.tiny), FeatureConfig())
    tracer = build_tracer(pc) if args.trace else None
    # the traced run reports shares within the run, which need no correction
    probe = None if args.trace else SpeedProbe()
    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    meter = Meter(tracer, probe)
    setup_s = []  # (start instant, seconds)
    try:
        if tracer:
            tracer.install()
        while len(setup_s) < SETUPS or sum(s for _, s in setup_s) < SETUP_SECONDS:
            i = len(setup_s)
            if probe:
                probe.sample()
            t0 = perf_counter()
            workload.setup(os.path.join(work, f"setup{i}"))
            setup_s.append((t0, perf_counter() - t0))
            if i:
                shutil.rmtree(os.path.join(work, f"setup{i - 1}"))
        if probe:
            probe.sample()
        loop_start = tracer.mark() if tracer else 0
        if tracer:
            tracer.counts.clear()
        # rounds until the loop is as close to --seconds as whole rounds allow
        t_start = perf_counter()
        rounds = []  # (wall s without probing, first op, end op) per round
        while len(rounds) < 2 * workload.parts or (
            perf_counter() - t_start + rounds[-1][0] / 2 < args.seconds
        ):
            ops, t0 = len(meter.op_s), perf_counter()
            probed = probe.spent if probe else 0.0
            workload.round(meter, len(rounds))
            wall = perf_counter() - t0 - ((probe.spent if probe else 0.0) - probed)
            rounds.append((wall, ops, len(meter.op_s)))
        meter.wall = sum(r[0] for r in rounds)
        n_ops = len(meter.op_s)
        loop_end = tracer.mark() if tracer else 0
        loop_counts = dict(tracer.counts) if tracer else {}
        untraced_s = None
        if tracer:
            # the same round once more without tracing, warm like the last traced one
            tracer.uninstall()
            meter.tracer = None
            t0 = perf_counter()
            workload.round(meter, len(rounds) - 1)
            untraced_s = perf_counter() - t0
        quality = meter.stage("finish", workload.finish, meter) or {}
        for name, value in quality.items():
            meter.check(math.isfinite(value), f"{name} is {value}")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()[0]

    env = environment(np)
    env.update(load1_before=load_before, load1_after=load_after)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}  "
          f"ops {n_ops}  loop {meter.wall:.3f} s  set-ups {len(setup_s)}")
    print("env " + json.dumps(env, sort_keys=True))
    if max(load_before, load_after) > BUSY_LOAD:
        print(f"WARNING: machine not idle (1-minute load {load_before:.2f} before, "
              f"{load_after:.2f} after); timings may be inflated")

    failed_frac = meter.failed / max(meter.attempted, 1)
    values: dict[str, float] = {}
    if not args.trace:
        setup, frames_per_s, op_s = corrected_times(probe, meter, rounds, setup_s)
        values = {
            "setup_s": statistics.median(setup),
            "frames_per_s": frames_per_s,
            "op_ms_p50": percentile(np, op_s, 50),
            "op_ms_p90": percentile(np, op_s, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_final": quality.get("loss_final", float("nan")),
            "gl_error": quality.get("gl_error", float("nan")),
            "psnr_db": quality.get("psnr_db", float("nan")),
        }
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"  {name:<14} {values[name]:.6g} {unit}")
        print(f"  {'failed_frac':<14} {failed_frac:.6g} fraction  ({meter.failed}/{meter.attempted})")
        raw_ms = np.asarray(meter.op_s[:n_ops]) * 1e3
        print(f"  {n_ops} ops, {n_ops - int(0.9 * n_ops)} beyond p90; uncorrected: setup "
              f"{statistics.median(s for _, s in setup_s):.4g} s, {meter.frames / meter.wall:.6g} "
              f"frames/s, op p50 {np.percentile(raw_ms, 50):.6g} ms, p90 {np.percentile(raw_ms, 90):.6g} ms")
        factors = [NOMINAL_S / k for k in probe.kernel_s]
        print(f"  host speed factor (time correction) over {len(factors)} samples: median "
              f"{statistics.median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f}")
    else:
        values = traced_metrics(
            tracer, workload, quality, loop_counts, [s for _, s in setup_s], loop_start, loop_end, n_ops,
            meter.wall, rounds[-1][0], untraced_s,
        )
        values = {name: values.get(name, 0.0) for name, _ in per_layer_names()}
        units = dict(per_layer_names())
        write_spans(tracer, args, loop_start, loop_end)
    for msg in meter.errors:
        print(f"FAILED: {msg}")
    correct = meter.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def traced_metrics(tracer, workload, quality, loop_counts, setup_s, loop_start, loop_end, n_ops,
                   wall, traced_s, untraced_s):
    """Per-layer metrics from the spans; prints the full table."""
    values: dict[str, float] = {}
    calls, self_s, total_s = tracer.self_times(loop_start, loop_end)
    print(f"  {'layer (timed loop)':<36} {'calls/op':>10} {'self ms/op':>11} {'share':>7}")
    for label in sorted(calls, key=lambda k: -self_s[k]):
        cpo, ms, share = calls[label] / n_ops, 1e3 * self_s[label] / n_ops, self_s[label] / wall
        print(f"  {label:<36} {cpo:>10.3f} {ms:>11.4f} {share:>7.4f}")
        values[f"{label}.calls_per_op"] = cpo
        values[f"{label}.self_ms_per_op"] = ms
        values[f"{label}.share"] = share
    op = workload.op_label
    values["trace.coverage"] = 1.0 - self_s[op] / total_s[op] if total_s[op] else 0.0
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    s_calls, s_self, _ = tracer.self_times(0, loop_start)
    print(f"  {'layer (one set-up)':<36} {'calls':>10} {'self ms':>11} {'share':>7}")
    for label in sorted(s_calls, key=lambda k: -s_self[k]):
        ms, share = 1e3 * s_self[label] / len(setup_s), s_self[label] / sum(setup_s)
        print(f"  {label:<36} {s_calls[label] / len(setup_s):>10.1f} {ms:>11.3f} {share:>7.4f}")
        values[f"{label}.setup_share"] = share
    for key in ("bytes_written", "bytes_read"):
        # bytes moved by containers during the timed loop, per op
        values[f"containers.{key}_per_op"] = loop_counts.get(f"containers.{key}", 0) / n_ops
    for key in ("quantizer.usage_l1", "quantizer.usage_l2", "quantizer.reinit_codes_per_op"):
        values[key] = float(quality.get(key, 0.0))
    print(f"  trace coverage {values['trace.coverage']:.4f} of op wall time; tracing overhead "
          f"{1e3 * (traced_s - untraced_s):.1f} ms per round "
          f"({values['trace.overhead_frac']:+.4f}); round {untraced_s:.3f} s untraced")
    for name in ("quantizer.usage_l1", "quantizer.usage_l2", "quantizer.reinit_codes_per_op",
                 "containers.bytes_written_per_op", "containers.bytes_read_per_op"):
        print(f"  {name:<36} {values[name]:.6g}")
    return values


def write_spans(tracer, args, start: int, stop: int) -> None:
    """The timed loop's spans as [label, start s, end s, parent index]."""
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    t0 = tracer.spans[start][1] if stop > start else 0.0
    rows = [
        [label, round(a - t0, 7), round(b - t0, 7), p - start if p >= start else -1]
        for label, a, b, p in tracer.spans[start:stop]
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, separators=(",", ":"))
    print(f"  spans: {path}")


if __name__ == "__main__":
    sys.exit(main())
