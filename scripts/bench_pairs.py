#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as a BENCH file.

    python scripts/bench_pairs.py --parent REV --name NAME \\
        --workloads resynth [train encode] --seeds 71 [72 ...] --pairs 10 \\
        [--seconds 30] [--description TEXT]

Run from the repository root. REV is checked out with ``git worktree add``
into a temporary directory, which is removed again however the run ends. For
each workload, seed and pair, ``perfbench/run.py --trace 0`` runs once in the
parent checkout and once in the working tree, one run at a time; even pairs
run the parent first, odd pairs the change first. ``BENCH_<NAME>.json`` gets
every run, and per workload the median and quartiles of each end-to-end
metric on each side, and how many pairs each side won on it (the better
direction comes from ``BENCHMARK.json``), and a verdict per metric: ``worse``,
``unresolved`` or ``ok`` (see ``verdict``). Each run also records ``steal_s``,
the CPU seconds a hypervisor gave other guests while it ran, its frames/s
before ``perfbench``'s host-speed correction, and the correction's median
factor; per workload, these two get the same median, quartiles and pairs
won, printed under the corrected frames/s. To measure on one core, run the
whole command under ``taskset -c 0``: both sides inherit the affinity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--name", required=True, help="writes BENCH_<name>.json at the repository root")
    p.add_argument("--workloads", nargs="+", required=True, choices=["train", "resynth", "encode"])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True, help="pairs per workload and seed")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; default: run_seconds of BENCHMARK.json")
    p.add_argument("--description", default="")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def order(pair: int) -> tuple[str, str]:
    """The sides of one pair in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def parent_checkout(rev: str, repo: str = ROOT):
    """A worktree of ``rev`` in a temporary directory, removed on exit."""
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    path = os.path.join(tmp, "parent")
    try:
        git("worktree", "add", "--detach", path, rev, cwd=repo)
        yield path
    finally:
        if os.path.isdir(path):
            git("worktree", "remove", "--force", path, cwd=repo)
        git("worktree", "prune", cwd=repo)
        os.rmdir(tmp)


def parse_run(stdout: str) -> dict:
    """The run line, environment and result of one ``perfbench/run.py`` output,
    and, where it prints them, frames/s before its host-speed correction and
    the median correction factor (None where absent)."""
    lines = stdout.splitlines()
    head = next(line for line in lines if line.startswith("workload "))
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    result = json.loads(lines[-1])
    raw = re.search(r"uncorrected: .*?([\d.]+) frames/s", stdout)
    factor = re.search(r"host speed factor .*?median ([\d.]+)", stdout)
    return {
        "run": head,
        "env": env,
        "uncorrected_frames_per_s": float(raw.group(1)) if raw else None,
        "host_speed_factor": float(factor.group(1)) if factor else None,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def perfbench(checkout: str, workload: str, seed: int, seconds: float) -> str:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} printed nothing (exit "
                           f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave other guests so far, summed over this
    machine's cores; None where Linux's /proc/stat does not say."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse`` if the change's median is worse than the parent's by more
    than ``bound`` of it; else ``unresolved`` if the parent's (q3 - q1) /
    median exceeds ``bound`` and some change run is no better than some
    parent run; else ``ok``."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    scale = abs(median) or 1.0
    if sign * (median - np.median(change)) / scale > bound:
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return "unresolved" if (q3 - q1) / scale > bound and not all_better else "ok"


UNCORRECTED = ("uncorrected_frames_per_s", "host_speed_factor")


def _metrics(run: dict) -> dict:
    return run["metrics"]


def _uncorrected(run: dict) -> dict:
    return {name: run.get(name) for name in UNCORRECTED}


def _values(runs: list[dict], get) -> dict[str, dict[str, list[float]]]:
    """Per side and name, the values ``get(run)`` maps names to; None skipped."""
    values = {side: {} for side in SIDES}
    for run in runs:
        for name, value in get(run).items():
            if value is not None:
                values[run["side"]].setdefault(name, []).append(value)
    return values


def _quartiles(values: dict[str, dict[str, list[float]]]) -> dict:
    return {side: {name: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).tolist()))
                   for name, v in values[side].items()}
            for side in SIDES}


def _wins(runs: list[dict], get, name: str, better: str) -> dict[str, int]:
    """Pairs each side won on ``name``, over the pairs where both sides have it."""
    pairs: dict[tuple, dict] = {}
    for run in runs:
        pairs.setdefault((run["seed"], run["pair"]), {})[run["side"]] = get(run)
    count = {"change": 0, "parent": 0, "ties": 0}
    for pair in pairs.values():
        if len(pair) < 2 or pair["parent"].get(name) is None or pair["change"].get(name) is None:
            continue
        delta = pair["change"][name] - pair["parent"][name]
        if better == "lower":
            delta = -delta
        count["change" if delta > 0 else "parent" if delta < 0 else "ties"] += 1
    return count


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Median and quartiles per side and metric, pairs won per metric, and
    each metric's verdict under its ``better`` and ``bound`` in ``metrics``."""
    values = _values(runs, _metrics)
    wins = {name: _wins(runs, _metrics, name, spec["better"]) for name, spec in metrics.items()}
    verdicts = {name: verdict(values["parent"][name], values["change"][name], spec["better"],
                              spec["bound"])
                for name, spec in metrics.items()
                if name in values["parent"] and name in values["change"]}
    return {"summary": _quartiles(values), "wins": wins, "verdicts": verdicts}


def summarize_uncorrected(runs: list[dict]) -> dict:
    """The same median, quartiles and pairs won for each run's frames/s
    before the host-speed correction and for the correction's median factor,
    over the runs that report them. The higher value wins a pair: for the
    factor, that is the side whose host read as faster."""
    return {"summary": _quartiles(_values(runs, _uncorrected)),
            "wins": {name: _wins(runs, _uncorrected, name, "higher") for name in UNCORRECTED}}


def bench(args, run=perfbench, checkout=parent_checkout) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    parent = git("rev-parse", "--short", args.parent)
    out = {
        "description": args.description,
        "parent_commit": parent,
        "change_commit": git("rev-parse", "--short", "HEAD"),
        "change_has_uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no")),
        "workloads": {},
    }
    with checkout(args.parent) as parent_dir:
        dirs = {"parent": parent_dir, "change": ROOT}
        for workload in args.workloads:
            runs = []
            for seed in args.seeds:
                for pair in range(args.pairs):
                    for k, side in enumerate(order(pair)):
                        print(f"{workload} seed {seed} pair {pair}: {side}", file=sys.stderr, flush=True)
                        before = steal_seconds()
                        record = parse_run(run(dirs[side], workload, seed, seconds))
                        after = steal_seconds()
                        steal = None if None in (before, after) else round(after - before, 3)
                        runs.append({"side": side, "pair": pair, "seed": seed, "first": k == 0,
                                     "steal_s": steal, **record})
            out["workloads"][workload] = {"seconds": seconds, "seeds": list(args.seeds),
                                          **summarize(runs, metrics),
                                          "uncorrected": summarize_uncorrected(runs), "runs": runs}
    return out


def summary_line(name: str, summary: dict, wins: dict) -> str | None:
    """``name``: each side's median [q1, q3] and the pairs won; None where a
    side has no value."""
    p, c = summary["parent"].get(name), summary["change"].get(name)
    if p is None or c is None:
        return None
    count = wins[name]
    return (f"  {name:<14} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  change "
            f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  change won "
            f"{count['change']}, parent {count['parent']}, ties {count['ties']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    result = bench(args)
    path = os.path.join(ROOT, f"BENCH_{args.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        print(f"{workload}:")
        for name in entry["wins"]:
            line = summary_line(name, entry["summary"], entry["wins"])
            if line is None:
                continue
            print(f"{line}: {entry['verdicts'][name]}")
            if name == "frames_per_s":  # the correction's side of the claim
                for raw in UNCORRECTED:
                    line = summary_line(raw, entry["uncorrected"]["summary"],
                                        entry["uncorrected"]["wins"])
                    if line is not None:
                        print(f"  {line}")
    print(f"wrote {path}")
    return 0 if all(r["correct"] for e in result["workloads"].values() for r in e["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
