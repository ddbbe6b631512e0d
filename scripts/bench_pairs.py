#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as a BENCH file.

    python scripts/bench_pairs.py --parent REV --name NAME \\
        --workloads resynth [train encode] --seeds 71 [72 ...] --pairs 10 \\
        [--seconds 30] [--description TEXT]

Run from the repository root. REV is checked out with ``git worktree add``
into a temporary directory, which is removed again however the run ends.
With ``--parent HEAD`` on a tree without uncommitted edits, both sides run
the same code: such null pairs show how far two runs land apart. For each
workload, seed and pair, ``perfbench/run.py --trace 0`` runs once in the
parent checkout and once in the working tree, one run at a time; even pairs
run the parent first, odd pairs the change first.

Each run records its metrics, ``steal_s`` (the CPU seconds a hypervisor gave
other guests while it ran), its frames/s before ``perfbench``'s host-speed
correction, the correction's median factor, and in ``cpu`` the user and
system CPU seconds and minor page faults of its process, in total and per op
(set-up included). ``BENCH_<NAME>.json`` holds per workload ``seconds``,
``seeds``, ``runs`` and ``readouts``: one entry for each number the runs
report (see ``readouts``), with each side's median and quartiles, the pairs
each side won, the per-pair log-ratio change/parent with its median, central
90% and one-sided sign test, and, for a metric ``BENCHMARK.json`` bounds, a
verdict: ``worse``, ``unresolved`` or ``ok`` (see ``verdict``). Each
readout with null pairs (see ``null_ratios``: every ``BENCH_null_<workload>``
file at the repository root, pooled) also gets the central 90% of their
log-ratios and ``gain`` (see ``judge``), the verdict on a claimed speed-up.
The script prints one line per readout. To measure on one core, run the
whole command under ``taskset -c 0``: both sides inherit the affinity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import resource
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
    """The output of one run in ``checkout``. A run that ends without its
    result line, having printed nothing or part of its output, raises a
    RuntimeError naming the checkout, command, exit code and stderr's tail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        parse_run(proc.stdout)
    except (StopIteration, ValueError, LookupError, TypeError):  # no run, env or result line
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} printed no result line (exit "
                           f"{proc.returncode}):\n{proc.stderr[-2000:]}") from None
    return proc.stdout


def cpu_cost(before, after, run_line: str) -> dict:
    """User and system CPU seconds and minor page faults between two
    ``getrusage(RUSAGE_CHILDREN)`` readings around one run, and each per op
    by the op count of its run line."""
    cost = {"user_s": round(after.ru_utime - before.ru_utime, 3),
            "sys_s": round(after.ru_stime - before.ru_stime, 3),
            "minflt": after.ru_minflt - before.ru_minflt}
    ops = int(re.search(r"\bops (\d+)", run_line).group(1))
    return {**cost, **{f"{k}_per_op": v / ops if ops else None for k, v in cost.items()}}


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


def sign_test(wins: int, losses: int) -> float:
    """One-sided sign test: the chance of at least ``wins`` of ``wins +
    losses`` fair coin flips."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


# the better direction of the readouts BENCHMARK.json does not list; the
# host-speed factor's higher side is the one whose host read as faster
BETTER = {"uncorrected_frames_per_s": "higher", "host_speed_factor": "higher",
          "cpu_s_per_op": "lower", "minflt_per_op": "lower"}

# readouts that describe the host, not the program: judged by no ``gain``.
# The host-speed factor's null band is the widest of any ``train`` readout
# (-0.31 to +0.23 over 16 pooled null pairs)
DIAGNOSTIC = {"host_speed_factor"}


def readouts(run: dict) -> dict:
    """Every number one run reports, by name: its end-to-end metrics, its
    frames/s before the host-speed correction and the correction's median
    factor, and its user + system CPU seconds and minor page faults per op.
    A number the run lacks is None; runs of older BENCH files have no ``cpu``."""
    cpu = run.get("cpu") or {}
    user, system = cpu.get("user_s_per_op"), cpu.get("sys_s_per_op")
    return {**run["metrics"],
            "uncorrected_frames_per_s": run.get("uncorrected_frames_per_s"),
            "host_speed_factor": run.get("host_speed_factor"),
            "cpu_s_per_op": None if user is None or system is None else user + system,
            "minflt_per_op": cpu.get("minflt_per_op")}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per readout that both sides report: its ``better`` direction, each
    side's ``q1``, ``median`` and ``q3``, the pairs each side won (``wins``),
    and ``log_ratio``: log(change / parent) of each pair where both are
    positive, in pair order, with their median, central 90% (``p5``,
    ``p95``) and the one-sided sign test of the change being better
    (``sign_p``), or None without such a pair. A readout that ``metrics``
    bounds also gets its ``verdict``."""
    specs = {**metrics, **{name: {"better": b} for name, b in BETTER.items()}}
    pairs: dict[tuple, dict] = {}
    for run in runs:
        pairs.setdefault((run["seed"], run["pair"]), {})[run["side"]] = readouts(run)
    out = {}
    for name, spec in specs.items():
        parent, change = ([pair[side][name] for pair in pairs.values()
                           if pair.get(side, {}).get(name) is not None] for side in SIDES)
        if not parent or not change:
            continue
        entry = {side: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).tolist()))
                 for side, v in zip(SIDES, (parent, change))}
        both = [(pair["parent"][name], pair["change"][name]) for pair in pairs.values()
                if all(pair.get(side, {}).get(name) is not None for side in SIDES)]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        deltas = [sign * (c - p) for p, c in both]
        wins = {"change": sum(d > 0 for d in deltas), "parent": sum(d < 0 for d in deltas),
                "ties": sum(d == 0 for d in deltas)}
        ratios = [math.log(c / p) for p, c in both if p > 0 and c > 0]
        entry["better"], entry["wins"], entry["log_ratio"] = spec["better"], wins, None
        if ratios:
            p5, median, p95 = np.percentile(ratios, [5, 50, 95]).tolist()
            entry["log_ratio"] = {"pairs": ratios, "median": median, "p5": p5, "p95": p95,
                                  "sign_p": sign_test(wins["change"], wins["parent"])}
        if "bound" in spec:
            entry["verdict"] = verdict(parent, change, spec["better"], spec["bound"])
        out[name] = entry
    return out


def null_ratios(workload: str, root: str) -> dict[str, list[float]]:
    """Per readout, the per-pair log-ratios of ``workload`` in every
    ``BENCH_null_<workload>.json`` and ``BENCH_null_<workload>_<tag>.json``
    in ``root``, pooled in file-name order. Null files come from
    ``--parent HEAD`` on a clean tree: both sides run the same code."""
    pooled: dict[str, list[float]] = {}
    for name in sorted(os.listdir(root)):
        if not re.fullmatch(rf"BENCH_null_{workload}(_\w+)?\.json", name):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            runs = json.load(fh)["workloads"][workload]["runs"]
        # a log-ratio does not depend on the better direction
        metrics = {metric: {"better": "higher"} for run in runs for metric in run["metrics"]}
        for readout, entry in summarize(runs, metrics).items():
            if entry["log_ratio"] is not None:
                pooled.setdefault(readout, []).extend(entry["log_ratio"]["pairs"])
    return pooled


def judge(readouts: dict, null: dict[str, list[float]]) -> None:
    """Adds to each readout with a log-ratio and null pairs in ``null``:
    ``null``, the central 90% (``p5``, ``p95``) of those pairs and their
    count, and, unless it is a ``DIAGNOSTIC`` readout, ``gain``, true only
    when the change's median log-ratio lies beyond that band on the
    readout's better side and its sign test gives p < 0.05."""
    for name, entry in readouts.items():
        ratio, pairs = entry["log_ratio"], null.get(name)
        if ratio is None or not pairs:
            continue
        p5, p95 = np.percentile(pairs, [5, 95]).tolist()
        beyond = ratio["median"] > p95 if entry["better"] == "higher" else ratio["median"] < p5
        entry["null"] = {"p5": p5, "p95": p95, "pairs": len(pairs)}
        if name not in DIAGNOSTIC:
            entry["gain"] = beyond and ratio["sign_p"] < 0.05


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
                        before, usage = steal_seconds(), resource.getrusage(resource.RUSAGE_CHILDREN)
                        record = parse_run(run(dirs[side], workload, seed, seconds))
                        after = steal_seconds()
                        cpu = cpu_cost(usage, resource.getrusage(resource.RUSAGE_CHILDREN), record["run"])
                        steal = None if None in (before, after) else round(after - before, 3)
                        runs.append({"side": side, "pair": pair, "seed": seed, "first": k == 0,
                                     "steal_s": steal, "cpu": cpu, **record})
            out["workloads"][workload] = {"seconds": seconds, "seeds": list(args.seeds),
                                          "readouts": summarize(runs, metrics), "runs": runs}
    return out


def summary_line(name: str, entry: dict) -> str:
    """``name``: each side's median [q1, q3], the pairs won, the log-ratio's
    median, central 90% and sign test, the null band and gain ("diagnostic"
    for a readout without one), and the verdict, each where there is one."""
    p, c, won, ratio = entry["parent"], entry["change"], entry["wins"], entry["log_ratio"]
    line = (f"  {name:<24} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  change "
            f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  change won {won['change']}, "
            f"parent {won['parent']}, ties {won['ties']}")
    if ratio is not None:
        line += (f"; log(change/parent) {ratio['median']:+.4f} [{ratio['p5']:+.4f}, "
                 f"{ratio['p95']:+.4f}], sign p {ratio['sign_p']:.3g}")
    if "null" in entry:
        null = entry["null"]
        line += (f"; null [{null['p5']:+.4f}, {null['p95']:+.4f}] of {null['pairs']} pairs, "
                 + (f"gain {'yes' if entry['gain'] else 'no'}" if "gain" in entry else "diagnostic"))
    return line + (f": {entry['verdict']}" if "verdict" in entry else "")


def main(argv=None) -> int:
    args = parse_args(argv)
    result = bench(args)
    for workload, entry in result["workloads"].items():
        judge(entry["readouts"], null_ratios(workload, ROOT))
    path = os.path.join(ROOT, f"BENCH_{args.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        print(f"{workload}:")
        for name, readout in entry["readouts"].items():
            print(summary_line(name, readout))
    print(f"wrote {path}")
    return 0 if all(r["correct"] for e in result["workloads"].values() for r in e["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
