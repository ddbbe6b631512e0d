"""scripts/bench_pairs.py without running the benchmark: the order of the
runs, the summary it writes, and the parent checkout it always removes."""

import contextlib
import importlib.util
import json
import os
import subprocess

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_output(workload, seed, frames_per_s, peak_rss_mb, uncorrected=93.5, factor=1.05):
    """A run's output; ``uncorrected`` or ``factor`` None leaves out its line."""
    metrics = {"frames_per_s": {"value": frames_per_s, "unit": "frames/s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    lines = [
        f"workload {workload}  seed {seed}  trace 0  rounds 4  ops 40  loop 1.0 s  set-ups 3",
        'env {"nproc": 2}',
        "  frames_per_s   1 frames/s",
        f"  40 ops, 4 beyond p90; uncorrected: setup 0.3 s, {uncorrected} frames/s, op p50 9 ms, "
        "p90 9 ms",
        f"  host speed factor (time correction) over 9 samples: median {factor}, range 0.9-1.1",
        json.dumps({"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}),
    ]
    return "\n".join(line for line in lines if "None" not in line)


def test_pairs_alternate_and_are_summarized(script, monkeypatch):
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")
    calls = []
    # parent runs read 100, 110, 120, 130 frames/s; the change 1.5x those,
    # except in pair 3, where the parent wins; memory is equal in pair 0
    speeds = {"parent": iter([100.0, 110.0, 120.0, 130.0]), "change": iter([150.0, 165.0, 180.0, 100.0])}
    memory = {"parent": iter([60.0, 60.0, 60.0, 60.0]), "change": iter([60.0, 62.0, 58.0, 61.0])}

    def run(checkout, workload, seed, seconds):
        side = "parent" if checkout == "/parent" else "change"
        calls.append((side, workload, seed, seconds))
        return fake_output(workload, seed, next(speeds[side]), next(memory[side]))

    @contextlib.contextmanager
    def checkout(rev):
        assert rev == "HEAD~1"
        yield "/parent"

    args = script.parse_args(["--parent", "HEAD~1", "--name", "x", "--workloads", "resynth",
                              "--seeds", "7", "--pairs", "4", "--seconds", "2"])
    result = script.bench(args, run=run, checkout=checkout)

    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent",
                                            "parent", "change", "change", "parent"]
    assert {c[1:] for c in calls} == {("resynth", 7, 2.0)}
    entry = result["workloads"]["resynth"]
    runs = entry["runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs[:4]] == [
        (0, "parent", True), (0, "change", False), (1, "change", True), (1, "parent", False)]
    assert runs[0]["run"].startswith("workload resynth  seed 7") and runs[0]["env"] == {"nproc": 2}
    assert runs[0]["metrics"] == {"frames_per_s": 100.0, "peak_rss_mb": 60.0}
    assert all("steal_s" in r for r in runs)
    assert runs[0]["uncorrected_frames_per_s"] == 93.5 and runs[0]["host_speed_factor"] == 1.05
    assert entry["summary"]["parent"]["frames_per_s"] == {"q1": 107.5, "median": 115.0, "q3": 122.5}
    assert entry["summary"]["change"]["frames_per_s"]["median"] == 157.5
    assert entry["wins"]["frames_per_s"] == {"change": 3, "parent": 1, "ties": 0}
    # lower is better for memory
    assert entry["wins"]["peak_rss_mb"] == {"change": 1, "parent": 2, "ties": 1}
    assert entry["verdicts"] == {"frames_per_s": "ok", "peak_rss_mb": "ok"}
    assert result["parent_commit"] == "abc1234"


def test_uncorrected_frames_and_correction_factors_are_summarized(script, monkeypatch, tmp_path,
                                                                  capsys):
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")
    # per pair: parent then change (uncorrected frames/s, factor); the change
    # run of pair 1 printed neither, so that pair counts for neither
    raw = {"parent": iter([(90.0, 1.0), (95.0, 1.1), (100.0, 1.2)]),
           "change": iter([(120.0, 0.8), (None, None), (110.0, 1.2)])}

    def run(checkout, workload, seed, seconds):
        side = "parent" if checkout == "/parent" else "change"
        return fake_output(workload, seed, 100.0, 60.0, *next(raw[side]))

    @contextlib.contextmanager
    def checkout(rev):
        yield "/parent"

    args = script.parse_args(["--parent", "HEAD~1", "--name", "x", "--workloads", "resynth",
                              "--seeds", "7", "--pairs", "3", "--seconds", "2"])
    result = script.bench(args, run=run, checkout=checkout)
    entry = result["workloads"]["resynth"]["uncorrected"]
    assert entry["summary"]["parent"]["uncorrected_frames_per_s"] == {
        "q1": 92.5, "median": 95.0, "q3": 97.5}
    assert entry["summary"]["change"]["uncorrected_frames_per_s"]["median"] == 115.0
    assert entry["summary"]["change"]["host_speed_factor"]["median"] == 1.0
    assert entry["wins"]["uncorrected_frames_per_s"] == {"change": 2, "parent": 0, "ties": 0}
    assert entry["wins"]["host_speed_factor"] == {"change": 0, "parent": 1, "ties": 1}

    monkeypatch.setattr(script, "ROOT", str(tmp_path))
    monkeypatch.setattr(script, "bench", lambda args: result)
    assert script.main(["--parent", "HEAD~1", "--name", "x", "--workloads", "resynth",
                        "--seeds", "7", "--pairs", "3"]) == 0
    printed = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(printed) if line.strip().startswith("frames_per_s"))
    assert printed[at + 1].split()[:3] == ["uncorrected_frames_per_s", "parent", "95"]
    assert printed[at + 2].split()[:3] == ["host_speed_factor", "parent", "1.1"]
    assert (tmp_path / "BENCH_x.json").exists()


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100, 100, 100, 100], [70, 71, 72, 73], "higher", "worse"),  # median 30% lower
    ([10, 10, 10], [13, 13, 13], "lower", "worse"),
    ([10, 10, 10], [12, 12, 12], "lower", "ok"),  # 20% worse, within the bound
    ([50, 100, 150, 200], [120, 130, 140, 150], "higher", "unresolved"),  # parent IQR 60%
    ([50, 100, 150, 200], [201, 210, 220, 230], "higher", "ok"),  # every change run better
    ([0.3, 0.3], [0.3, 0.3], "lower", "ok"),
])
def test_verdict(script, parent, change, better, expected):
    assert script.verdict(parent, change, better, 0.25) == expected


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                          check=True, capture_output=True, text=True).stdout


def test_parent_checkout_is_removed_even_after_an_error(script, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("first\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "first")
    (repo / "a.txt").write_text("second\n")

    with script.parent_checkout("HEAD", repo=str(repo)) as path:
        assert open(os.path.join(path, "a.txt")).read() == "first\n"
    assert not os.path.exists(path)
    with pytest.raises(RuntimeError):
        with script.parent_checkout("HEAD", repo=str(repo)) as path:
            raise RuntimeError("a run failed")
    assert not os.path.exists(os.path.dirname(path))
    assert len(_git(repo, "worktree", "list").splitlines()) == 1
