"""scripts/bench_pairs.py without running the benchmark: the order of the
runs, the summary it writes, and the parent checkout it always removes."""

import contextlib
import importlib.util
import json
import math
import os
import subprocess
import types

import numpy as np
import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_output(workload, seed, frames_per_s, peak_rss_mb, uncorrected=93.5, factor=1.05,
                correct=True, op_ms_p50=None):
    """A run's output; ``uncorrected`` or ``factor`` None leaves out its line."""
    metrics = {"frames_per_s": {"value": frames_per_s, "unit": "frames/s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    if op_ms_p50 is not None:
        metrics["op_ms_p50"] = {"value": op_ms_p50, "unit": "ms"}
    lines = [
        f"workload {workload}  seed {seed}  trace 0  rounds 4  ops 40  loop 1.0 s  set-ups 3",
        'env {"nproc": 2}',
        "  frames_per_s   1 frames/s",
        f"  40 ops, 4 beyond p90; uncorrected: setup 0.3 s, {uncorrected} frames/s, op p50 9 ms, "
        "p90 9 ms",
        f"  host speed factor (time correction) over 9 samples: median {factor}, range 0.9-1.1",
        json.dumps({"correct": correct, "attempted": 40, "failed": 0, "metrics": metrics}),
    ]
    return "\n".join(line for line in lines if "None" not in line)


def test_pairs_alternate_and_are_summarized(script, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")
    calls = []
    # parent runs read 100, 110, 120, 130 frames/s; the change 1.5x those,
    # except in pair 3, where the parent wins; memory is equal in pair 0;
    # per pair (uncorrected frames/s, correction factor): the change run of
    # pair 1 printed neither, so that pair counts for neither
    speeds = {"parent": iter([100.0, 110.0, 120.0, 130.0]), "change": iter([150.0, 165.0, 180.0, 100.0])}
    memory = {"parent": iter([60.0, 60.0, 60.0, 60.0]), "change": iter([60.0, 62.0, 58.0, 61.0])}
    raw = {"parent": iter([(90.0, 1.0), (95.0, 1.1), (100.0, 1.2), (105.0, 1.0)]),
           "change": iter([(120.0, 0.8), (None, None), (110.0, 1.3), (100.0, 1.1)])}

    def run(checkout, workload, seed, seconds):
        side = "parent" if checkout == "/parent" else "change"
        calls.append((side, workload, seed, seconds))
        return fake_output(workload, seed, next(speeds[side]), next(memory[side]), *next(raw[side]))

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
    assert set(entry) == {"seconds", "seeds", "readouts", "runs"}
    runs = entry["runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs[:4]] == [
        (0, "parent", True), (0, "change", False), (1, "change", True), (1, "parent", False)]
    assert runs[0]["run"].startswith("workload resynth  seed 7") and runs[0]["env"] == {"nproc": 2}
    assert runs[0]["metrics"] == {"frames_per_s": 100.0, "peak_rss_mb": 60.0}
    assert all("steal_s" in r for r in runs)
    assert runs[0]["uncorrected_frames_per_s"] == 90.0 and runs[0]["host_speed_factor"] == 1.0
    readouts = entry["readouts"]
    frames = readouts["frames_per_s"]
    assert frames["parent"] == {"q1": 107.5, "median": 115.0, "q3": 122.5}
    assert frames["change"]["median"] == 157.5
    assert frames["wins"] == {"change": 3, "parent": 1, "ties": 0}
    assert frames["log_ratio"]["pairs"] == pytest.approx([math.log(1.5)] * 3 + [math.log(100 / 130)])
    # lower is better for memory
    assert readouts["peak_rss_mb"]["wins"] == {"change": 1, "parent": 2, "ties": 1}
    assert {name: r["verdict"] for name, r in readouts.items() if "verdict" in r} == {
        "frames_per_s": "ok", "peak_rss_mb": "ok"}
    # the higher correction factor wins a pair: its side's host read as faster
    uncorrected, factor = readouts["uncorrected_frames_per_s"], readouts["host_speed_factor"]
    assert uncorrected["parent"] == {"q1": 93.75, "median": 97.5, "q3": 101.25}
    assert uncorrected["change"]["median"] == 110.0 and factor["change"]["median"] == 1.1
    assert uncorrected["wins"] == {"change": 2, "parent": 1, "ties": 0}
    assert factor["wins"] == {"change": 2, "parent": 1, "ties": 0}
    assert len(uncorrected["log_ratio"]["pairs"]) == 3
    assert result["parent_commit"] == "abc1234"

    monkeypatch.setattr(script, "ROOT", str(tmp_path))
    monkeypatch.setattr(script, "bench", lambda args: result)
    assert script.main(["--parent", "HEAD~1", "--name", "x", "--workloads", "resynth",
                        "--seeds", "7", "--pairs", "4"]) == 0
    printed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert set(printed) == set(readouts)
    assert printed["frames_per_s"].split()[1:3] == ["parent", "115"]
    assert printed["frames_per_s"].endswith("sign p 0.312: ok")
    assert printed["uncorrected_frames_per_s"].split()[1:3] == ["parent", "97.5"]
    assert printed["host_speed_factor"].endswith("sign p 0.5")
    assert (tmp_path / "BENCH_x.json").exists()


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
    readouts = result["workloads"]["resynth"]["readouts"]
    uncorrected, factor = readouts["uncorrected_frames_per_s"], readouts["host_speed_factor"]
    assert uncorrected["parent"] == {"q1": 92.5, "median": 95.0, "q3": 97.5}
    assert uncorrected["change"]["median"] == 115.0
    assert factor["change"]["median"] == 1.0
    assert uncorrected["wins"] == {"change": 2, "parent": 0, "ties": 0}
    assert factor["wins"] == {"change": 0, "parent": 1, "ties": 1}

    monkeypatch.setattr(script, "ROOT", str(tmp_path))
    monkeypatch.setattr(script, "bench", lambda args: result)
    assert script.main(["--parent", "HEAD~1", "--name", "x", "--workloads", "resynth",
                        "--seeds", "7", "--pairs", "3"]) == 0
    printed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert printed["uncorrected_frames_per_s"].split()[1:3] == ["parent", "95"]
    assert printed["host_speed_factor"].split()[1:3] == ["parent", "1.1"]
    assert (tmp_path / "BENCH_x.json").exists()


def test_a_run_that_dies_before_its_result_line_names_itself(script, monkeypatch):
    # the parent's run reports an incorrect result, and the series goes on;
    # the change's run dies after printing its first lines
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")
    outputs = iter([
        (0, fake_output("resynth", 7, 100.0, 60.0, correct=False), ""),
        (1, "workload resynth\nenv {}\nrunning...\n", "Traceback ...\nMemoryError\n"),
    ])
    calls = []

    def run(cmd, cwd, **kwargs):
        calls.append(cwd)
        code, stdout, stderr = next(outputs)
        return subprocess.CompletedProcess(cmd, code, stdout, stderr)

    @contextlib.contextmanager
    def checkout(rev):
        yield "/parent"

    monkeypatch.setattr(script.subprocess, "run", run)
    args = script.parse_args(["--parent", "HEAD~1", "--name", "x", "--workloads", "resynth",
                              "--seeds", "7", "--pairs", "1", "--seconds", "2"])
    with pytest.raises(RuntimeError) as info:
        script.bench(args, checkout=checkout)
    assert calls == ["/parent", script.ROOT]
    message = str(info.value)
    assert message.startswith(f"{script.ROOT}: perfbench/run.py --workload resynth --seed 7")
    assert "(exit 1)" in message and message.endswith("MemoryError\n")


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


def test_log_ratios_per_pair_with_median_band_and_sign_test(script, monkeypatch):
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")
    # per pair, parent then change: (frames/s, uncorrected frames/s, op p50 ms);
    # the change is faster in pairs 0-2, slower in pair 3, and its
    # uncorrected reading is missing in pair 2
    values = {"parent": iter([(100.0, 90.0, 10.0), (100.0, 90.0, 10.0), (200.0, 90.0, 10.0),
                              (100.0, 90.0, 10.0)]),
              "change": iter([(110.0, 99.0, 9.0), (120.0, 108.0, 8.0), (300.0, None, 5.0),
                              (90.0, 81.0, 11.0)])}

    def run(checkout, workload, seed, seconds):
        frames, raw, p50 = next(values["parent" if checkout == "/parent" else "change"])
        return fake_output(workload, seed, frames, 60.0, uncorrected=raw, op_ms_p50=p50)

    args = script.parse_args(["--parent", "HEAD~1", "--name", "x", "--workloads", "train",
                              "--seeds", "5", "--pairs", "4", "--seconds", "2"])
    readouts = script.bench(args, run=run, checkout=lambda rev: contextlib.nullcontext("/parent"))[
        "workloads"]["train"]["readouts"]
    ratios = {name: readout["log_ratio"] for name, readout in readouts.items()}
    frames = ratios["frames_per_s"]
    expected = [math.log(1.1), math.log(1.2), math.log(1.5), math.log(0.9)]
    assert frames["pairs"] == pytest.approx(expected)
    assert frames["median"] == pytest.approx((math.log(1.1) + math.log(1.2)) / 2)
    assert frames["p5"] == pytest.approx(math.log(0.9) + 0.15 * (math.log(1.1) - math.log(0.9)))
    assert frames["p95"] == pytest.approx(math.log(1.2) + 0.85 * (math.log(1.5) - math.log(1.2)))
    assert frames["sign_p"] == pytest.approx(5 / 16)  # 3 or 4 wins of 4
    assert ratios["uncorrected_frames_per_s"]["pairs"] == pytest.approx(
        [math.log(1.1), math.log(1.2), math.log(0.9)])
    assert ratios["uncorrected_frames_per_s"]["sign_p"] == pytest.approx(4 / 8)
    # a lower op time is better: the change wins the pairs whose ratio is below 1
    assert ratios["op_ms_p50"]["pairs"] == pytest.approx(
        [math.log(0.9), math.log(0.8), math.log(0.5), math.log(1.1)])
    assert ratios["op_ms_p50"]["sign_p"] == pytest.approx(5 / 16)
    assert script.sign_test(8, 0) == pytest.approx(1 / 256) and script.sign_test(0, 3) == 1.0


def test_each_run_records_its_cpu_time_and_faults(script, monkeypatch):
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")
    # RUSAGE_CHILDREN readings: each run adds 2 + k user and 0.5 system
    # seconds and 100 k faults, k = 1, 2 in run order
    readings = iter([(0.0, 0.0, 0), (3.0, 0.5, 100), (3.0, 0.5, 100), (7.0, 1.0, 300)])

    def getrusage(who):
        assert who == script.resource.RUSAGE_CHILDREN
        user, system, faults = next(readings)
        return types.SimpleNamespace(ru_utime=user, ru_stime=system, ru_minflt=faults)

    monkeypatch.setattr(script.resource, "getrusage", getrusage)
    args = script.parse_args(["--parent", "HEAD~1", "--name", "x", "--workloads", "train",
                              "--seeds", "5", "--pairs", "1", "--seconds", "2"])
    runs = script.bench(args, run=lambda checkout, workload, seed, seconds: fake_output(
        workload, seed, 100.0, 60.0), checkout=lambda rev: contextlib.nullcontext("/p"))[
        "workloads"]["train"]["runs"]
    assert runs[0]["cpu"] == {"user_s": 3.0, "sys_s": 0.5, "minflt": 100, "user_s_per_op": 3.0 / 40,
                              "sys_s_per_op": 0.5 / 40, "minflt_per_op": 100 / 40}
    assert runs[1]["cpu"]["user_s"] == 4.0 and runs[1]["cpu"]["minflt_per_op"] == 200 / 40
    readout = script.readouts(runs[0])
    assert readout["cpu_s_per_op"] == 3.5 / 40 and readout["minflt_per_op"] == 100 / 40
    del runs[0]["cpu"]  # runs of older BENCH files have no cpu readings
    assert script.readouts(runs[0])["cpu_s_per_op"] is None
    assert script.readouts(runs[0])["minflt_per_op"] is None


@pytest.mark.parametrize("name", ["BENCH_null_train.json", "BENCH_fused_modules_encode_resynth.json"])
def test_stored_runs_give_their_stored_summary_again(script, name):
    # files written before the readouts table: summary, wins and verdicts of
    # the end-to-end metrics, the uncorrected block and three log-ratios
    with open(os.path.join(script.ROOT, name), encoding="utf-8") as fh:
        stored = json.load(fh)
    with open(os.path.join(script.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for entry in stored["workloads"].values():
        readouts = script.summarize(entry["runs"], metrics)
        for block in (entry, entry["uncorrected"]):
            for metric, wins in block["wins"].items():
                assert readouts[metric]["wins"] == wins
                for side in script.SIDES:
                    assert readouts[metric][side] == block["summary"][side][metric]
        assert {m: readouts[m]["verdict"] for m in entry["verdicts"]} == entry["verdicts"]
        for metric, ratio in entry["log_ratios"].items():
            ours = readouts[metric]["log_ratio"]
            assert ours["pairs"] == pytest.approx(ratio["pairs"], rel=0, abs=1e-12)
            for key in ("median", "p5", "p95", "sign_p"):
                assert ours[key] == pytest.approx(ratio[key], rel=0, abs=1e-12)


def test_a_gain_lies_beyond_the_pooled_null_band_with_a_sign_test(script, monkeypatch, tmp_path,
                                                                  capsys):
    monkeypatch.setattr(script, "git", lambda *args, **kwargs: "abc1234" if "rev-parse" in args else "")

    def series(workload, pairs):
        """A bench result from per-pair (parent, change) outputs, each
        (frames/s, op p50 ms, uncorrected frames/s)."""
        values = {side: iter([pair[k] for pair in pairs]) for k, side in enumerate(script.SIDES)}

        def run(checkout, workload, seed, seconds):
            frames, p50, raw = next(values["parent" if checkout == "/parent" else "change"])
            return fake_output(workload, seed, frames, 60.0, uncorrected=raw, op_ms_p50=p50)

        args = script.parse_args(["--parent", "HEAD", "--name", "x", "--workloads", workload,
                                  "--seeds", "5", "--pairs", str(len(pairs)), "--seconds", "2"])
        return script.bench(args, run=run, checkout=lambda rev: contextlib.nullcontext("/parent"))

    # null pairs: frames/s ratios 0.97-1.05, op p50 and memory equal, the
    # uncorrected reading spread wider; two files pooled, and a third whose
    # name only starts like them left out
    null = {"BENCH_null_encode.json": [0.98, 1.0, 1.02, 1.04],
            "BENCH_null_encode_2.json": [0.97, 1.01, 1.03, 1.05],
            "BENCH_null_encoder.json": [2.0, 2.0, 2.0, 2.0]}
    for name, ratios in null.items():
        result = series("encode", [((100.0, 10.0, 93.5), (100.0 * r, 10.0, 93.5 * (2 * r - 1)))
                                   for r in ratios])
        (tmp_path / name).write_text(json.dumps(result))
    pooled = [math.log(r) for r in null["BENCH_null_encode.json"] + null["BENCH_null_encode_2.json"]]
    # the change: frames/s 1.1x in 9 of 10 pairs (beyond the band, sign p
    # 11/1024); op p50 0.9x in 6 pairs and 1.05x in 4 (beyond, but sign p
    # 0.38); uncorrected 94 against 93.5 in every pair (sign p 1/1024, but
    # inside its band)
    change = series("encode", [((100.0, 10.0, 93.5), (110.0 if i < 9 else 95.0,
                                                      9.0 if i < 6 else 10.5, 94.0))
                               for i in range(10)])
    monkeypatch.setattr(script, "ROOT", str(tmp_path))
    monkeypatch.setattr(script, "bench", lambda args: change)
    assert script.main(["--parent", "HEAD~1", "--name", "x", "--workloads", "encode",
                        "--seeds", "5", "--pairs", "10"]) == 0
    readouts = json.loads((tmp_path / "BENCH_x.json").read_text())["workloads"]["encode"]["readouts"]
    frames, p50, raw = (readouts[k] for k in ("frames_per_s", "op_ms_p50", "uncorrected_frames_per_s"))
    p5, p95 = np.percentile(pooled, [5, 95])
    assert frames["null"] == {"p5": pytest.approx(p5), "p95": pytest.approx(p95), "pairs": 8}
    assert frames["log_ratio"]["median"] == pytest.approx(math.log(1.1))
    assert frames["log_ratio"]["sign_p"] == pytest.approx(11 / 1024) and frames["gain"] is True
    assert p50["better"] == "lower" and p50["null"] == {"p5": 0.0, "p95": 0.0, "pairs": 8}
    assert p50["log_ratio"]["median"] < 0.0 and p50["log_ratio"]["sign_p"] > 0.05
    assert p50["gain"] is False
    assert raw["log_ratio"]["sign_p"] < 0.05 and raw["null"]["p95"] > math.log(94.0 / 93.5)
    assert raw["gain"] is False
    assert readouts["peak_rss_mb"]["gain"] is False and "gain" not in readouts["host_speed_factor"]
    printed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert printed["frames_per_s"].endswith(f"; null [{p5:+.4f}, {p95:+.4f}] of 8 pairs, gain yes: ok")
    assert printed["op_ms_p50"].endswith("of 8 pairs, gain no: ok")


def test_a_lower_is_better_readout_gains_only_below_its_band(script):
    # judge() on its own: the same median log-ratio and sign test are a
    # gain for a higher-is-better readout above the band, and not for a
    # lower-is-better one; a readout without null pairs gets neither key
    ratio = {"median": 0.2, "sign_p": 0.01, "pairs": [0.2] * 8, "p5": 0.2, "p95": 0.2}
    readouts = {"a": {"better": "higher", "log_ratio": dict(ratio)},
                "b": {"better": "lower", "log_ratio": dict(ratio)},
                "c": {"better": "higher", "log_ratio": dict(ratio)},
                "d": {"better": "lower", "log_ratio": {**ratio, "median": -0.2}}}
    script.judge(readouts, {"a": [-0.1, 0.1], "b": [-0.1, 0.1], "d": [-0.1, 0.1]})
    assert readouts["a"]["gain"] is True and readouts["b"]["gain"] is False
    assert readouts["d"]["gain"] is True
    assert "null" not in readouts["c"] and "gain" not in readouts["c"]


def test_the_host_speed_factor_is_a_diagnostic_without_a_gain(script):
    # far beyond its null band with every pair won, yet no verdict: the
    # factor describes the host, not the program, and the per-op CPU seconds
    # and page faults count every set-up the run made
    ratio = {"median": 0.5, "sign_p": 0.001, "pairs": [0.5] * 10, "p5": 0.5, "p95": 0.5}
    entry = {"better": "higher", "log_ratio": ratio, "wins": {"change": 10, "parent": 0, "ties": 0},
             "parent": {"q1": 0.9, "median": 1.0, "q3": 1.1},
             "change": {"q1": 1.5, "median": 1.6, "q3": 1.7}}
    lower = {**entry, "better": "lower", "log_ratio": {**ratio, "median": -0.5}}
    readouts = {"host_speed_factor": entry, "frames_per_s": {**entry, "log_ratio": dict(ratio)},
                "cpu_s_per_op": dict(lower), "minflt_per_op": dict(lower)}
    script.judge(readouts, {"host_speed_factor": [-0.3, 0.2], "frames_per_s": [-0.1, 0.1],
                            "cpu_s_per_op": [-0.1, 0.1], "minflt_per_op": [-0.1, 0.1]})
    assert readouts["host_speed_factor"]["null"] == {"p5": pytest.approx(-0.275),
                                                     "p95": pytest.approx(0.175), "pairs": 2}
    assert readouts["frames_per_s"]["gain"] is True
    for name in ("host_speed_factor", "cpu_s_per_op", "minflt_per_op"):
        assert "gain" not in readouts[name] and readouts[name]["null"]["pairs"] == 2
        line = script.summary_line(name, readouts[name])
        assert line.endswith("of 2 pairs, diagnostic") and "gain" not in line
    assert script.summary_line("frames_per_s", readouts["frames_per_s"]).endswith("gain yes")
