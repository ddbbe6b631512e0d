#!/usr/bin/env python3
"""End-to-end toy experiment: synthesize a two-speaker harmonic corpus, train
the codec, run every latent-space analysis, then train the continuous twin
and produce the discrete-vs-continuous ablation table (--skip-ablation skips
both).

    python scripts/run_toy_experiment.py --workdir runs/toy [--steps 20000]

All artifacts land under the workdir: data/, cache/, ckpt/, reports/. After
each stage the script prints its wall, user and system seconds. The
acceptance suite's toy fixture runs the same config and stages.
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter

from prosody_codec import cli


def default_config(root: str, max_steps: int, seed: int) -> dict:
    return {
        "features": {},
        "model": {},
        "train": {
            "batch_size": 8,
            "warmup_steps": 200,
            "max_steps": max_steps,
            "target_loss_ratio": 0.03,
            "dead_code_threshold": 0.15,
            "dead_code_every": 20,
            "seed": seed,
            "eval_every": 500,
            "checkpoint_every": 1000,
        },
        "synth": {
            "n_speakers": 2,
            "n_utterances": 32,
            "phoneme_inventory": 10,
            "f0_ranges": [[120.0, 260.0], [140.0, 300.0]],
            "amp_range": [0.3, 1.0],
            "segments_min": 8,
            "segments_max": 14,
            "glide_semitones": 1.0,
            "seed": 7,
        },
        "analysis": {"extract_fraction": 1.0, "n_path_points": 5, "corridor_halfwidth": 0.18},
        "paths": {
            "manifest": os.path.join(root, "data", "manifest.jsonl"),
            "cache_dir": os.path.join(root, "cache"),
            "checkpoint_dir": os.path.join(root, "ckpt"),
            "report_dir": os.path.join(root, "reports"),
        },
    }


def stages(config_path: str, skip_ablation: bool = False) -> list[list[str]]:
    """The toy pipeline's commands, in the order they run."""
    commands = [["synth-data"], ["prepare"], ["train"]]
    commands += [["analyze", what] for what in
                 ("usage", "entropy", "klmap", "pca", "probes", "speaker-relative")]
    commands += [["resynth"], ["metrics", "--task", "reconstruction"]]
    if not skip_ablation:
        commands += [["train", "--continuous"], ["ablate-continuous"]]
    return [[name, "--config", config_path, *rest] for name, *rest in commands]


class StageFailed(RuntimeError):
    def __init__(self, stage: str, code: int):
        super().__init__(f"stage `{stage}` exited with code {code}")
        self.code = code


def run_stages(config_path: str, skip_ablation: bool = False) -> dict[str, dict[str, float]]:
    """Run the stages in order; return each one's wall, user and system
    seconds, keyed by its command without the config (e.g. ``"analyze
    usage"``). Raises StageFailed at the first stage that exits nonzero."""
    seconds = {}
    for argv in stages(config_path, skip_ablation):
        print(f"\n$ prosody-codec {' '.join(argv)}")
        start, before = perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        code = cli.main(argv)
        after = resource.getrusage(resource.RUSAGE_SELF)
        stage = " ".join(a for a in argv if a not in ("--config", config_path))
        seconds[stage] = {"wall": perf_counter() - start, "user": after.ru_utime - before.ru_utime,
                          "system": after.ru_stime - before.ru_stime}
        print(f"{stage}: " + ", ".join(f"{k} {v:.2f} s" for k, v in seconds[stage].items()))
        if code != 0:
            raise StageFailed(stage, code)
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/toy")
    parser.add_argument("--steps", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-ablation", action="store_true")
    args = parser.parse_args()

    root = os.path.abspath(args.workdir)
    os.makedirs(os.path.join(root, "data"), exist_ok=True)
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(default_config(root, args.steps, args.seed), fh, indent=2)
    print(f"config: {config_path}")
    try:
        run_stages(config_path, args.skip_ablation)
    except StageFailed as exc:
        print(f"stage failed with exit code {exc.code}", file=sys.stderr)
        return exc.code
    print(f"\nreports: {os.path.join(root, 'reports')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
