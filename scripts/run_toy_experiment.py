#!/usr/bin/env python3
"""End-to-end toy experiment: synthesize a two-speaker harmonic corpus, train
the codec, run every latent-space analysis, then train the continuous twin
and produce the discrete-vs-continuous ablation table (--skip-ablation skips
both).

    python scripts/run_toy_experiment.py --workdir runs/toy [--steps 20000]

All artifacts land under the workdir: data/, cache/, ckpt/, reports/. After
each stage the script prints its wall, user and system seconds.
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
        "analysis": {
            "extract_fraction": 1.0,
            "n_path_points": 5,
            "corridor_halfwidth": 0.18,
        },
        "paths": {
            "manifest": os.path.join(root, "data", "manifest.jsonl"),
            "cache_dir": os.path.join(root, "cache"),
            "checkpoint_dir": os.path.join(root, "ckpt"),
            "report_dir": os.path.join(root, "reports"),
        },
    }


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

    stages = [
        ["synth-data", "--config", config_path],
        ["prepare", "--config", config_path],
        ["train", "--config", config_path],
        ["analyze", "--config", config_path, "usage"],
        ["analyze", "--config", config_path, "entropy"],
        ["analyze", "--config", config_path, "klmap"],
        ["analyze", "--config", config_path, "pca"],
        ["analyze", "--config", config_path, "probes"],
        ["analyze", "--config", config_path, "speaker-relative"],
        ["resynth", "--config", config_path],
        ["metrics", "--config", config_path, "--task", "reconstruction"],
    ]
    if not args.skip_ablation:
        stages.append(["train", "--continuous", "--config", config_path])
        stages.append(["ablate-continuous", "--config", config_path])
    for argv in stages:
        print(f"\n$ prosody-codec {' '.join(argv)}")
        start, before = perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        code = cli.main(argv)
        after = resource.getrusage(resource.RUSAGE_SELF)
        stage = " ".join(a for a in argv if a not in ("--config", config_path))
        print(f"{stage}: wall {perf_counter() - start:.2f} s, "
              f"user {after.ru_utime - before.ru_utime:.2f} s, "
              f"system {after.ru_stime - before.ru_stime:.2f} s")
        if code != 0:
            print(f"stage failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nreports: {os.path.join(root, 'reports')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
