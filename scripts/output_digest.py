"""Print one sha256 per fixed-seed output file of slowtrack.

A change that must keep every output byte-identical is checked by
running this script on both checkouts and diffing the two listings:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/output_digest.py > before.txt
    diff before.txt after.txt

The script takes no options. It writes into a temporary directory,
removed on exit:

* train/<run>/loss.csv and model.txt from `train_offline` (80 steps of
  a 64-16-8-8-4-2 model) for every loss variant, for `classifier_only`
  training and for an RGB corpus;
* finetune/{initial,update}.txt, the models `finetune_initial` and
  `finetune_update` return, finetune/update-adam.txt, the same update
  under Adam, and
  finetune/{initial,update}-classifier-only-{sgd,adam}.txt, the same
  two phases with the feature layers frozen, under each optimizer;
* track/results-*.csv from `track_sequence` on four sequences (one
  RGB, one starting partly off the frame, one with the feature layers
  frozen in both online phases); all but the off-frame one fire online
  updates every fifth frame;
* track/results-diverging-update.csv from `track_sequence` on the
  drift sequence with every online update at learning rate 1e6, so each
  update overflows and is dropped;
* track/results-exhausted.csv from `track_sequence` with m = 3
  candidates drawn a million box sizes away, so candidate sampling
  spends its 1000 * m proposals and carries the box forward every frame;
* track/results-side32-*.csv from `track_sequence` with a 1024-input
  model, whose 32x32 patches upsample a 24 px target as the tracking
  benchmark does, and whose crops of a 72 px target read more than
  2 x 32 source rows per box; both fire online updates;
* track/results-benchmark-{easy,edge}.csv from `track_sequence` with
  the default tracker settings (m = 800 candidates, 32x32 patches) on
  a 360x240 easy sequence and on one whose target runs off the frame
  edge, with a 1024-input model trained as the tracking benchmark
  trains its own: the benchmark's regime, in 12 frames each;
* cli/ from `slowtrack gen`, `train` and `track` with the configs of
  tests/test_cli.py, and cli/gradcheck-<variant>.txt, the printed report
  of `slowtrack gradcheck --models 2` for three loss variants, which
  covers `conditioned_batch`, `backward` and `finite_diff_check`;
* cli/abl/ from `slowtrack ablate` on seq-a and seq-b, with the train
  and track settings joined in one config, and its printed table in
  cli/ablate.txt;
* cli/evals/ from `slowtrack eval` on the `track` result and the ablated
  `full` result (table, curve CSVs and SVGs), printed to cli/eval.txt;
* cli/bound/ from `slowtrack verify-bound` at its default trial count,
  printed to cli/verify-bound.txt; cli/bound-wide/ from a run at n = 7,
  m = 2341 and 1,100 trials, which span 36 of the verifiers' 4 MiB
  blocks, printed to cli/verify-bound-wide.txt; and cli/bound-n1/ from
  a run at n = 1, where both error-bound satisfactions lie inside
  (0, 1), so the prediction stream shows, printed to
  cli/verify-bound-n1.txt.

It takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from slowtrack.cli import dispatch
from slowtrack.dataset import SynthSpec, generate
from slowtrack.loss import VARIANTS
from slowtrack.net import init_model, load_model, save_model
from slowtrack.sampler import SamplerConfig
from slowtrack.tracker import TrackerConfig, track_sequence, write_results
from slowtrack.train import (
    TrainConfig,
    finetune_initial,
    finetune_update,
    train_offline,
    write_trace,
)

DIMS = (64, 16, 8, 8, 4, 2)
RGB_DIMS = (192, 16, 8, 8, 4, 2)
SIDE32_DIMS = (1024, 32, 16, 16, 8, 2)
BENCH_DIMS = (1024, 128, 32, 32, 16, 2)

# The configs of tests/test_cli.py's pipeline fixture.
TRAIN_CFG = (
    "net.dims = 64,16,8,8,4,2\nnet.seed = 0\n"
    "train.iterations = 40\ntrain.optimizer = sgd\ntrain.learning_rate = 0.01\n"
    "train.batch_size = 8\ntrain.seed = 1\nsampler.seed = 2\n"
)
TRACK_CFG = (
    "tracker.m = 100\ntracker.top_k = 3\n"
    "init_train.iterations = 30\ninit_train.learning_rate = 0.01\n"
    "init_train.batch_size = 8\n"
    "update_train.iterations = 10\nupdate_train.batch_size = 8\n"
)
CLI_CONFIGS = {
    "gen-a.cfg": "synth.T = 8\nsynth.velocity = 1.0,0.0\nsynth.seed = 5\n",
    "gen-b.cfg": "synth.T = 8\nsynth.velocity = 0.5,0.5\nsynth.seed = 6\n",
    "train.cfg": TRAIN_CFG,
    "track.cfg": "sampler.seed = 4\n" + TRACK_CFG,
    # A key may appear once, so ablate shares train.cfg's sampler.seed.
    "ablate.cfg": TRAIN_CFG + TRACK_CFG,
    # n * m is odd, and 1,100 trials span 36 of the verifiers' blocks.
    "bound.cfg": "bound.n = 7\nbound.m = 2341\nbound.delta = 0.06\nbound.K = 0.01\n",
    # At n = 1 an error-bound trial can fail, whatever the predictor.
    "bound-n1.cfg": "bound.n = 1\nbound.m = 20\nbound.delta = 0.3\nbound.K = 0.05\n",
}


def write_training(out: Path) -> None:
    corpus = [
        generate(SynthSpec(T=10, velocity=(1.0, 0.5), seed=11)),
        generate(SynthSpec(T=10, velocity=(-0.5, 1.0), occlusions=((3, 4),), seed=12)),
    ]
    rgb = [generate(SynthSpec(T=10, velocity=(1.0, 0.0), rgb=True, seed=13))]
    base = TrainConfig(iterations=80, batch_size=8, seed=3)
    runs = {v: (corpus, DIMS, replace(base, variant=v)) for v in VARIANTS}
    runs["classifier_only"] = (corpus, DIMS, replace(base, classifier_only=True))
    runs["rgb"] = (rgb, RGB_DIMS, base)
    for name, (seqs, dims, tc) in runs.items():
        model, trace = train_offline(seqs, init_model(dims, seed=0), tc, SamplerConfig(seed=4))
        (out / name).mkdir(parents=True)
        save_model(model, out / name / "model.txt")
        write_trace(trace, out / name / "loss.csv")


def write_finetunes(out: Path) -> None:
    seq = generate(SynthSpec(T=8, velocity=(1.0, 0.0), seed=0))
    tc = TrainConfig(iterations=40, optimizer="sgd", learning_rate=0.01, batch_size=8)
    first = finetune_initial(
        init_model(DIMS, seed=0), seq.frames[0], seq.groundtruth[0], tc, SamplerConfig(seed=4)
    )
    updated = finetune_update(
        first, seq.frames[4], seq.groundtruth[4], replace(tc, iterations=20),
        SamplerConfig(seed=6),
    )
    adam = finetune_update(
        first, seq.frames[4], seq.groundtruth[4], replace(tc, iterations=20, optimizer="adam"),
        SamplerConfig(seed=6),
    )
    out.mkdir(parents=True)
    save_model(first, out / "initial.txt")
    save_model(updated, out / "update.txt")
    save_model(adam, out / "update-adam.txt")
    for optimizer in ("sgd", "adam"):
        frozen = replace(tc, optimizer=optimizer, classifier_only=True)
        first = finetune_initial(
            init_model(DIMS, seed=0), seq.frames[0], seq.groundtruth[0], frozen,
            SamplerConfig(seed=4),
        )
        updated = finetune_update(
            first, seq.frames[4], seq.groundtruth[4], replace(frozen, iterations=20),
            SamplerConfig(seed=6),
        )
        save_model(first, out / f"initial-classifier-only-{optimizer}.txt")
        save_model(updated, out / f"update-classifier-only-{optimizer}.txt")


def write_tracking(out: Path) -> None:
    corpus = [generate(SynthSpec(T=10, velocity=(1.0, 0.5), seed=11))]
    tc = TrainConfig(iterations=60, batch_size=8, seed=3)
    model, _ = train_offline(corpus, init_model(DIMS, seed=0), tc, SamplerConfig(seed=4))
    rgb_model, _ = train_offline(
        [generate(SynthSpec(T=10, velocity=(1.0, 0.0), rgb=True, seed=13))],
        init_model(RGB_DIMS, seed=0), tc, SamplerConfig(seed=4),
    )
    online = TrainConfig(iterations=10, optimizer="sgd", learning_rate=0.01, batch_size=8)
    cfg = TrackerConfig(
        m=100,
        top_k=3,
        sampler=SamplerConfig(seed=5),
        init_train=replace(online, iterations=30),
        update_train=online,
    )
    always = replace(cfg, update_score_threshold=-1.0)
    frozen = replace(
        always,
        init_train=replace(always.init_train, classifier_only=True),
        update_train=replace(online, classifier_only=True),
    )
    runs = [
        ("drift", model, SynthSpec(T=16, velocity=(1.5, -0.5), seed=21), always),
        ("classifier-only", model, SynthSpec(T=16, velocity=(1.0, -1.0), seed=27), frozen),
        ("rgb", rgb_model, SynthSpec(T=16, velocity=(1.0, 1.0), rgb=True, seed=22), always),
        ("edge", model, SynthSpec(T=12, start_x=-6.0, velocity=(2.0, 0.0), seed=23), cfg),
        (
            "diverging-update",
            model,
            SynthSpec(T=16, velocity=(1.5, -0.5), seed=21),
            replace(always, update_train=replace(online, learning_rate=1e6)),
        ),
        (
            "exhausted",
            model,
            SynthSpec(T=6, velocity=(1.0, 0.0), seed=26),
            # No first-frame finetune: its negatives could not be drawn either.
            replace(
                cfg, m=3, sampler=SamplerConfig(sigma_xy=1e6, seed=5),
                init_train=replace(online, iterations=0),
            ),
        ),
    ]
    side32, _ = train_offline(
        [generate(SynthSpec(T=10, velocity=(1.0, 0.5), seed=14))],
        init_model(SIDE32_DIMS, seed=0), replace(tc, iterations=40), SamplerConfig(seed=4),
    )
    runs += [
        ("side32-upsample", side32, SynthSpec(T=12, velocity=(1.5, 0.5), seed=24), always),
        (
            "side32-large",
            side32,
            SynthSpec(T=10, target_w=72.0, target_h=76.0, velocity=(1.0, -0.5), seed=25),
            always,
        ),
    ]
    # The tracking benchmark's model: its corpus, dims and training.
    bench_corpus = [
        generate(SynthSpec(T=40, frame_w=160, frame_h=120, target_w=24.0, target_h=24.0,
                           velocity=v, seed=seed))
        for seed, v in ((100, (1.0, 0.5)), (101, (-1.0, 1.0)))
    ]
    bench, _ = train_offline(
        bench_corpus, init_model(BENCH_DIMS, seed=0),
        TrainConfig(iterations=200, batch_size=16, seed=1), SamplerConfig(seed=2),
    )
    # Its regime: the default tracker on 360x240 frames, once in open
    # space and once with the target running off the left edge, where
    # ladder windows and per-box candidates mix.
    for name, velocity, start, seed in (
        ("benchmark-easy", (2.0, 0.0), (50.0, 110.0), 0),
        ("benchmark-edge", (-2.0, 1.0), (10.0, 100.0), 1),
    ):
        spec = SynthSpec(T=12, frame_w=360, frame_h=240, target_w=24.0, target_h=24.0,
                         velocity=velocity, start_x=start[0], start_y=start[1], seed=seed)
        runs.append((name, bench, spec, TrackerConfig()))
    out.mkdir(parents=True)
    for name, m, spec, config in runs:
        _, records = track_sequence(m, generate(spec), config)
        write_results(records, out / f"results-{name}.csv")


def write_cli(out: Path) -> None:
    out.mkdir(parents=True)
    for name, text in CLI_CONFIGS.items():
        (out / name).write_text(text)
    commands = [
        ["gen", "--config", out / "gen-a.cfg", "--out", out / "seq-a"],
        ["gen", "--config", out / "gen-b.cfg", "--out", out / "seq-b"],
        [
            "train", out / "seq-a", out / "seq-b",
            "--config", out / "train.cfg", "--out", out / "run",
        ],
        [
            "track", out / "seq-a", "--model", out / "run" / "model.txt",
            "--config", out / "track.cfg", "--out", out / "run",
        ],
    ]
    # (argv, file the command's stdout is kept in, or None)
    runs = [(argv, None) for argv in commands] + [
        (["gradcheck", "--models", 2, "--variant", v], out / f"gradcheck-{v}.txt")
        for v in ("full", "SlossOnly", "wo-Dloss")
    ]
    runs += [
        (
            [
                "ablate", out / "seq-a", out / "seq-b", "--track", out / "seq-b",
                "--config", out / "ablate.cfg", "--out", out / "abl",
            ],
            out / "ablate.txt",
        ),
        (
            [
                "eval",
                "--run", "full", out / "run" / "results-seq-a.csv", out / "seq-a",
                "--run", "ablate", out / "abl" / "full" / "results-seq-b.csv", out / "seq-b",
                "--out", out / "evals",
            ],
            out / "eval.txt",
        ),
        (["verify-bound", "--out", out / "bound"], out / "verify-bound.txt"),
        (
            [
                "verify-bound", "--config", out / "bound.cfg", "--trials", 1100,
                "--out", out / "bound-wide",
            ],
            out / "verify-bound-wide.txt",
        ),
        (
            ["verify-bound", "--config", out / "bound-n1.cfg", "--out", out / "bound-n1"],
            out / "verify-bound-n1.txt",
        ),
    ]
    for argv, keep in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = dispatch([str(a) for a in argv])
        if code != 0:
            sys.exit(f"slowtrack {argv[0]} exited {code}")
        if keep is not None:
            keep.write_text(stdout.getvalue())


def digest(path: Path, rel: Path) -> str:
    """sha256 of a file's bytes, or of a saved model's dims and parameters."""
    if rel.name != "model.txt" and rel.parts[0] != "finetune":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    model = load_model(path)
    h = hashlib.sha256(" ".join(map(str, model.dims)).encode() + b"\n")
    h.update(np.concatenate([a.ravel() for _, a in model.params()]).astype("<f8").tobytes())
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_training(root / "train")
        write_finetunes(root / "finetune")
        write_tracking(root / "track")
        write_cli(root / "cli")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            rel = path.relative_to(root)
            print(f"{digest(path, rel)}  {rel}")


if __name__ == "__main__":
    main()
