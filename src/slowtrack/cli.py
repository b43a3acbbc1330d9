"""Command-line entry point wiring every stage of the pipeline.

Subcommands: ``gen`` (synthetic sequence directory), ``train`` (offline
training to a model file + loss trace), ``track`` (results CSV per
sequence), ``eval`` (curves, plots, aggregate table), ``gradcheck``
(finite-difference report), ``verify-bound`` (Monte Carlo verification
reports), and ``ablate`` (every training variant end-to-end plus a
comparison table).

Exit codes: 0 success, 1 usage or validation failure (including failed
checks), 2 internal error. All randomness fans out from one --seed via
sha256-derived per-module seeds, so a single number reproduces a whole
experiment; a seed written explicitly in the config file wins over the
fan-out. The SLOWTRACK_LOG environment variable overrides --log-level.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bound import (
    GENERATORS,
    BoundParams,
    standard_scenario,
    verify_chebyshev,
    verify_error_bound,
    write_reports,
)
from .config import build, check_known_sections, load_config, split_sections
from .dataset import SynthSpec, generate, load_sequence, save_sequence
from .errors import ConfigError, SlowTrackError
from .evaluate import (
    auc,
    emit_plots,
    precision_at,
    precision_curve,
    success_curve,
    write_eval_table,
)
from .loss import VARIANTS, LossWeights
from .net import conditioned_batch, finite_diff_check, init_model, load_model, save_model
from .sampler import SamplerConfig
from .tracker import TrackerConfig, read_results, track_sequence, write_results
from .train import TrainConfig, train_offline, write_trace

log = logging.getLogger(__name__)

LOG_ENV = "SLOWTRACK_LOG"
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

DEFAULT_DIMS = "1024,128,32,32,16,2"
GRADCHECK_DIMS = "64,32,16,16,8,2"


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse funnels all usage errors here
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved plumbing shared by the subcommands."""

    command: str
    sections: dict
    out: Path | None
    seed: int
    log_level: str


def derive_seed(master: int, scope: str) -> int:
    """Deterministic per-module seed from the master seed."""
    digest = hashlib.sha256(f"{master}/{scope}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _seeded(entries: dict[str, str], master: int, scope: str) -> dict[str, str]:
    if "seed" in entries:
        return entries
    return {**entries, "seed": str(derive_seed(master, scope))}


def _run_config(args) -> RunConfig:
    sections = split_sections(load_config(args.config)) if args.config else {}
    out = Path(args.out) if getattr(args, "out", None) else None
    return RunConfig(args.command, sections, out, args.seed, args.log_level)


@dataclass(frozen=True)
class NetConfig:
    """Feature/classifier layer sizes and the init seed."""

    dims: tuple[int, ...] = tuple(int(d) for d in DEFAULT_DIMS.split(","))
    seed: int = 0


def _tracker_config(sections: dict, master: int) -> TrackerConfig:
    """TrackerConfig() with the sampler and training sections overlaid
    on its own sub-configs, then the tracker section on the result."""
    base = TrackerConfig()
    subs = {
        name: build(getattr(base, name), _seeded(sections.get(name, {}), master, name), name)
        for name in ("sampler", "init_train", "update_train")
    }
    return build(replace(base, **subs), sections.get("tracker", {}), "tracker")


def _eval_records(records, sequence):
    if not records:
        raise ConfigError(f"no tracked frames for sequence {sequence.name!r}")
    preds, gts = [], []
    for r in records:
        if not 2 <= r.frame <= sequence.T:
            raise ConfigError(
                f"results frame {r.frame} outside sequence {sequence.name!r} "
                f"(T={sequence.T}); wrong sequence for these results?"
            )
        preds.append(r.box)
        gts.append(sequence.groundtruth[r.frame - 1])
    return precision_curve(preds, gts), success_curve(preds, gts)


# --- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    rc = _run_config(args)
    check_known_sections(rc.sections, {"synth"})
    spec = build(SynthSpec, _seeded(rc.sections.get("synth", {}), rc.seed, "synth"), "synth")
    seq = generate(spec)
    save_sequence(seq, rc.out)
    print(f"wrote {seq.T} frames ({spec.frame_w}x{spec.frame_h}) to {rc.out}")
    return 0


def cmd_train(args) -> int:
    rc = _run_config(args)
    check_known_sections(rc.sections, {"net", "train", "sampler", "loss"})
    sequences = [load_sequence(p) for p in args.sequences]
    net_cfg = build(NetConfig, _seeded(rc.sections.get("net", {}), rc.seed, "net"), "net")
    tc = build(TrainConfig, _seeded(rc.sections.get("train", {}), rc.seed, "train"), "train")
    sc = build(
        SamplerConfig, _seeded(rc.sections.get("sampler", {}), rc.seed, "sampler"), "sampler"
    )
    weights = build(LossWeights, rc.sections.get("loss", {}), "loss")
    model = init_model(net_cfg.dims, seed=net_cfg.seed)
    trained, trace = train_offline(sequences, model, tc, sc, weights)
    rc.out.mkdir(parents=True, exist_ok=True)
    save_model(trained, rc.out / "model.txt")
    write_trace(trace, rc.out / "loss.csv")
    if trace:
        window = max(1, min(50, len(trace) // 10))
        first = float(np.mean([r.loss for r in trace[:window]]))
        last = float(np.mean([r.loss for r in trace[-window:]]))
        print(
            f"trained {tc.iterations} steps ({tc.variant}): "
            f"loss {first:.4f} -> {last:.4f}"
        )
    print(f"model written to {rc.out / 'model.txt'}")
    return 0


def cmd_track(args) -> int:
    rc = _run_config(args)
    check_known_sections(
        rc.sections, {"tracker", "sampler", "init_train", "update_train", "loss"}
    )
    model = load_model(args.model)
    cfg = _tracker_config(rc.sections, rc.seed)
    weights = build(LossWeights, rc.sections.get("loss", {}), "loss")
    rc.out.mkdir(parents=True, exist_ok=True)
    for path in args.sequences:
        seq = load_sequence(path)
        _, records = track_sequence(model, seq, cfg, weights)
        out_path = rc.out / f"results-{seq.name}.csv"
        write_results(records, out_path)
        updates = sum(r.updated for r in records)
        print(f"{seq.name}: {len(records)} frames, {updates} updates -> {out_path}")
    return 0


def cmd_eval(args) -> int:
    rc = _run_config(args)
    prec_curves, succ_curves, rows = {}, {}, []
    for label, results_path, seq_dir in args.run:
        records = read_results(results_path)
        seq = load_sequence(seq_dir)
        pc, sc = _eval_records(records, seq)
        series = f"{label}-{seq.name}"
        if series in prec_curves:
            raise ConfigError(f"duplicate eval series {series!r}")
        prec_curves[series] = pc
        succ_curves[series] = sc
        rows.append((label, seq.name, precision_at(pc), auc(sc)))
    rc.out.mkdir(parents=True, exist_ok=True)
    emit_plots(
        prec_curves, rc.out, stem="precision",
        x_label="center error threshold (px)", y_label="precision",
    )
    emit_plots(
        succ_curves, rc.out, stem="success",
        x_label="overlap threshold (IoU)", y_label="success rate",
    )
    write_eval_table(rows, rc.out / "table.csv")
    print("tracker,sequence,prec@20,auc")
    for tracker, sequence, p20, area in sorted(rows):
        print(f"{tracker},{sequence},{p20:.4f},{area:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    weights = LossWeights()
    rng = np.random.default_rng(derive_seed(args.seed, "gradcheck-batch"))
    all_passed = True
    worst = 0.0
    for i in range(args.models):
        model = init_model(dims, seed=derive_seed(args.seed, f"gradcheck-model-{i}"))
        batch = conditioned_batch(model, rng)
        report = finite_diff_check(
            model, batch, weights, tol=args.tol, variant=args.variant
        )
        print(f"model {i} ({args.variant}): {report}")
        all_passed &= report.passed
        worst = max(worst, report.max_rel_err)
    print(f"worst relative error over {args.models} models: {worst:.3e}")
    return 0 if all_passed else 1


def cmd_verify_bound(args) -> int:
    rc = _run_config(args)
    check_known_sections(rc.sections, {"bound"})
    params = build(BoundParams, rc.sections.get("bound", {}), "bound")
    seed = derive_seed(rc.seed, "bound")
    reports = [
        verify_chebyshev(params, noise=gen, trials=args.trials, seed=seed)
        for gen in GENERATORS
    ]
    reports.append(
        verify_error_bound(
            params, standard_scenario(params), trials=args.trials, seed=seed,
            label="error-bound-standard",
        )
    )
    reports.append(
        verify_error_bound(
            params,
            standard_scenario(params, predictor="adversarial", predictor_scale=50.0),
            trials=args.trials, seed=seed, label="error-bound-adversarial",
        )
    )
    rc.out.mkdir(parents=True, exist_ok=True)
    write_reports(reports, rc.out / "bound-report.csv")
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(
            f"{r.label}: rho={r.rho:.4f} violation={r.violation_rate:.4f} "
            f"satisfaction={r.satisfaction_rate:.4f} {state}"
        )
    return 0 if all(r.passed for r in reports) else 1


def cmd_ablate(args) -> int:
    rc = _run_config(args)
    check_known_sections(
        rc.sections,
        {"net", "train", "sampler", "loss", "tracker", "init_train", "update_train"},
    )
    corpus = [load_sequence(p) for p in args.sequences]
    track_seq = load_sequence(args.track)
    net_cfg = build(NetConfig, _seeded(rc.sections.get("net", {}), rc.seed, "net"), "net")
    base_tc = build(
        TrainConfig, _seeded(rc.sections.get("train", {}), rc.seed, "train"), "train"
    )
    sampler = build(
        SamplerConfig, _seeded(rc.sections.get("sampler", {}), rc.seed, "sampler"), "sampler"
    )
    weights = build(LossWeights, rc.sections.get("loss", {}), "loss")
    tracker_cfg = _tracker_config(rc.sections, rc.seed)
    rows = []
    for variant in VARIANTS:
        tc = replace(base_tc, variant=variant)
        model = init_model(net_cfg.dims, seed=net_cfg.seed)
        trained, trace = train_offline(corpus, model, tc, sampler, weights)
        vdir = rc.out / variant
        vdir.mkdir(parents=True, exist_ok=True)
        save_model(trained, vdir / "model.txt")
        write_trace(trace, vdir / "loss.csv")
        _, records = track_sequence(trained, track_seq, tracker_cfg, weights)
        write_results(records, vdir / f"results-{track_seq.name}.csv")
        pc, sc = _eval_records(records, track_seq)
        rows.append((variant, track_seq.name, precision_at(pc), auc(sc)))
        log.info("variant %s done: auc %.4f", variant, rows[-1][3])
    write_eval_table(rows, rc.out / "ablation.csv")
    print("tracker,sequence,prec@20,auc")
    for tracker, sequence, p20, area in sorted(rows):
        print(f"{tracker},{sequence},{p20:.4f},{area:.4f}")
    return 0


# --- wiring -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="slowtrack", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--log-level", default="INFO", choices=LOG_LEVELS, help="logging verbosity"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, out_required=True):
        p.add_argument("--config", help="key=value experiment config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="render a synthetic sequence directory")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="offline training to a model file")
    p.add_argument("sequences", nargs="+", help="training sequence directories")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="run the tracker over sequences")
    p.add_argument("sequences", nargs="+", help="sequence directories to track")
    p.add_argument("--model", required=True, help="trained model file")
    common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="curves, plots, and the aggregate table")
    p.add_argument(
        "--run", nargs=3, action="append", required=True,
        metavar=("LABEL", "RESULTS", "SEQDIR"),
        help="one evaluation run; repeatable",
    )
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    p.add_argument("--dims", default=GRADCHECK_DIMS, help="comma-separated layer sizes")
    p.add_argument("--models", type=int, default=5, help="number of random models")
    p.add_argument("--tol", type=float, default=1e-4, help="relative error tolerance")
    p.add_argument("--variant", default="full", choices=VARIANTS)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("verify-bound", help="Monte Carlo guarantee verification")
    p.add_argument("--trials", type=int, default=10_000)
    common(p)
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("ablate", help="train/track/eval every variant")
    p.add_argument("sequences", nargs="+", help="training sequence directories")
    p.add_argument("--track", required=True, help="sequence directory to track")
    common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def _init_logging(level_flag: str) -> None:
    name = os.environ.get(LOG_ENV, level_flag).upper()
    if name not in LOG_LEVELS:
        raise ConfigError(
            f"{LOG_ENV}={name!r} is not a log level; pick one of {LOG_LEVELS}"
        )
    logging.basicConfig(
        level=getattr(logging, name), format="%(levelname)s %(name)s: %(message)s"
    )


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"slowtrack: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits 0 through here
        return int(exc.code or 0)
    try:
        _init_logging(args.log_level)
        return args.func(args)
    except SlowTrackError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1
    except Exception:
        log.exception("internal error")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
