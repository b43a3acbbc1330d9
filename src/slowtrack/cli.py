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
fan-out.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bound import (
    GENERATORS,
    TRIALS,
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
    EVAL_TABLE_HEADER,
    auc,
    emit_plots,
    precision_at,
    precision_curve,
    success_curve,
    write_eval_table,
)
from .loss import VARIANTS, LossWeights
from .net import FD_TOL, conditioned_batch, finite_diff_check, init_model, load_model, save_model
from .sampler import SamplerConfig
from .tracker import TrackerConfig, read_results, track_sequence, write_results
from .train import TrainConfig, train_offline, write_trace

log = logging.getLogger(__name__)

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

DEFAULT_DIMS = "1024,128,32,32,16,2"
GRADCHECK_DIMS = "64,32,16,16,8,2"


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse funnels all usage errors here
        raise UsageError(message)


def derive_seed(master: int, scope: str) -> int:
    """Deterministic per-module seed from the master seed."""
    digest = hashlib.sha256(f"{master}/{scope}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _read_config(args, known: set[str]) -> dict[str, dict[str, str]]:
    """The --config file's sections; any the command does not read is an
    error."""
    sections = split_sections(load_config(args.config)) if args.config else {}
    check_known_sections(sections, known)
    return sections


def _section(sections: dict, name: str, dc, master: int):
    """build(dc, sections[name]), dc a config dataclass or an instance of
    one. A dataclass with a `seed` field gets one derived from the master
    seed and the section name unless the section sets it."""
    entries = sections.get(name, {})
    if "seed" in {f.name for f in fields(dc)} and "seed" not in entries:
        entries = {**entries, "seed": str(derive_seed(master, name))}
    return build(dc, entries, name)


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
        name: _section(sections, name, getattr(base, name), master)
        for name in ("sampler", "init_train", "update_train")
    }
    return _section(sections, "tracker", replace(base, **subs), master)


def _training_configs(sections: dict, master: int):
    """The net, train, sampler and loss sections of train and ablate."""
    return (
        _section(sections, "net", NetConfig, master),
        _section(sections, "train", TrainConfig, master),
        _section(sections, "sampler", SamplerConfig, master),
        _section(sections, "loss", LossWeights, master),
    )


def _write_table(rows, path: Path) -> None:
    """The aggregate table, to path and, at four decimals, to stdout."""
    write_eval_table(rows, path)
    print(EVAL_TABLE_HEADER)
    for tracker, sequence, p20, area in sorted(rows):
        print(f"{tracker},{sequence},{p20:.4f},{area:.4f}")


def _eval_records(records, sequence):
    """Precision and success curves of results that list frames 2..T of
    `sequence`, each once and in order; any other listing raises
    ConfigError naming the first repeated or missing frame."""
    if not records:
        raise ConfigError(f"no tracked frames for sequence {sequence.name!r}")
    preds, gts = [], []
    fault = None
    for want, r in enumerate(records, start=2):
        if not 2 <= r.frame <= sequence.T:
            raise ConfigError(
                f"results frame {r.frame} outside sequence {sequence.name!r} "
                f"(T={sequence.T}); wrong sequence for these results?"
            )
        if r.frame != want:
            fault = f"repeat frame {r.frame}" if r.frame < want else f"lack frame {want}"
            break
        preds.append(r.box)
        gts.append(sequence.groundtruth[r.frame - 1])
    if fault is None and len(records) < sequence.T - 1:
        fault = f"lack frame {len(records) + 2}"
    if fault is not None:
        raise ConfigError(
            f"results for sequence {sequence.name!r} {fault}; expected frames "
            f"2..{sequence.T}, each once and in order"
        )
    return precision_curve(preds, gts), success_curve(preds, gts)


# --- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    sections = _read_config(args, {"synth"})
    spec = _section(sections, "synth", SynthSpec, args.seed)
    seq = generate(spec)
    save_sequence(seq, args.out)
    print(f"wrote {seq.T} frames ({spec.frame_w}x{spec.frame_h}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    sections = _read_config(args, {"net", "train", "sampler", "loss"})
    sequences = [load_sequence(p) for p in args.sequences]
    net_cfg, tc, sc, weights = _training_configs(sections, args.seed)
    model = init_model(net_cfg.dims, seed=net_cfg.seed)
    trained, trace = train_offline(sequences, model, tc, sc, weights)
    args.out.mkdir(parents=True, exist_ok=True)
    save_model(trained, args.out / "model.txt")
    write_trace(trace, args.out / "loss.csv")
    if trace:
        window = max(1, min(50, len(trace) // 10))
        first = float(np.mean([r.loss for r in trace[:window]]))
        last = float(np.mean([r.loss for r in trace[-window:]]))
        print(
            f"trained {tc.iterations} steps ({tc.variant}): "
            f"loss {first:.4f} -> {last:.4f}"
        )
    print(f"model written to {args.out / 'model.txt'}")
    return 0


def cmd_track(args) -> int:
    sections = _read_config(args, {"tracker", "sampler", "init_train", "update_train", "loss"})
    model = load_model(args.model)
    cfg = _tracker_config(sections, args.seed)
    weights = _section(sections, "loss", LossWeights, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    for path in args.sequences:
        seq = load_sequence(path)
        _, records = track_sequence(model, seq, cfg, weights)
        out_path = args.out / f"results-{seq.name}.csv"
        write_results(records, out_path)
        updates = sum(r.updated for r in records)
        print(f"{seq.name}: {len(records)} frames, {updates} updates -> {out_path}")
    return 0


def cmd_eval(args) -> int:
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
    args.out.mkdir(parents=True, exist_ok=True)
    emit_plots(
        prec_curves, args.out, stem="precision",
        x_label="center error threshold (px)", y_label="precision",
    )
    emit_plots(
        succ_curves, args.out, stem="success",
        x_label="overlap threshold (IoU)", y_label="success rate",
    )
    _write_table(rows, args.out / "table.csv")
    return 0


def cmd_gradcheck(args) -> int:
    dims = build(NetConfig, {"dims": args.dims}, "gradcheck").dims
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
    sections = _read_config(args, {"bound"})
    params = _section(sections, "bound", BoundParams, args.seed)
    seed = derive_seed(args.seed, "bound")
    reports = [
        verify_chebyshev(params, noise=gen, trials=args.trials, seed=seed)
        for gen in GENERATORS
    ]
    scenarios = {
        "standard": standard_scenario(params),
        "adversarial": standard_scenario(params, predictor="adversarial", predictor_scale=50.0),
    }
    reports += [
        verify_error_bound(params, sc, trials=args.trials, seed=seed, label=f"error-bound-{name}")
        for name, sc in scenarios.items()
    ]
    args.out.mkdir(parents=True, exist_ok=True)
    write_reports(reports, args.out / "bound-report.csv")
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(
            f"{r.label}: rho={r.rho:.4f} violation={r.violation_rate:.4f} "
            f"satisfaction={r.satisfaction_rate:.4f} {state}"
        )
    return 0 if all(r.passed for r in reports) else 1


def cmd_ablate(args) -> int:
    sections = _read_config(
        args, {"net", "train", "sampler", "loss", "tracker", "init_train", "update_train"}
    )
    if "variant" in sections.get("train", {}):
        raise ConfigError("train.variant: ablate runs every variant; drop the key")
    corpus = [load_sequence(p) for p in args.sequences]
    track_seq = load_sequence(args.track)
    net_cfg, base_tc, sampler, weights = _training_configs(sections, args.seed)
    tracker_cfg = _tracker_config(sections, args.seed)
    rows = []
    # Every variant's config is checked before the first one trains.
    for tc in [replace(base_tc, variant=v) for v in VARIANTS]:
        model = init_model(net_cfg.dims, seed=net_cfg.seed)
        trained, trace = train_offline(corpus, model, tc, sampler, weights)
        vdir = args.out / tc.variant
        vdir.mkdir(parents=True, exist_ok=True)
        save_model(trained, vdir / "model.txt")
        write_trace(trace, vdir / "loss.csv")
        _, records = track_sequence(trained, track_seq, tracker_cfg, weights)
        write_results(records, vdir / f"results-{track_seq.name}.csv")
        pc, sc = _eval_records(records, track_seq)
        rows.append((tc.variant, track_seq.name, precision_at(pc), auc(sc)))
        log.info("variant %s done: auc %.4f", tc.variant, rows[-1][3])
    _write_table(rows, args.out / "ablation.csv")
    return 0


# --- wiring -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="slowtrack", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--log-level", default="INFO", choices=LOG_LEVELS, help="logging verbosity"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="key=value experiment config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, type=Path, help="output directory")

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
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.set_defaults(func=cmd_eval)

    def count(text: str) -> int:  # argparse names it in "invalid count value"
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
        return int(text)

    def tolerance(text: str) -> float:  # argparse names it in "invalid tolerance value"
        # inf passes every entry and 0, a negative or NaN fails them all
        if not 0 < float(text) < np.inf:
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
        return float(text)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    p.add_argument("--dims", default=GRADCHECK_DIMS, help="comma-separated layer sizes")
    p.add_argument("--models", type=count, default=5, help="number of random models")
    p.add_argument("--tol", type=tolerance, default=FD_TOL, help="relative error tolerance")
    p.add_argument("--variant", default="full", choices=VARIANTS)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("verify-bound", help="Monte Carlo guarantee verification")
    p.add_argument("--trials", type=int, default=TRIALS)
    common(p)
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("ablate", help="train/track/eval every variant")
    p.add_argument("sequences", nargs="+", help="training sequence directories")
    p.add_argument("--track", required=True, help="sequence directory to track")
    common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


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
    logging.basicConfig(
        level=args.log_level, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
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
