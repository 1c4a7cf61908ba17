"""Command-line front end for the experiment pipelines.

Subcommands map onto pipeline stages (preprocess, train-encoder,
build-kernel, train-qsvm, train-vqc), bundle evaluation (evaluate,
stream-eval), and the experiment matrix (matrix, report). Stage commands
share a bundle workdir; finished stages are skipped by content key, so
running train-qsvm after preprocess reuses the stored split.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, persist
from .harness import ExperimentConfig, PipelineError, Seeds
from .qsim import NoiseSpec


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _dataset_args(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True, choices=harness.DATASETS)
    p.add_argument("--train-path", default="", help="NSL-KDD train file")
    p.add_argument("--test-path", default="", help="NSL-KDD test file")
    p.add_argument("--corpus-path", default="", help="Ling-Spam corpus root")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--ngram-max", type=int, default=1)
    p.add_argument("--max-train", type=int, default=4000)


def _encoder_args(p: argparse.ArgumentParser):
    p.add_argument("--hidden", type=_int_list, default=(256, 64), metavar="H1,H2")
    p.add_argument("--embed-dim", type=int, default=12)
    p.add_argument("--dropout", type=float, default=0.15)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--patience", type=int, default=8)


def _quantum_args(p: argparse.ArgumentParser):
    p.add_argument("--qubits", type=int, default=4)
    p.add_argument("--reps", type=int, default=2)
    p.add_argument("--vqc-reps", type=int, default=2, help="re-uploading layers")
    p.add_argument("--entanglement", choices=("full", "linear"), default="full")
    p.add_argument("--convention", choices=("pi_minus", "product"), default="pi_minus")


def _execution_args(p: argparse.ArgumentParser):
    p.add_argument("--backend", choices=harness.BACKENDS, default="exact")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--depol1", type=float, default=0.0)
    p.add_argument("--depol2", type=float, default=0.0)
    p.add_argument("--readout01", type=float, default=0.0)
    p.add_argument("--readout10", type=float, default=0.0)
    p.add_argument("--mitigate", action="store_true")


def _seed_args(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="sets all three seeds")
    p.add_argument("--data-seed", type=int, default=None)
    p.add_argument("--encoder-seed", type=int, default=None)
    p.add_argument("--sampling-seed", type=int, default=None)


def _pipeline_parser(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--workdir", required=True)
    p.add_argument("--id", default=None, help="experiment id (defaults to the subcommand)")
    _dataset_args(p)
    _encoder_args(p)
    _quantum_args(p)
    _execution_args(p)
    _seed_args(p)
    p.add_argument("--c-grid", type=_float_list, default=(0.1, 1.0, 10.0, 100.0))
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--fine-tune", action="store_true")
    return p


def _seeds_from(args) -> Seeds:
    return Seeds(
        data=args.data_seed if args.data_seed is not None else args.seed,
        encoder=args.encoder_seed if args.encoder_seed is not None else args.seed,
        sampling=args.sampling_seed if args.sampling_seed is not None else args.seed,
    )


def _config_from(args, model: str) -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id=args.id or f"{args.dataset}-{model}",
        dataset=args.dataset,
        model=model,
        train_path=args.train_path,
        test_path=args.test_path,
        corpus_path=args.corpus_path,
        qubits=args.qubits,
        reps=args.reps,
        reupload=args.vqc_reps,
        entanglement=args.entanglement,
        second_order_coeff=args.convention,
        backend=args.backend,
        shots=args.shots,
        depol_1q=args.depol1,
        depol_2q=args.depol2,
        readout_01=args.readout01,
        readout_10=args.readout10,
        mitigate=args.mitigate,
        fine_tune=args.fine_tune,
        max_train=args.max_train,
        val_fraction=args.val_fraction,
        test_fraction=args.test_fraction,
        ngram_max=args.ngram_max,
        hidden_sizes=args.hidden,
        embed_dim=args.embed_dim,
        dropout=args.dropout,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        patience=args.patience,
        c_grid=args.c_grid,
        cv_folds=args.folds,
        beta=args.beta,
        seeds=_seeds_from(args),
    )


def _shot_overrides(args) -> dict:
    """The shot settings `evaluate` and `stream-eval` put in place of the
    bundle's config; unset flags (None) keep the config's value."""
    noise = NoiseSpec(args.depol1, args.depol2, args.readout01, args.readout10)
    return {
        "shots": args.shots,
        "noise": noise if noise != NoiseSpec() else None,
        "mitigate": args.mitigate or None,
        "sampling_seed": args.sampling_seed,
    }


def _print_metrics(metrics_dict: dict):
    print(json.dumps(metrics_dict, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qthreat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _pipeline_parser(sub, "preprocess", "parse, split, and vectorize a dataset")
    _pipeline_parser(sub, "train-encoder", "train the MLP encoder on a prepared split")
    _pipeline_parser(sub, "build-kernel", "build and center the fidelity-kernel Gram")
    _pipeline_parser(sub, "train-qsvm", "run the full kernel-SVM pipeline")
    _pipeline_parser(sub, "train-vqc", "run the full variational-classifier pipeline")

    pe = sub.add_parser("evaluate", help="re-evaluate a finished bundle on its test split")
    pe.add_argument("--workdir", required=True)
    _execution_args(pe)
    pe.add_argument("--sampling-seed", type=int, default=None)

    ps = sub.add_parser("stream-eval", help="stream test rows one at a time with audit lines")
    ps.add_argument("--workdir", required=True)
    ps.add_argument("--subset-size", type=int, default=100)
    ps.add_argument("--full-test", action="store_true", help="stream every test row")
    ps.add_argument("--audit", default=None, help="audit CSV path")
    ps.add_argument(
        "--reference-limit",
        type=int,
        default=harness.REFERENCE_LIMIT,
        help="QSVM support vectors each row is compared with, shot mode only "
        "(exact mode scores through every support vector)",
    )
    _execution_args(ps)
    ps.add_argument("--sampling-seed", type=int, default=None)

    pm = sub.add_parser("matrix", help="run a set of experiment configs with repeats")
    pm.add_argument("--config", required=True, help="JSON file with an experiments list")
    pm.add_argument("--workdir", required=True)
    pm.add_argument("--repeats", type=int, default=1)
    pm.add_argument("--workers", type=int, default=1)

    pr = sub.add_parser("report", help="print a finished matrix and export plot CSV")
    pr.add_argument("--workdir", required=True)
    pr.add_argument("--csv", default=None, help="write per-cell rows to this CSV path")
    return parser


_STAGE_COMMANDS = {
    "preprocess": ("qsvm", "preprocess"),
    "train-encoder": ("qsvm", "encoder"),
    "build-kernel": ("qsvm", "gram"),
    "train-qsvm": ("qsvm", None),
    "train-vqc": ("vqc", None),
}


def _run_stage_command(args) -> int:
    model, through = _STAGE_COMMANDS[args.command]
    config = _config_from(args, model)
    manifest = harness.run_experiment(config, args.workdir, through=through)
    if manifest["status"] == "complete":
        _print_metrics(manifest["metrics"])
    else:
        done = ", ".join(sorted(manifest["stages"]))
        print(f"stages complete: {done}")
    return 0


def _run_evaluate(args) -> int:
    result = harness.evaluate_bundle(args.workdir, backend=args.backend, **_shot_overrides(args))
    _print_metrics(result["metrics"])
    return 0


def _run_stream(args) -> int:
    import numpy as np

    from . import datapipe

    subset = None
    if args.full_test:
        split = datapipe.load_split(Path(args.workdir) / "preprocess")
        subset = np.arange(split.y_test.size)
    config = harness.load_bundle(args.workdir, verify=False).config
    execution = harness.bundle_execution(config, args.backend, **_shot_overrides(args))
    result = harness.evaluate_streaming(
        args.workdir,
        subset=subset,
        subset_size=args.subset_size,
        execution=execution,
        audit_path=args.audit,
        reference_limit=args.reference_limit,
    )
    _print_metrics(result["report"].as_dict())
    print(f"audit lines: {len(result['lines'])} -> {result['audit_path']}")
    return 0


def _run_matrix(args) -> int:
    raw = persist.load_json(args.config)
    entries = raw["experiments"] if isinstance(raw, dict) else raw
    configs = [ExperimentConfig.from_dict(e) for e in entries]
    result = harness.run_matrix(
        configs, args.workdir, repeats=args.repeats, workers=args.workers
    )
    print(result["table"])
    errors = [r for r in result["rows"] if "error" in r]
    if errors:
        print(f"{len(errors)} cell(s) failed", file=sys.stderr)
    return 0


def _run_report(args) -> int:
    data = persist.load_json(Path(args.workdir) / "matrix.json")
    print(harness.format_matrix(data["rows"], data["means"]))
    if args.csv:
        text = harness.matrix_csv(data)
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.csv}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _STAGE_COMMANDS:
            return _run_stage_command(args)
        if args.command == "evaluate":
            return _run_evaluate(args)
        if args.command == "stream-eval":
            return _run_stream(args)
        if args.command == "matrix":
            return _run_matrix(args)
        return _run_report(args)
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
