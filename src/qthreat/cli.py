"""Command-line front end for the experiment pipelines.

Subcommands map onto pipeline stages (preprocess, train-encoder,
train-qsvm, train-vqc), bundle evaluation (evaluate, stream-eval), and the
experiment matrix (matrix, report). Stage commands share a bundle workdir;
finished stages are skipped by content key, so running train-qsvm after
preprocess reuses the stored split.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import featuremap, harness, persist, vqc
from .harness import ExperimentConfig, PipelineError, Seeds


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


# Every flag that sets an ExperimentConfig field has that field as its dest
# (a seed flag: "seeds" for all three, "seeds.<name>" for one) and no default
# of its own: the parsers' argument_default is SUPPRESS, so an absent flag
# leaves its setting to ExperimentConfig and Seeds.
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"seeds"}


def _dataset_args(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True, choices=harness.DATASETS)
    p.add_argument("--train-path", help="NSL-KDD train file")
    p.add_argument("--test-path", help="NSL-KDD test file")
    p.add_argument("--corpus-path", help="Ling-Spam corpus root")
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--ngram-max", type=int)
    p.add_argument("--max-train", type=int)


def _encoder_args(p: argparse.ArgumentParser):
    p.add_argument("--hidden", dest="hidden_sizes", type=_int_list, metavar="H1,H2")
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--patience", type=int)


def _quantum_args(p: argparse.ArgumentParser):
    p.add_argument("--qubits", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--vqc-reps", dest="reupload", type=int, help="re-uploading layers")
    p.add_argument("--entanglement", choices=featuremap.ENTANGLEMENTS)
    p.add_argument("--convention", dest="second_order_coeff", choices=featuremap.CONVENTIONS)


def _execution_args(p: argparse.ArgumentParser):
    p.add_argument("--backend", choices=harness.BACKENDS)
    p.add_argument("--shots", type=int)
    p.add_argument("--depol1", dest="depol_1q", type=float)
    p.add_argument("--depol2", dest="depol_2q", type=float)
    p.add_argument("--readout01", dest="readout_01", type=float)
    p.add_argument("--readout10", dest="readout_10", type=float)
    p.add_argument("--mitigate", action="store_true")
    p.add_argument("--sampling-seed", dest="seeds.sampling", type=int)


def _pipeline_parser(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
    p.add_argument("--workdir", required=True)
    p.add_argument(
        "--id", dest="experiment_id",
        help="experiment id (defaults to <dataset>-<model>, e.g. nslkdd-qsvm)",
    )
    _dataset_args(p)
    _encoder_args(p)
    _quantum_args(p)
    _execution_args(p)
    p.add_argument("--seed", dest="seeds", type=int, help="sets all three seeds")
    p.add_argument("--data-seed", dest="seeds.data", type=int)
    p.add_argument("--encoder-seed", dest="seeds.encoder", type=int)
    p.add_argument("--c-grid", type=_float_list)
    p.add_argument("--folds", dest="cv_folds", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--fine-tune", action="store_true")
    return p


def _config_from(args, model: str) -> ExperimentConfig:
    """The config of the flags given; every other setting keeps its default.
    --seed sets all three seeds, and each --<name>-seed then replaces one."""
    given = vars(args)
    seeds = {
        n: given.get(f"seeds.{n}", given.get("seeds")) for n in ("data", "encoder", "sampling")
    }
    fields = {k: v for k, v in given.items() if k in _CONFIG_FIELDS}
    fields["experiment_id"] = fields.get("experiment_id") or f"{args.dataset}-{model}"
    return ExperimentConfig(
        model=model, seeds=Seeds(**{n: v for n, v in seeds.items() if v is not None}), **fields
    )


def _bundle_execution(args) -> vqc.Execution:
    """The Execution `evaluate` and `stream-eval` score with: the bundle's
    config with each given flag replacing its field, exact unless --backend
    shots."""
    given = vars(args)
    config = harness.load_bundle(args.workdir, verify=False).config
    fields = {k: v for k, v in given.items() if k in _CONFIG_FIELDS}
    fields.setdefault("backend", "exact")
    if "seeds.sampling" in given:
        fields["seeds"] = dataclasses.replace(config.seeds, sampling=given["seeds.sampling"])
    return dataclasses.replace(config, **fields).execution()


def _print_metrics(metrics_dict: dict):
    print(json.dumps(metrics_dict, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qthreat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _pipeline_parser(sub, "preprocess", "parse, split, and vectorize a dataset")
    _pipeline_parser(sub, "train-encoder", "train the MLP encoder on a prepared split")
    _pipeline_parser(sub, "train-qsvm", "run the full kernel-SVM pipeline")
    _pipeline_parser(sub, "train-vqc", "run the full variational-classifier pipeline")

    pe = sub.add_parser(
        "evaluate", help="re-evaluate a finished bundle on its test split",
        argument_default=argparse.SUPPRESS,
    )
    pe.add_argument("--workdir", required=True)
    _execution_args(pe)

    ps = sub.add_parser(
        "stream-eval", help="stream test rows one at a time with audit lines",
        argument_default=argparse.SUPPRESS,
    )
    ps.add_argument("--workdir", required=True)
    # each stream flag but --full-test is an evaluate_streaming keyword of
    # the same name, which owns its default
    ps.add_argument("--subset-size", type=int)
    ps.add_argument("--full-test", action="store_true", help="stream every test row")
    ps.add_argument("--audit", dest="audit_path", help="audit CSV path")
    ps.add_argument(
        "--reference-limit",
        type=int,
        help="QSVM support vectors each row is compared with, shot mode only "
        "(exact mode scores through every support vector)",
    )
    _execution_args(ps)

    pm = sub.add_parser("matrix", help="run a set of experiment configs with repeats")
    pm.add_argument("--config", required=True, help="JSON file with an experiments list")
    pm.add_argument("--workdir", required=True)
    pm.add_argument("--repeats", type=int, default=1)

    pr = sub.add_parser("report", help="print a finished matrix and export plot CSV")
    pr.add_argument("--workdir", required=True)
    pr.add_argument("--csv", default=None, help="write per-cell rows to this CSV path")
    return parser


_STAGE_COMMANDS = {
    "preprocess": ("qsvm", "preprocess"),
    "train-encoder": ("qsvm", "encoder"),
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
    result = harness.evaluate_bundle(args.workdir, _bundle_execution(args))
    _print_metrics(result["metrics"])
    return 0


def _run_stream(args) -> int:
    import numpy as np

    given = vars(args)
    stream = {k: given[k] for k in ("subset_size", "audit_path", "reference_limit") if k in given}
    if given.get("full_test"):
        # the row count from the split header alone: evaluate_streaming reads
        # the split once, hash-checked, and range-checks the subset against it
        header = persist.load_json(Path(args.workdir) / "preprocess" / "split.json")
        stream["subset"] = np.arange(header["arrays"]["y_test"]["shape"][0])
    result = harness.evaluate_streaming(
        args.workdir, execution=_bundle_execution(args), **stream
    )
    _print_metrics(result["report"].as_dict())
    print(f"audit lines: {len(result['lines'])} -> {result['audit_path']}")
    return 0


def _run_matrix(args) -> int:
    raw = persist.load_json(args.config)
    entries = raw["experiments"] if isinstance(raw, dict) and set(raw) == {"experiments"} else raw
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f"{args.config}: need a list of config objects or "
                         '{"experiments": [<config>, ...]}')
    configs = [ExperimentConfig.from_dict(e) for e in entries]
    result = harness.run_matrix(configs, args.workdir, repeats=args.repeats)
    print(result["table"])
    errors = [r for r in result["rows"] if "error" in r]
    if errors:
        print(f"{len(errors)} cell(s) failed", file=sys.stderr)
    return 0


def _run_report(args) -> int:
    data = persist.load_json(Path(args.workdir) / "matrix.json")
    print(harness.format_matrix(data["rows"], data["means"]))
    if args.csv:
        persist.save_text(args.csv, harness.matrix_csv(data))
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
