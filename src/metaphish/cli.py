"""Command-line pipeline: train models, revise beliefs, render reports.

Each setting is declared once, as a flag of ``_build_parser`` on the commands
that read it. A flat key=value file (``--config``) sets the flags' defaults,
so argparse types a file value as it types the flag, a flag still wins, and a
key the command does not read is an error. ``train`` echoes its settings into
``run_config.kv``, which, passed back as ``--config``, reproduces the run's
models, split and CV summary; ``revise`` echoes its own into ``revise_config.kv``.

Exit codes: 0 success, 1 pipeline failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

from metaphish import kb, nmr, revision
from metaphish.classifiers import (
    BEST_CONFIGS,
    DEFAULT_GRIDS,
    KIND_ORDER,
    ClassifierKind,
    generate_initial_beliefs,
    grid_search,
    load_model,
    save_model,
    train,
)
from metaphish.dataset import (
    CsvSchema,
    fit_scaler,  # noqa: F401  (unused here; perfbench/spans.py times cli.fit_scaler)
    load_dataset,
    load_meta_from_snapshots,
    make_split,
    train_class_counts,
)

MODEL_FILES = {kind: f"model_{kind.value}.json" for kind in KIND_ORDER}
MANIFEST_FILE = "split_manifest.csv"
INPUTS_FILE = "run_inputs.kv"


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


# the values of the params setting, each with its flag and that flag's help
PARAMS = {
    "best": ("--best-config", "use the stored winning configurations (the default)"),
    "grid": ("--grid-search", "run full cross-validated grid search"),
}
CLASSIFIERS = ("all", *(k.value for k in KIND_ORDER))


def _settings(args: argparse.Namespace) -> dict:
    """The run's settings: every parsed value but the command and the config path."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "config")}


def _read_config(args: argparse.Namespace) -> dict[str, str]:
    """The ``key=value`` pairs of the ``--config`` file, each naming a setting."""
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        values = revision.parse_kv(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for key in values:
        if key not in _settings(args):
            raise ConfigError(f"{path}: config key {key!r} is not a setting of '{args.command}'")
    return values


def _check_settings(cfg: argparse.Namespace) -> None:
    """The range checks argparse does not make, before anything is written."""
    if cfg.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {cfg.seed}")
    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError(f"--test-fraction must be strictly between 0 and 1, "
                          f"got {cfg.test_fraction}")
    if cfg.folds < 2:
        raise ConfigError(f"--folds must be at least 2, got {cfg.folds}")
    # a config file's value skips the flags' own checks
    if cfg.params not in PARAMS:
        raise ConfigError(f"params must be {' or '.join(map(repr, PARAMS))}, got {cfg.params!r}")
    if cfg.classifier not in CLASSIFIERS:
        raise ConfigError(f"classifier must be one of {'/'.join(CLASSIFIERS)}, "
                          f"got {cfg.classifier!r}")


def _echo_config(cfg: argparse.Namespace, path: Path) -> None:
    kv = {key: "" if value is None else str(value) for key, value in _settings(cfg).items()}
    path.write_text(revision.format_kv(kv), encoding="utf-8")


def _load_dataset(cfg: argparse.Namespace):
    if not cfg.dataset:
        raise ConfigError("no dataset path given (use --dataset or the config file)")
    path = Path(cfg.dataset)
    if not path.is_file():
        raise ConfigError(f"dataset not found: {path}")
    if cfg.meta_column:  # named explicitly, so it must be there
        with open(path, newline="", encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader(fh), [])]
        if cfg.meta_column not in header:
            raise ConfigError(f"{path}: meta column {cfg.meta_column!r} is not in the header; "
                              f"fix --meta-column")
    return load_dataset(path, CsvSchema(meta_column=cfg.meta_column or CsvSchema.meta_column))


def _fingerprint(data) -> dict[str, str]:
    """Row count and sha256 of the features and labels as loaded; the meta
    column stays out, so new meta evidence needs no retraining."""
    return {"rows": str(len(data)), "x_sha256": hashlib.sha256(data.X).hexdigest(),
            "y_sha256": hashlib.sha256(data.y).hexdigest()}


def _check_inputs(cfg: argparse.Namespace, out_dir: Path, data) -> None:
    """Raise ConfigError unless ``data`` is the dataset that 'train' recorded."""
    path = out_dir / INPUTS_FILE
    fix = "pass the dataset 'train' used or re-run 'train'"
    if not path.is_file():
        raise ConfigError(f"run inputs not found: {path}; {fix}")
    try:
        recorded = revision.parse_kv(path.read_text(encoding="utf-8"))
    except ValueError:
        recorded = {}
    differ = [key for key, value in _fingerprint(data).items() if recorded.get(key) != value]
    if differ:
        raise ConfigError(f"{path}: {cfg.dataset} is not the dataset 'train' used "
                          f"(mismatch: {', '.join(differ)}); {fix}")


def _write_manifest(split, out_dir: Path) -> None:
    fold_of = {}
    for f, fold in enumerate(split.folds):
        for rid in fold:
            fold_of[rid] = f
    with open(out_dir / MANIFEST_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "role", "fold"])
        for rid in sorted(split.train_ids | split.test_ids):
            if rid in split.test_ids:
                writer.writerow([rid, "test", ""])
            else:
                writer.writerow([rid, "train", fold_of[rid]])


def _read_manifest(out_dir: Path, n_rows: int) -> tuple[set[int], set[int]]:
    """The train and test ids of the split manifest, checked against a dataset
    of ``n_rows`` rows."""
    path = out_dir / MANIFEST_FILE
    if not path.is_file():
        raise ConfigError(f"split manifest not found: {path} (run 'train' first)")
    ids_by_role: dict[str, set[int]] = {"train": set(), "test": set()}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            role = row.get("role")
            try:
                rid = int(row.get("id") or "")
            except ValueError:
                rid = None
            fold = row.get("fold")
            if role not in ids_by_role:
                problem = f"unknown role {role!r} (expected 'train' or 'test')"
            elif rid is None:
                problem = f"id {row.get('id')!r} is not an integer"
            elif role == "train" and not (fold and fold.isascii() and fold.isdigit()):
                problem = f"train row {rid} has fold {fold!r}, not a non-negative integer"
            elif role == "test" and fold != "":
                problem = f"test row {rid} has fold {fold!r}; a test row has none"
            elif not 0 <= rid < n_rows:
                problem = f"id {rid} is outside the dataset's rows [0, {n_rows})"
            elif rid in ids_by_role["train"] or rid in ids_by_role["test"]:
                problem = f"duplicate id {rid}"
            else:
                ids_by_role[role].add(rid)
                continue
            raise ConfigError(
                f"{path}, line {reader.line_num}: {problem}; re-run 'train' on this dataset"
            )
    if not ids_by_role["test"]:
        raise ConfigError(
            f"{path}: no test rows to revise; re-run 'train' with a larger --test-fraction"
        )
    if not ids_by_role["train"]:
        raise ConfigError(f"{path}: no train rows to rebuild the models from; re-run 'train'")
    # train lists every row, so a missing one is a damaged file
    if len(ids_by_role["train"]) + len(ids_by_role["test"]) < n_rows:
        missing = min(set(range(n_rows)) - ids_by_role["train"] - ids_by_role["test"])
        raise ConfigError(f"{path}: id {missing} of the dataset's {n_rows} rows is not listed; "
                          f"re-run 'train' on this dataset")
    return ids_by_role["train"], ids_by_role["test"]


def cmd_train(cfg: argparse.Namespace) -> int:
    _check_settings(cfg)
    data = _load_dataset(cfg)
    counts = train_class_counts(data, cfg.test_fraction)
    # a grid search scores each fold, so every fold needs a row of each class
    limit = min(counts.values()) if cfg.params == "grid" else sum(counts.values())
    if cfg.folds > limit:
        rows = "of the smaller class " if cfg.params == "grid" else ""
        raise ConfigError(f"--folds {cfg.folds} is more than the train rows {rows}allow: "
                          f"pass --folds {limit} or fewer, or a smaller --test-fraction")
    split = make_split(data, cfg.test_fraction, cfg.folds, cfg.seed)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(split, out_dir)
    (out_dir / INPUTS_FILE).write_text(revision.format_kv(_fingerprint(data)), encoding="utf-8")

    summary: dict[str, str] = {}
    kinds = KIND_ORDER if cfg.classifier == "all" else (ClassifierKind(cfg.classifier),)
    for kind in kinds:
        if cfg.params == "grid":
            result = grid_search(kind, DEFAULT_GRIDS[kind], data, split.folds, cfg.seed)
            params = result.params
            summary[f"{kind.value}.source"] = "grid-search"
            summary[f"{kind.value}.cv_accuracy"] = f"{result.cv_accuracy:.6f}"
        else:
            params = BEST_CONFIGS[kind]
            summary[f"{kind.value}.source"] = "best-config"
        for name, value in params.items():
            summary[f"{kind.value}.param.{name}"] = str(value)
        model = train(kind, params, data, split.train_ids, cfg.seed)
        save_model(model, out_dir / MODEL_FILES[kind])
        print(f"trained {kind.value} ({summary[f'{kind.value}.source']})")
    (out_dir / "cv_summary.kv").write_text(revision.format_kv(summary), encoding="utf-8")
    _echo_config(cfg, out_dir / "run_config.kv")
    print(f"artifacts written to {out_dir}")
    return 0


def _meta_flags(cfg: argparse.Namespace, data, test_ids) -> dict[int, bool]:
    """Check the meta source (snapshot pages or meta column), then read each test id's flag."""
    if cfg.snapshot_dir:
        directory = Path(cfg.snapshot_dir)
        if not directory.is_dir():
            raise ConfigError(f"snapshot directory not found: {cfg.snapshot_dir}; "
                              f"fix --snapshot-dir or drop it to use the meta column")
        # a missing page means no meta tag, but none at all means the wrong directory
        if not any((directory / f"{rid}.html").is_file() for rid in test_ids):
            raise ConfigError(f"snapshot directory {cfg.snapshot_dir} has no <id>.html page "
                              f"for any of the {len(test_ids)} test ids; fix --snapshot-dir")
        return load_meta_from_snapshots(cfg.snapshot_dir, sorted(test_ids))
    if data.meta is None:
        raise ConfigError(
            f"no meta information: dataset has no {CsvSchema.meta_column!r} column; "
            f"pass --meta-column or --snapshot-dir"
        )
    rows = data.rows(test_ids)
    return dict(zip(rows.tolist(), data.meta[rows].tolist()))


def _load_rules(cfg: argparse.Namespace) -> nmr.Program:
    """The bundled revision program, or the ``--rules`` file, checked before any work."""
    if not cfg.rules:
        return revision.revision_program()
    path = Path(cfg.rules)
    if not path.is_file():
        raise ConfigError(f"rule file not found: {path}; fix the rule file path")
    try:
        program = revision.load_rules(path)
        # the fact predicates have fixed arities, so a clash shows before grounding
        nmr.check_arities(program, [(kb.PRED, ("svm", 0, "phishing")), (kb.META, (0, "yes"))])
    except nmr.ParseError as exc:  # its message starts with line:column
        raise ConfigError(f"{path}:{exc}; fix the rule file") from None
    except nmr.ProgramError as exc:
        raise ConfigError(f"{path}: {exc}; fix the rule file") from None
    return program


def cmd_revise(cfg: argparse.Namespace) -> int:
    program = _load_rules(cfg)
    data = _load_dataset(cfg)
    out_dir = Path(cfg.out)
    train_ids, test_ids = _read_manifest(out_dir, len(data))
    _check_inputs(cfg, out_dir, data)
    meta_flags = _meta_flags(cfg, data, test_ids)  # before any model loads
    models = {}
    for kind in KIND_ORDER:
        path = out_dir / MODEL_FILES[kind]
        if not path.is_file():
            raise ConfigError(f"model file not found: {path} (run 'train' first)")
        try:
            models[kind] = load_model(path, data, train_ids)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(
                f"{path}: not a usable model file ({detail}); re-run 'train'"
            ) from None
        if models[kind].kind is not kind:
            raise ConfigError(
                f"{path}: holds a {models[kind].kind.value} model, not {kind.value} "
                f"(re-run 'train')"
            )

    beliefs = generate_initial_beliefs(models, data, test_ids)
    fact_base = kb.encode(beliefs, meta_flags)
    try:  # before facts.lp, so a rule file that derives wrong final atoms writes nothing
        finals = revision.apply_revision(beliefs, fact_base, program)
    except ValueError as exc:
        if not cfg.rules:  # the bundled rules: a fault of the program, not of its input
            raise
        raise ConfigError(f"{cfg.rules}: {exc}; fix the rule file") from None
    n_bytes = kb.serialize(fact_base, out_dir / "facts.lp")

    with open(out_dir / "final_beliefs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "classifier", "initial", "final", "revised"])
        for belief, final in zip(beliefs, finals):  # already in (id, KIND_ORDER) order
            writer.writerow(
                [
                    belief.instance_id,
                    belief.classifier.value,
                    kb.CLASS_TO_SYMBOL[belief.predicted_class],
                    kb.CLASS_TO_SYMBOL[final.final_class],
                    int(final.revised),
                ]
            )

    report = revision.build_report(beliefs, finals, dict(enumerate(data.y.tolist())))
    kv = revision.report_to_kv(report)
    (out_dir / "report.kv").write_text(revision.format_kv(kv), encoding="utf-8")
    (out_dir / "report.txt").write_text(revision.render_report_text(kv), encoding="utf-8")
    _echo_config(cfg, out_dir / "revise_config.kv")

    print(f"wrote facts.lp ({n_bytes} bytes), final_beliefs.csv, report.kv, report.txt")
    print(
        f"revised {report.revised_total} of {report.decisions_total} decisions "
        f"({report.revised_fraction * 100:.2f}%)"
    )
    return 0


def cmd_report(cfg: argparse.Namespace) -> int:
    path = Path(cfg.out) / "report.kv"
    if not path.is_file():
        raise ConfigError(f"report not found: {path} (run 'revise' first)")
    try:
        text = revision.render_report_text(revision.parse_kv(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}: not a usable report ({detail}); re-run 'revise'") from None
    sys.stdout.write(text)
    return 0


_COMMANDS = {"train": cmd_train, "revise": cmd_revise, "report": cmd_report}


def _build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The one declaration of every setting: the commands that read it, its
    flag, type and default. ``config``, a ``--config`` file's values,
    replaces the defaults it names."""
    parser = argparse.ArgumentParser(
        prog="metaphish",
        description="Phishing classification with post-hoc rule-based belief revision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    train, revise, report = commands = [sub.add_parser(name, help=text) for name, text in (
        ("train", "fit the four classifiers on a deterministic split"),
        ("revise", "encode beliefs as facts, apply the revision rules, report"),
        ("report", "render the comparison tables from a stored report.kv"),
    )]
    for p in (train, revise):
        p.add_argument("--dataset", help="path to the dataset CSV")
        p.add_argument("--meta-column", help="meta column name, which must then be in the header "
                                             "(default: meta_present, if the header has it)")
    revise.add_argument("--snapshot-dir",
                        help="directory of <id>.html snapshots (overrides the meta column)")
    train.add_argument("--seed", type=int, default=42, help="global seed (default %(default)s)")
    train.add_argument("--test-fraction", type=float, default=0.2,
                       help="held-out fraction (default %(default)s)")
    train.add_argument("--folds", type=int, default=5,
                       help="cross-validation folds (default %(default)s)")
    revise.add_argument("--rules", help="rule file (default: bundled revision rules)")
    group = train.add_mutually_exclusive_group()
    for value, (flag, flag_help) in PARAMS.items():
        group.add_argument(flag, dest="params", action="store_const", const=value, help=flag_help)
    train.add_argument("--classifier", choices=CLASSIFIERS, default="all",
                       help="train only one classifier (default %(default)s)")
    train.set_defaults(params="best")
    for p in commands:  # last, so a file value replaces the default of every flag
        p.add_argument("--config", help="key=value file of this command's settings (flags win)")
        p.add_argument("--out", default="out", help="output directory (default %(default)s)")
        p.set_defaults(**(config or {}))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # a fresh parser, so no call shares another's file values
            args = _build_parser(_read_config(args)).parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: a usage error, or --help
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pipeline failure
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
