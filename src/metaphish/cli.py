"""Command-line pipeline: train models, revise beliefs, render reports.

Configuration comes from a flat key=value file (``--config``) overridden by
command-line flags; the effective configuration is echoed verbatim into the
output directory so every run is reproducible from its artifacts.

Exit codes: 0 success, 1 pipeline failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from metaphish import kb, revision
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
)

MODEL_FILES = {kind: f"model_{kind.value}.json" for kind in KIND_ORDER}
MANIFEST_FILE = "split_manifest.csv"


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    dataset: str | None = None
    meta_column: str = "meta_present"
    snapshot_dir: str | None = None
    seed: int = 42
    test_fraction: float = 0.2
    folds: int = 5
    params: str = "best"  # best | grid
    rules: str | None = None  # None -> bundled revision rules
    out: str = "out"
    classifier: str = "all"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_FIELDS = {"seed", "folds"}
_FLOAT_FIELDS = {"test_fraction"}


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_kv = revision.parse_kv(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for key, raw in file_kv.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            values[key] = raw
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value

    cfg = RunConfig()
    for key, raw in values.items():
        if key in _INT_FIELDS:
            try:
                raw = int(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r} must be an integer, got {raw!r}") from None
        elif key in _FLOAT_FIELDS:
            try:
                raw = float(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r} must be a number, got {raw!r}") from None
        setattr(cfg, key, raw)
    if cfg.params not in ("best", "grid"):
        raise ConfigError(f"params must be 'best' or 'grid', got {cfg.params!r}")
    if cfg.classifier not in ("all", *(k.value for k in KIND_ORDER)):
        raise ConfigError(f"classifier must be one of all/svm/knn/dt/rf, got {cfg.classifier!r}")
    return cfg


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    kv = {f.name: "" if getattr(cfg, f.name) is None else str(getattr(cfg, f.name))
          for f in fields(RunConfig)}
    (out_dir / "run_config.kv").write_text(revision.format_kv(kv), encoding="utf-8")


def _selected_kinds(cfg: RunConfig) -> tuple[ClassifierKind, ...]:
    if cfg.classifier == "all":
        return KIND_ORDER
    return (ClassifierKind(cfg.classifier),)


def _load_dataset(cfg: RunConfig):
    if not cfg.dataset:
        raise ConfigError("no dataset path given (use --dataset or the config file)")
    path = Path(cfg.dataset)
    if not path.is_file():
        raise ConfigError(f"dataset not found: {path}")
    return load_dataset(path, CsvSchema(meta_column=cfg.meta_column))


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


def _read_manifest(out_dir: Path, n_rows: int) -> set[int]:
    """The test ids of the split manifest, checked against a dataset of ``n_rows`` rows."""
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
            if role not in ids_by_role:
                problem = f"unknown role {role!r} (expected 'train' or 'test')"
            elif rid is None:
                problem = f"id {row.get('id')!r} is not an integer"
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
    return ids_by_role["test"]


def cmd_train(cfg: RunConfig) -> int:
    data = _load_dataset(cfg)
    split = make_split(data, cfg.test_fraction, cfg.folds, cfg.seed)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(split, out_dir)

    summary: dict[str, str] = {}
    for kind in _selected_kinds(cfg):
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
    _echo_config(cfg, out_dir)
    print(f"artifacts written to {out_dir}")
    return 0


def _meta_flags_for(cfg: RunConfig, data, test_ids) -> dict[int, bool]:
    if cfg.snapshot_dir:
        return load_meta_from_snapshots(cfg.snapshot_dir, sorted(test_ids))
    if data.meta is None:
        raise ConfigError(
            f"no meta information: dataset has no {cfg.meta_column!r} column; "
            f"pass --meta-column or --snapshot-dir"
        )
    rows = data.rows(test_ids)
    return dict(zip(rows.tolist(), data.meta[rows].tolist()))


def cmd_revise(cfg: RunConfig) -> int:
    data = _load_dataset(cfg)
    out_dir = Path(cfg.out)
    test_ids = _read_manifest(out_dir, len(data))
    models = {}
    for kind in KIND_ORDER:
        path = out_dir / MODEL_FILES[kind]
        if not path.is_file():
            raise ConfigError(f"model file not found: {path} (run 'train' first)")
        models[kind] = load_model(path)
        if models[kind].kind is not kind:
            raise ConfigError(
                f"{path}: holds a {models[kind].kind.value} model, not {kind.value} "
                f"(re-run 'train')"
            )

    beliefs = generate_initial_beliefs(models, data, test_ids)
    meta_flags = _meta_flags_for(cfg, data, test_ids)

    fact_base = kb.encode(beliefs, meta_flags)
    n_bytes = kb.serialize(fact_base, out_dir / "facts.lp")

    program = revision.load_rules(cfg.rules) if cfg.rules else revision.revision_program()
    finals = revision.apply_revision(beliefs, meta_flags, program)

    kind_index = {kind: i for i, kind in enumerate(KIND_ORDER)}
    rows = sorted(
        zip(beliefs, finals),
        key=lambda pair: (pair[0].instance_id, kind_index[pair[0].classifier]),
    )
    with open(out_dir / "final_beliefs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "classifier", "initial", "final", "revised"])
        for belief, final in rows:
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
    _echo_config(cfg, out_dir)

    print(f"wrote facts.lp ({n_bytes} bytes), final_beliefs.csv, report.kv, report.txt")
    print(
        f"revised {report.revised_total} of {report.decisions_total} decisions "
        f"({report.revised_fraction * 100:.2f}%)"
    )
    return 0


def cmd_report(cfg: RunConfig) -> int:
    path = Path(cfg.out) / "report.kv"
    if not path.is_file():
        raise ConfigError(f"report not found: {path} (run 'revise' first)")
    kv = revision.parse_kv(path.read_text(encoding="utf-8"))
    sys.stdout.write(revision.render_report_text(kv))
    return 0


_COMMANDS = {"train": cmd_train, "revise": cmd_revise, "report": cmd_report}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaphish",
        description="Phishing classification with post-hoc rule-based belief revision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "fit the four classifiers on a deterministic split"),
        ("revise", "encode beliefs as facts, apply the revision rules, report"),
        ("report", "render the comparison tables from a stored report.kv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file (flags win)")
        p.add_argument("--dataset", help="path to the dataset CSV")
        p.add_argument("--meta-column", dest="meta_column", help="meta column name")
        p.add_argument("--snapshot-dir", dest="snapshot_dir",
                       help="directory of <id>.html snapshots (overrides the meta column)")
        p.add_argument("--seed", type=int, help="global seed (default 42)")
        p.add_argument("--test-fraction", dest="test_fraction", type=float,
                       help="held-out fraction (default 0.2)")
        p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
        p.add_argument("--rules", help="rule file (default: bundled revision rules)")
        p.add_argument("--out", help="output directory (default ./out)")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--best-config", dest="params", action="store_const",
                           const="best", help="use the stored winning configurations")
        group.add_argument("--grid-search", dest="params", action="store_const",
                           const="grid", help="run full cross-validated grid search")
        p.add_argument("--classifier", choices=["all", *(k.value for k in KIND_ORDER)],
                       help="train only one classifier (train command)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _config_from_sources(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pipeline failure
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
