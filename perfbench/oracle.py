"""Output checks that do not reuse the program's own code paths.

:func:`check_outputs` re-derives every expected artifact of a ``revise`` run
from the generated labels and meta flags and from the initial verdicts the
run itself recorded: a phishing verdict on a page with meta evidence becomes
benign, every other verdict is unchanged, each (classifier, test id) has
exactly one final verdict, and every test id of the split manifest is
present.  ``facts.lp`` and ``report.kv`` are rebuilt independently and
compared byte for byte.  It returns a list of problems, empty when the run
is correct.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

CLASSIFIERS = ("svm", "knn", "dt", "rf")
DIGESTED = ("final_beliefs.csv", "facts.lp", "report.kv", "cv_summary.kv")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_facts(rows: list[dict[str, str]], meta) -> str:
    """facts.lp as the fact encoding must write it: meta facts by id, then
    pred facts by (id, classifier name)."""
    ids = sorted({int(r["id"]) for r in rows})
    lines = [f"meta({i},{'yes' if meta[i] else 'no'}).\n" for i in ids]
    preds = sorted((int(r["id"]), r["classifier"], r["initial"]) for r in rows)
    lines += [f"pred({cl},{i},{c}).\n" for i, cl, c in preds]
    return "".join(lines)


def expected_report(rows: list[dict[str, str]], labels) -> str:
    """report.kv recomputed from the final verdicts and the true labels."""
    kv: dict[str, str] = {}
    revised_total = 0
    for cl in CLASSIFIERS:
        cells = {f"{c}_{stage}": 0 for stage in ("before", "after")
                 for c in ("tp", "fp", "tn", "fn")}
        revised = 0
        for r in rows:
            if r["classifier"] != cl:
                continue
            truth = int(labels[int(r["id"])])
            for stage, verdict in (("before", r["initial"]), ("after", r["final"])):
                said = verdict == "phishing"
                cell = ("tp" if said else "fn") if truth else ("fp" if said else "tn")
                cells[f"{cell}_{stage}"] += 1
            revised += r["revised"] == "1"
        for key, value in cells.items():
            kv[f"{cl}.{key}"] = str(value)
        kv[f"{cl}.revised"] = str(revised)
        revised_total += revised
    kv["total.revised"] = str(revised_total)
    kv["total.decisions"] = str(len(rows))
    kv["total.fraction"] = f"{revised_total / len(rows):.6f}"
    return "".join(f"{k}={kv[k]}\n" for k in sorted(kv))


def check_outputs(out_dir: Path, labels, meta) -> list[str]:
    """Problems found in one train + revise output directory."""
    problems = []
    manifest = _read_csv(out_dir / "split_manifest.csv")
    test_ids = {int(r["id"]) for r in manifest if r["role"] == "test"}
    rows = _read_csv(out_dir / "final_beliefs.csv")

    seen: dict[tuple[str, int], int] = {}
    for r in rows:
        key = (r["classifier"], int(r["id"]))
        seen[key] = seen.get(key, 0) + 1
        want = "benign" if r["initial"] == "phishing" and meta[key[1]] else r["initial"]
        if r["final"] != want:
            problems.append(f"{key}: final {r['final']}, expected {want}")
        if r["revised"] != str(int(r["final"] != r["initial"])):
            problems.append(f"{key}: revised flag {r['revised']} disagrees with the verdicts")
    wanted = {(cl, i) for cl in CLASSIFIERS for i in test_ids}
    if set(seen) != wanted:
        problems.append(f"{len(wanted - set(seen))} missing and "
                        f"{len(set(seen) - wanted)} unexpected (classifier, id) rows")
    duplicated = [k for k, n in seen.items() if n > 1]
    if duplicated:
        problems.append(f"{len(duplicated)} (classifier, id) pairs with several final verdicts")

    if problems:
        return problems
    if (out_dir / "facts.lp").read_text(encoding="ascii") != expected_facts(rows, meta):
        problems.append("facts.lp differs from the encoding of the initial verdicts")
    if (out_dir / "report.kv").read_text(encoding="utf-8") != expected_report(rows, labels):
        problems.append("report.kv differs from the counts of the final verdicts")
    return problems


def check_cv_summary(out_dir: Path, source: str) -> list[str]:
    kv = dict(line.split("=", 1) for line in
              (out_dir / "cv_summary.kv").read_text(encoding="utf-8").splitlines())
    problems = [f"{cl}.source is {kv.get(f'{cl}.source')!r}, expected {source!r}"
                for cl in CLASSIFIERS if kv.get(f"{cl}.source") != source]
    if source == "grid-search":
        for cl in CLASSIFIERS:
            acc = float(kv.get(f"{cl}.cv_accuracy", "nan"))
            if not 0.0 <= acc <= 1.0:
                problems.append(f"{cl}.cv_accuracy {acc} outside [0, 1]")
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DIGESTED if (out_dir / name).is_file()}
