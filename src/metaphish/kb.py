"""Symbolic fact encoding of classifier beliefs and meta evidence.

Class labels cross into the symbolic layer as named constants
(0 <-> benign, 1 <-> phishing); the 0/1 coding is confined to
:func:`encode` and :data:`SYMBOL_TO_CLASS`.  Serialization emits ground
facts one per line in solver-compatible syntax so the file can also be fed
to external ASP tooling for cross-validation.  A fact base
(:class:`FactBase`) holds the argument columns of the ``meta`` and ``pred``
facts in ``facts.lp`` order, every ``meta`` fact by instance id, then every
``pred`` fact by (instance id, classifier), integer-coded as :mod:`nmr`
grounds them; iterating it makes each fact, a :class:`Fact`.
:func:`encode` builds it from the belief columns, :func:`serialize` writes
it, and :func:`load_facts` reads the facts back, accepting only the lines
:func:`serialize` writes, in that order.
"""

from __future__ import annotations

import re
from itertools import chain, repeat, starmap
from pathlib import Path
from sys import intern
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from metaphish import nmr
from metaphish.classifiers import KIND_ORDER

PRED = "pred"
META = "meta"

CLASS_TO_SYMBOL = {0: "benign", 1: "phishing"}
SYMBOL_TO_CLASS = {"benign": 0, "phishing": 1}
META_TO_SYMBOL = {False: "no", True: "yes"}


class Fact(NamedTuple):
    """A ground atom, ``(predicate, arguments)``, as :mod:`nmr` grounds it."""

    predicate: str
    arguments: tuple

    def __str__(self):
        return nmr.format_ground_atom(self)


class FactBase(nmr.Relations):
    """Facts as :mod:`nmr` grounds them: each predicate's argument columns,
    integer-coded, in ``facts.lp`` order.  Iterating makes the :class:`Fact`
    of each row."""

    def __iter__(self):
        return starmap(Fact, super().__iter__())

    def __eq__(self, other):  # equal to a sequence of the same facts, in the same order
        if isinstance(other, (nmr.Relations, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented


def encode(beliefs, meta_flags: Mapping[int, bool]) -> FactBase:
    """One ``meta(id,m)`` fact per instance of the :class:`~metaphish.classifiers.Beliefs`
    ``beliefs``, then one ``pred(cl,id,class)`` fact per decision, built from the
    columns in ``facts.lp`` order.  ``meta_flags`` must cover every instance id
    (extra ids are ignored).
    """
    ids = beliefs.ids.tolist()
    absent = next((iid for iid in ids if iid not in meta_flags), None)
    if absent is not None:
        raise ValueError(f"belief references instance {absent} absent from meta flags")
    facts = FactBase()
    id_codes = facts.encode(beliefs.ids)
    flags = np.fromiter(map(meta_flags.__getitem__, ids), bool, len(ids))
    no, yes = (facts.code(META_TO_SYMBOL[flag]) for flag in (False, True))
    facts.tables[META] = np.column_stack([id_codes, np.where(flags, yes, no)])
    # pred facts by (id, classifier symbol): the verdict columns, interleaved
    kinds = sorted(beliefs.classes, key=lambda kind: kind.value)
    verdicts = np.column_stack([beliefs.classes[kind] for kind in kinds]).reshape(-1)
    benign, phishing = (facts.code(CLASS_TO_SYMBOL[cls]) for cls in (0, 1))
    facts.tables[PRED] = np.column_stack([
        np.tile([facts.code(kind.value) for kind in kinds], len(ids)),
        np.repeat(id_codes, len(kinds)), np.where(verdicts == 1, phishing, benign)])
    return facts


def serialize(facts: Iterable[Fact], path: str | Path) -> int:
    """Write one fact per line as ``predicate(args).`` and return bytes written.

    No spaces, trailing period, ``\\n`` line ends, each predicate's facts in
    the order of ``facts`` (for :func:`encode`'s facts, the byte-stable
    ``facts.lp`` order); a plain iterable of facts is grouped by predicate.
    A line is made of templates: the text of an argument column that holds
    more than symbols, and between two such columns the text of the symbol
    columns with their punctuation, like ``pred(svm,`` and ``,benign).``;
    each template is formatted once per distinct row of its columns.
    """
    if not isinstance(facts, nmr.Relations):
        facts = FactBase.of(facts)
    chunks = []
    for pred, table in facts.tables.items():
        n, arity = table.shape
        parts, run = [], []  # the per-row texts; the columns of the template being built
        text = pred + ("(" if arity else ".\n")
        for k, col in enumerate(table.T, start=1):
            if n and col.max() < 0:  # symbols only: into the template
                run.append(col)
                text += "{}"
            else:  # other constants: a template of their own
                parts += [_filled(facts, text, run, n), _filled(facts, "{}", [col], n)]
                run, text = [], ""
            text += ").\n" if k == arity else ","
        parts.append(_filled(facts, text, run, n))
        chunks.append("".join(chain.from_iterable(zip(*parts))))
    data = "".join(chunks).encode("ascii")
    Path(path).write_bytes(data)
    return len(data)


def _filled(facts: FactBase, text: str, run: list[np.ndarray], n: int):
    """The ``n`` texts of ``text`` with each row's constants of the columns
    ``run`` in its ``{}`` places, formatted once per distinct row."""
    if not run:
        return repeat(text, n)
    columns = np.column_stack(run)
    _, first, inverse = np.unique(nmr.row_keys(columns, columns[:0])[0],
                                  return_index=True, return_inverse=True)
    if text == "{}":  # one column alone
        texts = list(map(str, facts.constants(columns[first, 0])))
    else:
        texts = [text.format(*row) for row in facts.decode(columns[first])]
    return np.array(texts, dtype=object)[inverse].tolist()


# the two line shapes serialize writes: meta(<id>,yes|no). and
# pred(<classifier>,<id>,benign|phishing)., an id without sign or leading zero
_ID = "(0|[1-9][0-9]*)"
_LINE = re.compile(rf"{META}\({_ID},({'|'.join(META_TO_SYMBOL.values())})\)\."
                   rf"|{PRED}\(({'|'.join(kind.value for kind in KIND_ORDER)}),{_ID},"
                   rf"({'|'.join(SYMBOL_TO_CLASS)})\)\.")


def load_facts(path: str | Path) -> tuple[Fact, ...]:
    """The facts of a ``facts.lp`` file, as :func:`encode` built them.

    Every line is ``meta(<id>,yes|no).`` or ``pred(<classifier>,<id>,benign|phishing).``
    and ends in ``\\n``; the lines come in strictly increasing ``facts.lp``
    order, so none repeats a fact's key, and every ``pred`` id has its
    ``meta`` fact.  Any other line raises ValueError naming the file and line.
    """
    *lines, rest = Path(path).read_bytes().decode("ascii", errors="replace").split("\n")
    facts = []
    meta_ids = set()
    last = (META, -1, "")  # the (predicate, id, classifier) of the line before
    for number, line in enumerate(lines, start=1):
        match = _LINE.fullmatch(line)
        if match is not None:  # interned, the constants share one str each, as encode's do
            meta_id, flag, symbol, pred_id, cls = match.groups()
            if meta_id is not None:
                iid = int(meta_id)
                key, fact = (META, iid, ""), Fact._make((META, (iid, intern(flag))))
                meta_ids.add(iid)
            else:
                iid, symbol = int(pred_id), intern(symbol)
                key, fact = (PRED, iid, symbol), Fact._make((PRED, (symbol, iid, intern(cls))))
            if key > last and iid in meta_ids:
                facts.append(fact)
                last = key
                continue
        if match is None:
            problem = (f"not a meta(<id>,yes|no). or pred(<classifier>,<id>,benign|phishing). "
                       f"fact: {line!r}")
        elif key == last:
            problem = f"{line} has the key of line {number - 1}"
        elif key < last:
            problem = f"{line} is out of facts.lp order, after line {number - 1}"
        else:
            problem = f"{line} has no meta fact for instance {iid}"
        raise ValueError(f"{path}, line {number}: {problem}")
    if rest:
        raise ValueError(f"{path}, line {len(lines) + 1}: {rest!r} has no line end")
    return tuple(facts)
