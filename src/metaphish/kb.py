"""Symbolic fact encoding of classifier beliefs and meta evidence.

Class labels cross into the symbolic layer as named constants
(0 <-> benign, 1 <-> phishing); the 0/1 coding is confined to
:func:`encode` and :data:`SYMBOL_TO_CLASS`.  Serialization emits ground
facts one per line in solver-compatible syntax so the file can also be fed
to external ASP tooling for cross-validation.  A fact is a plain ground atom
(a named tuple), and a fact base is the tuple of facts in ``facts.lp``
order: every ``meta`` fact by instance id, then every ``pred`` fact by
(instance id, classifier).  :func:`encode` builds it from the belief
columns, :func:`serialize` writes it, and :func:`load_facts` reads it back,
accepting only the lines :func:`serialize` writes, in that order.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from pathlib import Path
from sys import intern
from typing import Mapping, NamedTuple

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


def encode(beliefs, meta_flags: Mapping[int, bool]) -> tuple[Fact, ...]:
    """One ``meta(id,m)`` fact per instance of the :class:`~metaphish.classifiers.Beliefs`
    ``beliefs``, then one ``pred(cl,id,class)`` fact per decision, built from the
    columns in ``facts.lp`` order.  ``meta_flags`` must cover every instance id
    (extra ids are ignored).
    """
    ids = beliefs.ids.tolist()
    absent = next((iid for iid in ids if iid not in meta_flags), None)
    if absent is not None:
        raise ValueError(f"belief references instance {absent} absent from meta flags")
    meta = list(zip(ids, [META_TO_SYMBOL[bool(meta_flags[iid])] for iid in ids]))
    columns = sorted((kind.value, column.tolist()) for kind, column in beliefs.classes.items())
    # pred facts by (id, classifier symbol): the columns' arguments, interleaved
    preds = list(chain.from_iterable(zip(*(
        zip(repeat(symbol), ids, map(CLASS_TO_SYMBOL.__getitem__, column))
        for symbol, column in columns))))
    return tuple(map(Fact._make, chain(zip(repeat(META), meta), zip(repeat(PRED), preds))))


def serialize(facts: tuple[Fact, ...], path: str | Path) -> int:
    """Write one fact per line as ``predicate(args).`` and return bytes written.

    No spaces, trailing period, ``\\n`` line ends, in the order of ``facts``
    (for :func:`encode`'s facts, the byte-stable ``facts.lp`` order).
    """
    data = "".join(f"{nmr.format_ground_atom(atom)}.\n" for atom in facts).encode("ascii")
    Path(path).write_bytes(data)
    return len(data)


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
