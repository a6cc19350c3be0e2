"""Symbolic fact encoding of classifier beliefs and meta evidence.

Class labels cross into the symbolic layer as named constants
(0 <-> benign, 1 <-> phishing); the 0/1 coding is confined to
:func:`encode` and :data:`SYMBOL_TO_CLASS`.  Serialization emits ground
facts one per line in solver-compatible syntax so the file can also be fed
to external ASP tooling for cross-validation.  A fact is a plain ground atom
(a named tuple).  :func:`encode` writes the facts of the belief columns
straight in ``facts.lp`` order; a :class:`FactBase` built from other facts
(:func:`load_facts`) checks its constants and sorts them.
"""

from __future__ import annotations

import logging
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from metaphish import nmr

logger = logging.getLogger(__name__)

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


# the position of the instance id in the pipeline's facts
_ID_POSITION = {(PRED, 3): 1, (META, 2): 0}

# the argument types of the pipeline's plain facts: pred(cl,id,class), meta(id,flag)
_PLAIN_TYPES = {PRED: (str, int, str), META: (int, str)}


def _fact_sort_key(fact: Fact):
    """(predicate, id, classifier) for pipeline facts; stable fallback otherwise."""
    pred, args = fact
    typed = tuple((0, a) if isinstance(a, int) else (1, str(a)) for a in args)
    if pred == PRED and len(args) == 3:
        return (pred, typed[1], str(args[0]), typed)
    if pred == META and len(args) == 2:
        return (pred, typed[0], "", typed)
    return (pred, (2,), "", typed)


def _plain_sort_key(fact: Fact):
    """_fact_sort_key's order for plain facts (of :data:`_PLAIN_TYPES`), built more cheaply."""
    pred, args = fact
    return (pred, args[1], args[0], args[2]) if pred == PRED else (pred, *args)


def _check_constant(a) -> None:
    if isinstance(a, bool) or not isinstance(a, (str, int)):
        raise ValueError(f"fact argument must be a symbol or integer, got {a!r}")
    if isinstance(a, int) and a < 0:
        raise ValueError(f"integer constants must be non-negative, got {a}")
    if isinstance(a, str) and not (a[:1].islower() and a.isidentifier()):
        raise ValueError(f"symbol constants must be lowercase identifiers, got {a!r}")


class FactBase:
    """An immutable set of facts with the pipeline's functional constraints.

    Every constant is a lowercase symbol or a non-negative integer, and every
    instance id an integer.  At most one ``pred`` fact per (classifier,
    instance) and one ``meta`` fact per instance; a ``pred`` instance without
    a matching ``meta`` fact is tolerated but logged at warning level.
    Iterating yields the facts in ``facts.lp`` order.
    """

    def __init__(self, facts: Iterable[Fact]):
        distinct = set(facts)
        plain = all(tuple(map(type, args)) == _PLAIN_TYPES.get(pred) for pred, args in distinct)
        ordered = sorted(distinct, key=_plain_sort_key if plain else _fact_sort_key)
        pred_keys = set()
        meta_ids = set()
        pred_ids = set()
        symbols = set()  # the symbol constants checked so far
        for fact in ordered:
            pred, args = fact
            pos = _ID_POSITION.get((pred, len(args)))
            if pos is not None and (type(args[pos]) is not int or args[pos] < 0):
                raise ValueError(f"instance id must be a non-negative integer in {fact}")
            for a in args:
                if type(a) is int and a >= 0 or type(a) is str and a in symbols:
                    continue
                _check_constant(a)
                if type(a) is str:
                    symbols.add(a)
            if pred == PRED and len(args) == 3:
                key = (args[0], args[1])
                if key in pred_keys:
                    raise ValueError(f"duplicate pred fact for classifier/instance {key}")
                pred_keys.add(key)
                pred_ids.add(args[1])
            elif pred == META and len(args) == 2:
                iid = args[0]
                if iid in meta_ids:
                    raise ValueError(f"duplicate meta fact for instance {iid}")
                meta_ids.add(iid)
        missing = pred_ids - meta_ids
        if missing:
            shown = sorted(missing)[:5]
            logger.warning(
                "fact base has %d pred instance(s) without a meta fact (e.g. %s)",
                len(missing),
                shown,
            )
        self._facts = tuple(ordered)

    def __len__(self):
        return len(self._facts)

    def __iter__(self):
        return iter(self._facts)

    def __eq__(self, other):
        return isinstance(other, FactBase) and self._facts == other._facts

    def __hash__(self):
        return hash(self._facts)


def encode(beliefs, meta_flags: Mapping[int, bool]) -> FactBase:
    """One ``meta(id,m)`` fact per instance of the :class:`~metaphish.classifiers.Beliefs`
    ``beliefs``, then one ``pred(cl,id,class)`` fact per decision, built from the
    columns in ``facts.lp`` order, so they need neither the checks nor the sort of
    :class:`FactBase`.  ``meta_flags`` must cover every instance id (extra ids are ignored).
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
    fact_base = object.__new__(FactBase)  # the facts keep its constraints, in its order
    fact_base._facts = tuple(map(Fact._make, chain(zip(repeat(META), meta), zip(repeat(PRED), preds))))
    return fact_base


def serialize(fact_base: FactBase, path: str | Path) -> int:
    """Write one fact per line as ``predicate(args).`` and return bytes written.

    No spaces, trailing period, ``\\n`` line ends, facts sorted by
    (predicate, id, classifier) for byte-stable output.
    """
    data = "".join(f"{nmr.format_ground_atom(atom)}.\n" for atom in fact_base).encode("ascii")
    Path(path).write_bytes(data)
    return len(data)


def load_facts(path: str | Path) -> FactBase:
    """Parse a serialized fact file back into a FactBase (round-trip of serialize)."""
    program = nmr.parse_program(Path(path).read_text(encoding="ascii"))
    facts = []
    for rule in program.rules:
        if not rule.is_fact or rule.head.variables:
            raise ValueError(f"{path}: not a ground fact: '{rule}'")
        facts.append(Fact(rule.head.predicate, rule.head.terms))
    try:
        return FactBase(facts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
