"""Symbolic fact encoding of classifier beliefs and meta evidence.

Class labels cross into the symbolic layer as named constants
(0 <-> benign, 1 <-> phishing); the 0/1 coding is confined to
:func:`encode` and :data:`SYMBOL_TO_CLASS`.  Serialization emits ground
facts one per line in solver-compatible syntax so the file can also be fed
to external ASP tooling for cross-validation.  A fact is a plain ground atom
(a named tuple); :class:`FactBase` checks its constants when it is built.
"""

from __future__ import annotations

import logging
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from metaphish import nmr

logger = logging.getLogger(__name__)

PRED = "pred"
META = "meta"

CLASS_TO_SYMBOL = {0: "benign", 1: "phishing"}
SYMBOL_TO_CLASS = {"benign": 0, "phishing": 1}
META_TO_SYMBOL = {False: "no", True: "yes"}
CLASSIFIER_SYMBOLS = ("svm", "knn", "dt", "rf")


def classifier_symbol(classifier) -> str:
    """Lowercase constant for a classifier kind (enum member or plain string)."""
    name = classifier.value if isinstance(classifier, Enum) else str(classifier)
    if name not in CLASSIFIER_SYMBOLS:
        raise ValueError(f"unknown classifier symbol {name!r}")
    return name


class Fact(NamedTuple):
    """A ground atom, ``(predicate, arguments)``, as :mod:`nmr` grounds it."""

    predicate: str
    arguments: tuple

    def __str__(self):
        return nmr.format_ground_atom(self)


# the position of the instance id in the pipeline's facts
_ID_POSITION = {(PRED, 3): 1, (META, 2): 0}

# the argument types of a pipeline predicate's plain facts, and a key that
# sorts them in _fact_sort_key's order: (id, classifier, class), (id, flag)
_PLAIN_ORDER = {
    PRED: ((str, int, str), lambda fact: (fact[1][1], fact[1][0], fact[1][2])),
    META: ((int, str), itemgetter(1)),
}


def _fact_sort_key(fact: Fact):
    """(predicate, id, classifier) for pipeline facts; stable fallback otherwise."""
    pred, args = fact
    typed = tuple((0, a) if isinstance(a, int) else (1, str(a)) for a in args)
    if pred == PRED and len(args) == 3:
        return (pred, typed[1], str(args[0]), typed)
    if pred == META and len(args) == 2:
        return (pred, typed[0], "", typed)
    return (pred, (2,), "", typed)


def _sorted_facts(facts: Iterable[Fact]) -> list[Fact]:
    """The distinct facts in _fact_sort_key's order.

    That key compares the predicate first, so each predicate's facts are
    sorted apart, and those of a pipeline predicate that are all plain by
    the cheaper key of :data:`_PLAIN_ORDER`.
    """
    groups: dict[str, list[Fact]] = {}
    for fact in set(facts):
        groups.setdefault(fact[0], []).append(fact)
    ordered = []
    for pred in sorted(groups):
        group = groups[pred]
        plain = _PLAIN_ORDER.get(pred)
        group.sort(key=plain[1] if plain and _typed_as(group, plain[0]) else _fact_sort_key)
        ordered += group
    return ordered


def _typed_as(facts: list[Fact], types: tuple[type, ...]) -> bool:
    """Whether the arguments of every fact have exactly ``types``, checked
    one argument position at a time."""
    args = [fact[1] for fact in facts]
    return set(map(len, args)) == {len(types)} and all(
        set(map(type, map(itemgetter(p), args))) == {t} for p, t in enumerate(types)
    )


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
        ordered = _sorted_facts(facts)
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
    """One ``pred(cl,id,class)`` fact per belief plus one ``meta(id,m)`` per instance.

    Runs in a single pass over the beliefs; ``meta_flags`` must cover every
    belief's instance id (extra ids are ignored).
    """
    facts = []
    instance_ids = set()
    symbols = {}  # classifier -> its symbol, looked up once per kind
    for belief in beliefs:
        iid = belief.instance_id
        if iid not in meta_flags:
            raise ValueError(f"belief references instance {iid} absent from meta flags")
        cl = belief.classifier
        if cl not in symbols:
            symbols[cl] = classifier_symbol(cl)
        facts.append(Fact(PRED, (symbols[cl], iid, CLASS_TO_SYMBOL[belief.predicted_class])))
        if iid not in instance_ids:
            instance_ids.add(iid)
            facts.append(Fact(META, (iid, META_TO_SYMBOL[bool(meta_flags[iid])])))
    return FactBase(facts)


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
