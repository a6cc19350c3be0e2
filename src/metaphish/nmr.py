"""A miniature engine for stratified normal logic programs.

Covers exactly the fragment the belief-revision layer needs: normal rules
with default negation, no function symbols, no disjunction, no aggregates.
A program is parsed, checked for rule safety and stratification, and
grounded against facts taken as given.  A cycle through ``not`` is rejected, naming
the first one in sorted order; otherwise the strata are the least predicate
levels, found by relaxation.  Grounding runs stratum by stratum, each
semi-naively, through join plans compiled once per rule over hash indexes
on (predicate, bound argument positions); the set of atoms it derives is
the unique stable model, ``GroundProgram.model``, with its counters.
The ground rules themselves are enumerated only when
``GroundProgram.rules`` is read, by running the same evaluation again and
recording each fact and firing.  :func:`solve` re-evaluates a ground
program and :func:`check_stability` implements the reduct-based
stable-model definition; both read those rules and serve as independent
oracles for the model.

Ground atoms are plain ``(predicate, args)`` tuples where each argument is a
lowercase symbol (str) or a non-negative integer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections import defaultdict
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Union

GroundAtom = tuple  # (predicate: str, args: tuple[str | int, ...])


class ProgramError(Exception):
    """Base class for rule-program errors."""


class ParseError(ProgramError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SafetyError(ProgramError):
    """A variable in the head or a negative literal has no positive binding."""


class StratificationError(ProgramError):
    """The program has a dependency cycle through default negation."""

    def __init__(self, cycle: tuple[str, ...]):
        pretty = " -> ".join(cycle)
        super().__init__(f"program is not stratified: negative cycle {pretty}")
        self.cycle = cycle


class ArityError(ProgramError):
    """A predicate is used with two different arities."""


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


Term = Union[str, int, Variable]


@dataclass(frozen=True)
class Atom:
    predicate: str
    terms: tuple[Term, ...] = ()

    def __str__(self):
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.terms)})"

    @property
    def variables(self) -> set[str]:
        return {t.name for t in self.terms if isinstance(t, Variable)}


@dataclass(frozen=True)
class Rule:
    head: Atom
    body_pos: tuple[Atom, ...] = ()
    body_neg: tuple[Atom, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body_pos and not self.body_neg

    def __str__(self):
        if self.is_fact:
            return f"{self.head}."
        body = [str(a) for a in self.body_pos] + [f"not {a}" for a in self.body_neg]
        return f"{self.head} :- {', '.join(body)}."


@dataclass(frozen=True)
class Program:
    """Parsed rules plus their predicate-level dependency structure.

    ``dependency_graph`` maps each head predicate to the set of
    ``(body_predicate, negated)`` pairs it depends on; ``strata`` assigns
    every predicate its evaluation layer (0 = lowest).
    """

    rules: tuple[Rule, ...]
    dependency_graph: dict[str, frozenset[tuple[str, bool]]]
    strata: dict[str, int]


class GroundRule(NamedTuple):
    head: GroundAtom
    pos: tuple[GroundAtom, ...]
    neg: tuple[GroundAtom, ...]


@dataclass(frozen=True)
class EvalStats:
    """Rule-firing counters; one firing = one successful body instantiation."""

    firings: int = 0
    atoms: int = 0


@dataclass(frozen=True)
class AnswerSet:
    """The unique stable model of a stratified ground program."""

    atoms: set[GroundAtom]  # the evaluator's own set: read it, do not change it
    stats: EvalStats = field(compare=False, default=EvalStats())

    def holds(self, predicate: str, *args) -> bool:
        return (predicate, tuple(args)) in self.atoms

    def with_predicate(self, predicate: str) -> list[GroundAtom]:
        return sorted(
            (a for a in self.atoms if a[0] == predicate), key=_atom_sort_key
        )


@dataclass(frozen=True, eq=False)
class GroundProgram:
    """What :func:`ground` found: the stable model and its counters.

    ``rules`` (one :class:`GroundRule` per distinct fact, in input order, then
    one per firing, in firing order) is enumerated on first read, by
    evaluating ``source`` (the program and its fact atoms) again, and kept.
    """

    stats: EvalStats
    model: AnswerSet
    source: tuple[Program, tuple[GroundAtom, ...]] = field(repr=False)

    @cached_property
    def rules(self) -> tuple[GroundRule, ...]:
        rules: dict[GroundRule, None] = {}
        _evaluate(*self.source, rules)
        return tuple(rules)


def _atom_sort_key(atom: GroundAtom):
    # mixed str/int argument tuples are not directly comparable
    return (atom[0], tuple((0, a) if isinstance(a, int) else (1, str(a)) for a in atom[1]))


def format_ground_atom(atom: GroundAtom) -> str:
    pred, args = atom
    if not args:
        return pred
    return f"{pred}({','.join(str(a) for a in args)})"


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<implies>:-)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<int>\d+)
      | (?P<lident>[a-z][A-Za-z0-9_]*)
      | (?P<uident>[A-Z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", tok.line, tok.column)
        self.i += 1
        return tok

    def parse_rules(self) -> list[Rule]:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        pos: list[Atom] = []
        neg: list[Atom] = []
        if self.peek().kind == "implies":
            self.i += 1
            while True:
                negated = False
                tok = self.peek()
                if tok.kind == "lident" and tok.text == "not":
                    self.i += 1
                    negated = True
                atom = self.parse_atom()
                (neg if negated else pos).append(atom)
                if self.peek().kind == "comma":
                    self.i += 1
                    continue
                break
        self.take("dot", "'.'")
        return Rule(head, tuple(pos), tuple(neg))

    def parse_atom(self) -> Atom:
        tok = self.take("lident", "a predicate name")
        if tok.text == "not":
            raise ParseError("'not' is reserved and cannot name a predicate", tok.line, tok.column)
        terms: list[Term] = []
        if self.peek().kind == "lparen":
            self.i += 1
            while True:
                terms.append(self.parse_term())
                if self.peek().kind == "comma":
                    self.i += 1
                    continue
                break
            self.take("rparen", "')'")
        return Atom(tok.text, tuple(terms))

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.i += 1
            return int(tok.text)
        if tok.kind == "lident":
            self.i += 1
            return tok.text
        if tok.kind == "uident":
            self.i += 1
            return Variable(tok.text)
        shown = tok.text or "end of input"
        raise ParseError(f"expected a term, found {shown!r}", tok.line, tok.column)


def _check_safety(rules: list[Rule]) -> None:
    for rule in rules:
        bound = set()
        for atom in rule.body_pos:
            bound |= atom.variables
        for where, atoms in (("head", (rule.head,)), ("negative body", rule.body_neg)):
            for atom in atoms:
                unsafe = atom.variables - bound
                if unsafe:
                    name = sorted(unsafe)[0]
                    raise SafetyError(
                        f"unsafe variable {name} in {where} of rule '{rule}': "
                        "every variable must occur in a positive body atom"
                    )


def _dependency_graph(rules: Iterable[Rule]) -> dict[str, set[tuple[str, bool]]]:
    graph: dict[str, set[tuple[str, bool]]] = {}
    for rule in rules:
        deps = graph.setdefault(rule.head.predicate, set())
        for atom in rule.body_pos:
            deps.add((atom.predicate, False))
            graph.setdefault(atom.predicate, set())
        for atom in rule.body_neg:
            deps.add((atom.predicate, True))
            graph.setdefault(atom.predicate, set())
    return graph


def _path(graph: dict[str, set[tuple[str, bool]]], src: str, dst: str) -> list[str] | None:
    """A shortest dependency path src -> ... -> dst, visiting successors in sorted order."""
    parents = {src: None}
    queue = [src]
    for node in queue:  # the queue grows while it is read: breadth first
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parents[path[-1]])
            return path[::-1]
        for succ, _ in sorted(graph[node]):
            if succ not in parents:
                parents[succ] = node
                queue.append(succ)
    return None


def _stratify(graph: dict[str, set[tuple[str, bool]]]) -> dict[str, int]:
    """The least levels with ``level[p] >= level[d] + negated`` on every edge.

    A negated edge on a cycle has no such levels: the first one, with edges
    taken in sorted order, is reported as ``p -> not d -> ... -> p``.  Without
    one, relaxing the levels from 0 stops (Apt, Blair & Walker 1988), and a
    cycle of positive edges keeps its members on one level.
    """
    for pred in sorted(graph):
        for dep, negated in sorted(graph[pred]):
            if negated:
                path = _path(graph, dep, pred)
                if path is not None:
                    raise StratificationError((pred, f"not {dep}", *path[1:-1], pred))
    level = dict.fromkeys(graph, 0)
    changed = True
    while changed:
        changed = False
        for pred, deps in graph.items():
            for dep, negated in deps:
                if level[dep] + negated > level[pred]:
                    level[pred] = level[dep] + negated
                    changed = True
    return level


def parse_program(text: str) -> Program:
    """Parse rule text into a safe, stratified Program.

    Grammar: ``rule := atom [":-" literal ("," literal)*] "."`` with
    ``literal := ["not"] atom``; ``%`` starts a line comment.  Raises
    :class:`ParseError` with line/column, :class:`SafetyError` naming the
    unsafe variable, or :class:`StratificationError` naming the cycle.
    """
    rules = _Parser(text).parse_rules()
    _check_safety(rules)
    graph = _dependency_graph(rules)
    strata = _stratify(graph)
    frozen = {pred: frozenset(deps) for pred, deps in graph.items()}
    return Program(tuple(rules), frozen, strata)


# ---------------------------------------------------------------------------
# Grounding

class _Relations:
    """The atoms derived so far: a set, a list per predicate in insertion
    order, and a hash index per (predicate, key positions) pattern, built on
    first use and kept up to date as atoms are added."""

    def __init__(self):
        self.atoms: set[GroundAtom] = set()
        self.lists: defaultdict[str, list[GroundAtom]] = defaultdict(list)
        self._indexes: dict[tuple, defaultdict] = {}
        self._by_pred: dict[str, list[tuple[Callable, defaultdict]]] = {}

    def extend(self, atoms: Iterable[GroundAtom]) -> None:
        """Add ``atoms``, none of which is here yet."""
        for atom in atoms:
            self.atoms.add(atom)
            self.lists[atom[0]].append(atom)
            for key, index in self._by_pred.get(atom[0], ()):
                index[key(atom[1])].append(atom)

    def index(self, pred: str, positions: tuple[int, ...]) -> defaultdict:
        """The atoms of ``pred`` keyed by their argument at ``positions``
        (a value for one position, a tuple for several)."""
        index = self._indexes.get((pred, positions))
        if index is None:
            key = itemgetter(*positions)
            index = self._indexes[pred, positions] = _bucket(self.lists.get(pred, ()), key)
            self._by_pred.setdefault(pred, []).append((key, index))
        return index


def _bucket(atoms: Iterable[GroundAtom], key: Callable) -> defaultdict:
    index = defaultdict(list)
    for atom in atoms:
        index[key(atom[1])].append(atom)
    return index


def _getter(slots: list[int]) -> Callable:
    """A function of a sequence that returns the tuple of its items at ``slots``."""
    if len(slots) == 1:
        return lambda seq, s=slots[0]: (seq[s],)
    return itemgetter(*slots) if slots else lambda seq: ()


_FULL, _DELTA, _OLD = range(3)  # which atoms of its predicate a join step reads


class _Step(NamedTuple):
    """One positive body atom of a join plan; see :func:`_compile`."""

    predicate: str
    source: int
    key_positions: tuple[int, ...]  # argument positions a constant or a bound variable fixes
    key: Callable | None  # env -> the index key at those positions
    repeats: tuple[tuple[int, int], ...]  # (position, earlier position) of one new variable
    lo: int  # env[lo:hi] takes the atom's new variables
    hi: int
    take: Callable  # args -> the values of the new variables
    written: int  # the atom's position in the written body


class _Plan(NamedTuple):
    steps: tuple[_Step, ...]
    env: list  # the rule's constants, then one slot per variable
    head: tuple[str, Callable]  # predicate, env -> arguments
    neg: tuple[tuple[str, Callable], ...]


def _compile(rule: Rule, delta_at: int | None = None, derived=frozenset()) -> _Plan:
    """The join plan of ``rule``: its positive body in written order, every
    atom read in full; or, with ``delta_at``, that atom moved first to read
    only the last pass's new atoms, and the atoms written before it that
    this stratum derives reading only the atoms older than those.

    Every term gets a slot in the plan's environment: constants first, then
    the variables in the order the plan binds them.  Each step looks up the
    atoms that match its constants and bound variables in a hash index,
    checks a variable repeated inside the atom, and copies its new variables
    into consecutive slots.
    """
    body = rule.body_pos
    order = sorted(range(len(body)), key=lambda j: j != delta_at)  # delta_at first
    atoms = (rule.head, *body, *rule.body_neg)
    consts = list(dict.fromkeys(t for a in atoms for t in a.terms if not isinstance(t, Variable)))
    slot = {t: i for i, t in enumerate(consts)}
    steps = []
    for j in order:
        atom = body[j]
        key_positions, key_slots, repeats, first = [], [], [], {}
        for p, t in enumerate(atom.terms):
            if t in first:
                repeats.append((p, first[t]))
            elif t in slot:
                key_positions.append(p)
                key_slots.append(slot[t])
            else:
                first[t] = p
        lo = len(slot)
        slot.update((t, lo + i) for i, t in enumerate(first))
        if j == delta_at:
            source = _DELTA
        elif delta_at is not None and j < delta_at and atom.predicate in derived:
            source = _OLD
        else:
            source = _FULL
        steps.append(_Step(atom.predicate, source, tuple(key_positions),
                           itemgetter(*key_slots) if key_slots else None, tuple(repeats),
                           lo, len(slot), _getter(list(first.values())), j))
    env = consts + [None] * (len(slot) - len(consts))
    head, *neg = ((a.predicate, _getter([slot[t] for t in a.terms]))
                  for a in (rule.head, *rule.body_neg))
    return _Plan(tuple(steps), env, head, tuple(neg))


def _fire(plan: _Plan, rel: _Relations, fresh: dict, rules: dict | None, new: dict) -> int:
    """Run ``plan`` against ``rel`` and the last pass's new atoms ``fresh``;
    return its firings.

    Each instantiation of the positive body becomes a ground rule in
    ``rules``, unless that is None; its head goes to ``new`` unless it is
    already derived or a negative literal holds.
    """
    steps, env, (head_pred, head_args), negs = plan
    env = list(env)
    matched = [None] * len(steps)
    atoms = rel.atoms
    tables = []
    for step in steps:
        if step.source == _DELTA:
            src = [atom for atom in fresh if atom[0] == step.predicate]
            tables.append(_bucket(src, itemgetter(*step.key_positions))
                          if step.key_positions else src)
        elif step.key_positions:
            tables.append(rel.index(step.predicate, step.key_positions))
        else:
            tables.append(rel.lists.get(step.predicate, ()))
    firings = 0

    def walk(i: int) -> None:
        nonlocal firings
        if i == len(steps):
            firings += 1
            head = (head_pred, head_args(env))
            neg = tuple([(pred, args(env)) for pred, args in negs])
            if rules is not None:
                rules[GroundRule(head, tuple(matched), neg)] = None
            if head not in atoms:
                for atom in neg:
                    if atom in atoms:
                        break
                else:
                    new[head] = None
            return
        _, source, _, key, repeats, lo, hi, take, written = steps[i]
        table = tables[i]
        for atom in table if key is None else table.get(key(env), ()):
            args = atom[1]
            if repeats and any(args[p] != args[q] for p, q in repeats):
                continue
            if source == _OLD and atom in fresh:
                continue
            env[lo:hi] = take(args)
            matched[written] = atom
            walk(i + 1)

    walk(0)
    return firings


def check_arities(program: Program, fact_atoms: Iterable[GroundAtom]) -> None:
    """Raise :class:`ArityError` if a predicate of the program or the facts
    is used with two different arities."""
    arity: dict[str, int] = {}

    def check(pred: str, n: int, context: str):
        seen = arity.setdefault(pred, n)
        if seen != n:
            raise ArityError(
                f"predicate {pred!r} used with arity {n} in {context} "
                f"but with arity {seen} elsewhere"
            )

    for pred, n in dict.fromkeys((pred, len(args)) for pred, args in fact_atoms):
        check(pred, n, "the fact base")
    for rule in program.rules:
        for atom in (rule.head, *rule.body_pos, *rule.body_neg):
            check(atom.predicate, len(atom.terms), f"rule '{rule}'")


def ground(program: Program, facts: Iterable[GroundAtom] = ()) -> GroundProgram:
    """Instantiate the program over every substitution whose positive body is
    satisfiable by derivable atoms (facts included as empty-body ground rules).

    Strata run bottom-up, each semi-naively (Bancilhon & Ramakrishnan 1986):
    a first pass joins every rule against all atoms so far, and while a pass
    derives new atoms, the next joins the rules whose positive body has a
    predicate of this stratum against those new atoms only.  Each rule is
    compiled once into join plans over hash indexes on (predicate, bound
    argument positions), so the ground program for the revision rules stays
    linear in the fact count, and every instantiation fires exactly once.
    The evaluation keeps only the atoms and counters; the ground rules are
    enumerated when ``rules`` is first read.  Of the result, only the order
    of ``rules`` follows the order of ``facts``, kept as given (a tuple is not copied).
    """
    fact_atoms = tuple(facts)
    check_arities(program, fact_atoms)
    firings, atoms = _evaluate(program, fact_atoms, None)
    stats = EvalStats(firings, len(atoms))
    return GroundProgram(stats, AnswerSet(atoms, stats), (program, fact_atoms))


def _evaluate(program: Program, fact_atoms: tuple[GroundAtom, ...],
              rules: dict | None) -> tuple[int, set[GroundAtom]]:
    """The firings and derived atoms of :func:`ground`; with a dict ``rules``,
    each distinct fact and each firing also becomes a ground rule in it."""
    if rules is not None:  # an insertion-ordered set: the facts may repeat
        rules.update(dict.fromkeys(GroundRule(atom, (), ()) for atom in fact_atoms))
    rel = _Relations()
    rel.extend(dict.fromkeys(fact_atoms))

    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(program.strata[rule.head.predicate], []).append(rule)

    firings = 0
    for stratum in sorted(by_stratum):
        stratum_rules = by_stratum[stratum]
        derived = {rule.head.predicate for rule in stratum_rules}
        delta_plans = [_compile(rule, k, derived) for rule in stratum_rules
                       for k, atom in enumerate(rule.body_pos) if atom.predicate in derived]
        # negative literals point strictly below this stratum, so their
        # truth is already decided by the atoms derived so far
        new: dict[GroundAtom, None] = {}
        for rule in stratum_rules:
            firings += _fire(_compile(rule), rel, {}, rules, new)
        rel.extend(new)
        while new and delta_plans:
            fresh, new = new, {}
            for plan in delta_plans:
                firings += _fire(plan, rel, fresh, rules, new)
            rel.extend(new)
    return firings, rel.atoms


# ---------------------------------------------------------------------------
# Evaluation

def _ground_strata(rules: Iterable[GroundRule]) -> dict[str, int]:
    graph: dict[str, set[tuple[str, bool]]] = {}
    for head, pos, neg in rules:
        deps = graph.setdefault(head[0], set())
        for atom in pos:
            deps.add((atom[0], False))
            graph.setdefault(atom[0], set())
        for atom in neg:
            deps.add((atom[0], True))
            graph.setdefault(atom[0], set())
    return _stratify(graph)


def solve(ground_program: GroundProgram) -> AnswerSet:
    """Evaluate strata bottom-up to the unique stable model.

    Within a stratum the positive fixpoint is iterated with lower-stratum
    negations treated as decided.  Output is independent of rule order.
    """
    strata = _ground_strata(ground_program.rules)  # defensive re-check
    by_stratum: dict[int, list[GroundRule]] = {}
    for rule in ground_program.rules:
        by_stratum.setdefault(strata[rule.head[0]], []).append(rule)

    derived: set[GroundAtom] = set()
    firings = 0
    for stratum in sorted(by_stratum):
        rules = by_stratum[stratum]
        changed = True
        while changed:
            changed = False
            for head, pos, neg in rules:
                if all(p in derived for p in pos) and not any(n in derived for n in neg):
                    firings += 1
                    if head not in derived:
                        derived.add(head)
                        changed = True
    return AnswerSet(derived, EvalStats(firings, len(derived)))


def check_stability(ground_program: GroundProgram, candidate) -> bool:
    """Reduct-based stable-model test, independent of the stratified evaluator.

    Drops rules with a negative literal inside the candidate, strips the
    remaining negative literals, and compares the candidate with the least
    model of the resulting positive program.
    """
    if hasattr(candidate, "atoms"):
        candidate = candidate.atoms
    cand = frozenset(candidate)
    reduct = [
        (head, pos)
        for head, pos, neg in ground_program.rules
        if not any(n in cand for n in neg)
    ]
    least: set[GroundAtom] = set()
    changed = True
    while changed:
        changed = False
        for head, pos in reduct:
            if head not in least and all(p in least for p in pos):
                least.add(head)
                changed = True
    return least == cand
