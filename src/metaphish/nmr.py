"""A miniature engine for stratified normal logic programs.

Covers exactly the fragment the belief-revision layer needs: normal rules
with default negation, no function symbols, no disjunction, no aggregates.
A program is parsed, checked for rule safety and stratification, and
grounded against a fact base with first-argument indexing.  A cycle through
``not`` is rejected, naming the first one in sorted order; otherwise the
strata are the least predicate levels, found by relaxation.  Grounding runs
stratum by stratum to a fixpoint, so its atom store is the unique stable
model, returned as ``GroundProgram.model``.  :func:`solve` re-evaluates a
ground program and :func:`check_stability` implements the reduct-based
stable-model definition; both serve as independent oracles for that model.

Ground atoms are plain ``(predicate, args)`` tuples where each argument is a
lowercase symbol (str) or a non-negative integer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Union

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

    atoms: frozenset[GroundAtom]
    stats: EvalStats = field(compare=False, default=EvalStats())

    def holds(self, predicate: str, *args) -> bool:
        return (predicate, tuple(args)) in self.atoms

    def with_predicate(self, predicate: str) -> list[GroundAtom]:
        return sorted(
            (a for a in self.atoms if a[0] == predicate), key=_atom_sort_key
        )


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[GroundRule, ...]
    stats: EvalStats = field(compare=False, default=EvalStats())
    model: AnswerSet = field(compare=False, default=AnswerSet(frozenset()))


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

class _AtomStore:
    """Derived ground atoms with per-predicate lists and a first-argument index."""

    def __init__(self):
        self.all: set[GroundAtom] = set()
        self.by_pred: dict[str, list[tuple]] = {}
        self.by_first: dict[tuple[str, object], list[tuple]] = {}

    def add(self, atom: GroundAtom) -> bool:
        if atom in self.all:
            return False
        self.all.add(atom)
        pred, args = atom
        self.by_pred.setdefault(pred, []).append(args)
        if args:
            self.by_first.setdefault((pred, args[0]), []).append(args)
        return True

    def candidates(self, pred: str, first) -> list[tuple]:
        if first is _UNBOUND:
            return self.by_pred.get(pred, ())
        return self.by_first.get((pred, first), ())


_UNBOUND = object()


def _first_key(atom: Atom, subst: dict):
    if not atom.terms:
        return _UNBOUND
    t0 = atom.terms[0]
    if isinstance(t0, Variable):
        return subst.get(t0.name, _UNBOUND)
    return t0


def _extend(terms: tuple[Term, ...], args: tuple, subst: dict) -> dict | None:
    out = subst
    copied = False
    for t, a in zip(terms, args):
        if isinstance(t, Variable):
            cur = out.get(t.name, _UNBOUND)
            if cur is _UNBOUND:
                if not copied:
                    out = dict(out)
                    copied = True
                out[t.name] = a
            elif cur != a:
                return None
        elif t != a:
            return None
    return out


def _substitute(atom: Atom, subst: dict) -> GroundAtom:
    return (
        atom.predicate,
        tuple(subst[t.name] if isinstance(t, Variable) else t for t in atom.terms),
    )


def _join(body: tuple[Atom, ...], store: _AtomStore) -> Iterator[dict]:
    """All substitutions grounding every body atom against the store."""

    def expand(i: int, subst: dict) -> Iterator[dict]:
        if i == len(body):
            yield subst
            return
        atom = body[i]
        for args in store.candidates(atom.predicate, _first_key(atom, subst)):
            extended = _extend(atom.terms, args, subst)
            if extended is not None:
                yield from expand(i + 1, extended)

    return expand(0, {})


def check_arities(program: Program, fact_atoms: list[GroundAtom]) -> None:
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

    for pred, args in fact_atoms:
        check(pred, len(args), "the fact base")
    for rule in program.rules:
        for atom in (rule.head, *rule.body_pos, *rule.body_neg):
            check(atom.predicate, len(atom.terms), f"rule '{rule}'")


def ground(program: Program, facts: Iterable[GroundAtom] = ()) -> GroundProgram:
    """Instantiate the program over every substitution whose positive body is
    satisfiable by derivable atoms (facts included as empty-body ground rules).

    Grounding is fact-driven and indexed on (predicate, first argument), so
    the ground program for the revision rules stays linear in the fact count.
    Of the result, only the order of ``rules`` follows the order of ``facts``.
    """
    fact_atoms = [(pred, tuple(args)) for pred, args in facts]
    check_arities(program, fact_atoms)

    store = _AtomStore()
    ground_rules: list[GroundRule] = []
    seen: set[GroundRule] = set()
    firings = 0

    for atom in fact_atoms:
        if store.add(atom):
            rule = GroundRule(atom, (), ())
            seen.add(rule)
            ground_rules.append(rule)

    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(program.strata[rule.head.predicate], []).append(rule)

    for stratum in sorted(by_stratum):
        rules = by_stratum[stratum]
        while True:
            new_atoms: dict[GroundAtom, None] = {}
            for rule in rules:
                for subst in _join(rule.body_pos, store):
                    firings += 1
                    head = _substitute(rule.head, subst)
                    g = GroundRule(
                        head,
                        tuple(_substitute(a, subst) for a in rule.body_pos),
                        tuple(_substitute(a, subst) for a in rule.body_neg),
                    )
                    if g not in seen:
                        seen.add(g)
                        ground_rules.append(g)
                    # negative literals point strictly below this stratum, so
                    # their truth is already decided by the store
                    if head not in store.all and not any(n in store.all for n in g.neg):
                        new_atoms[head] = None
            if not new_atoms:
                break
            for atom in new_atoms:
                store.add(atom)

    stats = EvalStats(firings, len(store.all))
    return GroundProgram(tuple(ground_rules), stats, AnswerSet(frozenset(store.all), stats))


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
    return AnswerSet(frozenset(derived), EvalStats(firings, len(derived)))


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
