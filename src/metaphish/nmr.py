"""A miniature engine for stratified normal logic programs.

Covers exactly the fragment the belief-revision layer needs: normal rules
with default negation, no function symbols, no disjunction, no aggregates.
A program is parsed, checked for rule safety and stratification (a cycle
through ``not`` is rejected, naming the first in sorted order; otherwise
the strata are the least predicate levels, found by relaxation), and
grounded against a fact base of integer-coded argument columns
(:class:`Relations`): stratum by stratum, semi-naively, through join plans
run a set at a time.  The atoms derived are the unique stable model,
``GroundProgram.model``; the ground rules are enumerated only when
``GroundProgram.rules`` is read, by evaluating again.  :func:`solve` reads
them: an oracle for the model.

Ground atoms are plain ``(predicate, args)`` tuples where each argument is a
symbol (str) or an integer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

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

    def __str__(self):
        if not self.body_pos and not self.body_neg:
            return f"{self.head}."
        body = [str(a) for a in self.body_pos] + [f"not {a}" for a in self.body_neg]
        return f"{self.head} :- {', '.join(body)}."


@dataclass(frozen=True)
class Program:
    """Parsed rules; ``strata`` assigns every predicate its evaluation layer
    (0 = lowest)."""

    rules: tuple[Rule, ...]
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


@dataclass(frozen=True, eq=False)
class AnswerSet:
    """The unique stable model of a stratified ground program: its atoms as
    given (by :func:`ground`, its :class:`Relations`), a set in ``atoms``
    from the first read on; answer sets with equal atoms are equal."""

    relations: Iterable[GroundAtom]
    stats: EvalStats = EvalStats()

    @cached_property
    def atoms(self) -> set[GroundAtom]:
        return set(self.relations)

    def __eq__(self, other):
        return isinstance(other, AnswerSet) and self.atoms == other.atoms


@dataclass(frozen=True, eq=False)
class GroundProgram:
    """What :func:`ground` found: the stable model and its counters.

    ``rules`` (one :class:`GroundRule` per distinct fact, in table order, then
    one per firing, in firing order) is enumerated on first read, by
    evaluating ``source`` (the program and its facts) again, and kept."""

    stats: EvalStats
    model: AnswerSet
    source: tuple[Program, Relations] = field(repr=False)

    @cached_property
    def rules(self) -> tuple[GroundRule, ...]:
        rules: dict[GroundRule, None] = {}
        _evaluate(*self.source, rules)
        return tuple(rules)


def format_ground_atom(atom: GroundAtom) -> str:
    pred, args = atom
    return f"{pred}({','.join(map(str, args))})" if args else pred


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


def _predicate_graph(rules: Iterable[tuple]) -> dict[str, set[tuple[str, bool]]]:
    """The ``(predicate, negated)`` dependencies of each predicate, from
    ``(head, positive body, negative body)`` triples of predicates."""
    graph: dict[str, set[tuple[str, bool]]] = {}
    for head, pos, neg in rules:
        deps = graph.setdefault(head, set())
        for pred, negated in chain(zip(pos, repeat(False)), zip(neg, repeat(True))):
            deps.add((pred, negated))
            graph.setdefault(pred, set())
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
    graph = _predicate_graph((rule.head.predicate, [a.predicate for a in rule.body_pos],
                               [a.predicate for a in rule.body_neg]) for rule in rules)
    return Program(tuple(rules), _stratify(graph))


# ---------------------------------------------------------------------------
# Grounding

_SELF_CODED = 2 ** 62  # an int in [0, 2**62) is its own code


class Relations:
    """Ground atoms as integer-coded columns: per predicate, in insertion
    order, an int64 table of one row per atom and one column per argument.
    Any constant but an int in [0, 2**62) is coded ``-1 - k``, ``symbols[k]``;
    iterating decodes ``(predicate, args)`` tuples of Python ints and strs."""

    def __init__(self, tables: dict[str, np.ndarray] | None = None, symbols: Iterable = ()):
        self.tables = {} if tables is None else tables
        self.symbols = list(symbols)
        self._codes = {symbol: -1 - k for k, symbol in enumerate(self.symbols)}

    def code(self, constant) -> int:
        """The code of ``constant``, adding a new symbol to the table."""
        if isinstance(constant, (int, np.integer)) and 0 <= constant < _SELF_CODED:
            return int(constant)
        if constant not in self._codes:
            self._codes[constant] = -1 - len(self.symbols)
            self.symbols.append(constant)
        return self._codes[constant]

    def encode(self, ints) -> np.ndarray:
        """The codes of an array of ints."""
        codes = np.array(ints, dtype=np.int64)
        odd = (codes < 0) | (codes >= _SELF_CODED)
        codes[odd] = [self.code(v) for v in codes[odd].tolist()]
        return codes

    def constants(self, codes: np.ndarray) -> list:
        """The constants of an array of codes."""
        if not len(codes) or codes.min() >= 0:
            return codes.tolist()
        cells = codes.astype(object)
        cells[codes < 0] = np.array(self.symbols, dtype=object)[-1 - codes[codes < 0]]
        return cells.tolist()

    def decode(self, table: np.ndarray) -> Iterable[tuple]:
        """The rows of a table of codes, as tuples of constants, one at a time."""
        return zip(*map(self.constants, table.T)) if table.shape[1] else repeat((), len(table))

    def __len__(self) -> int:
        return sum(map(len, self.tables.values()))

    def __iter__(self):
        for pred, table in self.tables.items():
            yield from zip(repeat(pred), self.decode(table))


def row_keys(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An int64 key per row of two tables with the same columns, equal
    exactly for equal rows: the columns' offsets in mixed radix, renumbered
    densely where the product of their ranges would overflow."""
    rows = np.concatenate([left, right])
    key, span = np.zeros(len(rows), np.int64), 1
    for col in rows.T if len(rows) else ():
        low = int(col.min())
        width = int(col.max()) - low + 1
        if span * width > _SELF_CODED:
            _, key = np.unique(key, return_inverse=True)
            values, col = np.unique(col, return_inverse=True)
            span, low, width = int(key.max()) + 1, 0, len(values)
        key, span = key * width + (col - low), span * width
    return key[:len(left)], key[len(left):]


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) index pairs of equal rows of two tables with the same
    columns, by left, then right index: each left key sought in the sorted right keys."""
    if not left.shape[1]:  # every pair
        return np.divmod(np.arange(len(left) * len(right)), max(len(right), 1))
    left, right = row_keys(left, right)
    order = np.argsort(right, kind="stable")
    start = np.searchsorted(right, left, "left", sorter=order)
    counts = np.searchsorted(right, left, "right", sorter=order) - start
    offset = np.repeat(start - np.cumsum(counts) + counts, counts)
    return np.repeat(np.arange(len(left)), counts), order[offset + np.arange(len(offset))]


def _extend(rel: Relations, marks: dict[str, int], new: dict[str, list[np.ndarray]]) -> int:
    """Append the first of each row of ``new`` not in its predicate's table;
    record every table's length before in ``marks``; count the rows added."""
    marks.update((pred, len(table)) for pred, table in rel.tables.items())
    for pred, chunks in new.items():
        rows = np.concatenate([rel.tables.get(pred, chunks[0][:0]), *chunks])
        _, first = np.unique(row_keys(rows, rows[:0])[0], return_index=True)
        rel.tables[pred] = rows[np.sort(first)]  # the old rows are distinct, and first
    return len(rel) - sum(marks.values())


_FULL, _DELTA, _OLD = range(3)  # which rows of its predicate's table a join step reads


class _Step(NamedTuple):
    """One positive body atom of a join plan; see :func:`_compile`."""

    predicate: str
    source: int
    keys: tuple[tuple[int, int], ...]  # (position, binding column) of a constant or bound variable
    repeats: tuple[tuple[int, int], ...]  # (position, earlier position) of one new variable
    takes: tuple[int, ...]  # the positions of its new variables, in new binding columns
    written: int  # the atom's position in the written body


class _Plan(NamedTuple):
    consts: list[int]  # the codes of the rule's constants, its first binding columns
    steps: tuple[_Step, ...]
    head: tuple[str, list[int]]  # predicate, binding column per argument
    neg: tuple[tuple[str, list[int]], ...]


def _compile(rule: Rule, code: Callable, delta_at: int | None = None,
             derived=frozenset()) -> _Plan:
    """The join plan of ``rule``: its positive body in written order, every
    atom read in full; or, with ``delta_at``, that atom moved first to read
    only the last pass's new rows, and the atoms written before it that this
    stratum derives reading only the rows older than those.  Every term gets
    a binding column: the constants (coded by ``code``), then the variables
    in the order the plan binds them."""
    body = rule.body_pos
    consts = list(dict.fromkeys(t for a in (rule.head, *body, *rule.body_neg)
                                for t in a.terms if not isinstance(t, Variable)))
    column = {t: k for k, t in enumerate(consts)}
    steps = []
    for j in sorted(range(len(body)), key=lambda j: j != delta_at):  # delta_at first
        keys, repeats, first = [], [], {}
        for p, t in enumerate(body[j].terms):
            if t in first:
                repeats.append((p, first[t]))
            elif t in column:
                keys.append((p, column[t]))
            else:
                first[t] = p
        column.update(zip(first, range(len(column), len(column) + len(first))))
        old = delta_at is not None and j < delta_at and body[j].predicate in derived
        source = _DELTA if j == delta_at else _OLD if old else _FULL
        steps.append(_Step(body[j].predicate, source, tuple(keys), tuple(repeats),
                           tuple(first.values()), j))
    head, *neg = ((a.predicate, [column[t] for t in a.terms]) for a in (rule.head, *rule.body_neg))
    return _Plan(list(map(code, consts)), tuple(steps), head, tuple(neg))


def _fire(plan: _Plan, rel: Relations, marks: dict[str, int], rules: dict | None,
          new: dict[str, list[np.ndarray]]) -> int:
    """Run ``plan`` against ``rel``; return its firings.  Each step keeps the
    rows of its source whose repeated variables agree, and joins each binding
    so far with every one that matches it at the key positions, in table
    order: the bindings come in the order of nested loops.  Each is a firing
    and, unless ``rules`` is None, a ground rule in it; its head goes to
    ``new`` unless a negative literal holds (an anti-join)."""
    bound = np.array([plan.consts], np.int64).reshape(1, -1)  # one binding: the constants
    matched = []  # per step, the table row each binding matched (when recording)
    for pred, source, keys, repeats, takes, _ in plan.steps:
        if not len(bound):
            return 0
        table, mark = rel.tables[pred], marks.get(pred, len(rel.tables[pred]))
        index = np.arange(mark, len(table)) if source == _DELTA else \
            np.arange(mark if source == _OLD else len(table))
        for p, q in repeats:
            index = index[table[index, p] == table[index, q]]
        left, right = _join(bound[:, [c for _, c in keys]], table[index][:, [p for p, _ in keys]])
        bound = np.concatenate([bound[left], table[index[right]][:, list(takes)]], axis=1)
        if rules is not None:
            matched = [m[left] for m in matched] + [index[right]]
    head_pred, head_columns = plan.head
    heads = bound[:, head_columns]
    negs = [(pred, bound[:, columns]) for pred, columns in plan.neg]
    if rules is not None:
        def atoms(pred, codes):
            return zip(repeat(pred), rel.decode(codes))
        pos = [atoms(step.predicate, rel.tables[step.predicate][m]) for step, m in
               sorted(zip(plan.steps, matched), key=lambda pair: pair[0].written)]
        neg = [atoms(pred, codes) for pred, codes in negs]
        rules.update(zip(map(GroundRule, atoms(head_pred, heads), zip(*pos) if pos else repeat(()),
                             zip(*neg) if neg else repeat(())), repeat(None)))
    keep = np.ones(len(bound), bool)
    for pred, codes in negs:
        keep[_join(codes, rel.tables[pred])[0]] = False
    new.setdefault(head_pred, []).append(heads[keep])
    return len(bound)


def check_arities(program: Program, arities: Mapping[str, int]) -> None:
    """Raise :class:`ArityError` if a predicate of the program is used with
    two different arities, or with another than ``arities`` gives it."""
    arity = dict(arities)
    for rule in program.rules:
        for atom in (rule.head, *rule.body_pos, *rule.body_neg):
            n = len(atom.terms)
            seen = arity.setdefault(atom.predicate, n)
            if seen != n:
                raise ArityError(f"predicate {atom.predicate!r} used with arity {n} in rule "
                                 f"'{rule}' but with arity {seen} elsewhere")


def ground(program: Program, facts: Relations) -> GroundProgram:
    """Instantiate the program over every substitution whose positive body is
    satisfiable by derivable atoms (facts included as empty-body ground rules).

    ``facts`` is kept as given.  Strata run bottom-up, each semi-naively
    (Bancilhon & Ramakrishnan 1986): after a first pass over all atoms, each
    pass joins the rules with a body predicate of the stratum against the
    last pass's new atoms only, through join plans compiled once per rule and
    run a set at a time, so every instantiation fires once.  The model's
    atoms are decoded, and the ground rules enumerated, on first read."""
    check_arities(program, {pred: table.shape[1] for pred, table in facts.tables.items()})
    firings, model = _evaluate(program, facts, None)
    stats = EvalStats(firings, len(model))
    return GroundProgram(stats, AnswerSet(model, stats), (program, facts))


def _evaluate(program: Program, facts: Relations, rules: dict | None) -> tuple[int, Relations]:
    """The firings and model of :func:`ground`; with a dict ``rules``, each
    distinct fact and each firing also becomes a ground rule in it."""
    if rules is not None:  # an insertion-ordered set: the facts may repeat
        rules.update(dict.fromkeys(GroundRule(atom, (), ()) for atom in facts))
    rel, marks = Relations({}, facts.symbols), {}
    _extend(rel, marks, {pred: [table] for pred, table in facts.tables.items()})
    by_stratum: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_stratum.setdefault(program.strata[rule.head.predicate], []).append(rule)
        for atom in (rule.head, *rule.body_pos, *rule.body_neg):
            rel.tables.setdefault(atom.predicate, np.empty((0, len(atom.terms)), np.int64))
    firings = 0
    for stratum in sorted(by_stratum):
        stratum_rules = by_stratum[stratum]
        derived = {rule.head.predicate for rule in stratum_rules}
        delta_plans = [_compile(rule, rel.code, k, derived) for rule in stratum_rules
                       for k, atom in enumerate(rule.body_pos) if atom.predicate in derived]
        # negative literals point strictly below this stratum, so their
        # truth is already decided by the atoms derived so far
        new: dict[str, list[np.ndarray]] = {}
        for rule in stratum_rules:
            firings += _fire(_compile(rule, rel.code), rel, marks, rules, new)
        while _extend(rel, marks, new) and delta_plans:
            new = {}
            for plan in delta_plans:
                firings += _fire(plan, rel, marks, rules, new)
    return firings, rel


# ---------------------------------------------------------------------------
# Evaluation

def solve(ground_program: GroundProgram) -> AnswerSet:
    """Evaluate strata bottom-up to the unique stable model.

    Within a stratum the positive fixpoint is iterated with lower-stratum
    negations treated as decided.  Output is independent of rule order.
    """
    strata = _stratify(_predicate_graph((head[0], [a[0] for a in pos], [a[0] for a in neg])
                                         for head, pos, neg in ground_program.rules))  # a re-check
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
