from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from metaphish import nmr
from metaphish.nmr import (
    GroundRule,
    ArityError,
    Atom,
    ParseError,
    SafetyError,
    StratificationError,
    Variable,
    check_stability,
    ground,
    parse_program,
    solve,
)

from metaphish.revision import revision_program

from _support import (
    assert_cycle_in_graph,
    naive_ground,
    positive_instantiations,
    random_nonground_program,
    random_predicate_graph,
    random_stratified_program,
    tarjan_stratify,
)

REVISION_TEXT = """
revise(CL,ID) :- pred(CL,ID,phishing), meta(ID,yes).
final(CL,ID,benign) :- revise(CL,ID).
final(CL,ID,C) :- pred(CL,ID,C), not revise(CL,ID).
"""


def all_candidates(ground_program):
    """Every subset of the atoms occurring anywhere in the ground program."""
    universe = sorted(
        {a for r in ground_program.rules for a in (r.head, *r.pos, *r.neg)},
        key=nmr._atom_sort_key,
    )
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


class TestParser:
    def test_revision_rule_shape(self):
        program = parse_program(
            "final(CL,ID,benign) :- pred(CL,ID,phishing), meta(ID,yes).\n"
        )
        (rule,) = program.rules
        assert rule.head == Atom("final", (Variable("CL"), Variable("ID"), "benign"))
        assert len(rule.body_pos) == 2
        assert rule.body_neg == ()

    def test_fact_with_empty_body(self):
        program = parse_program("a.")
        (rule,) = program.rules
        assert rule.is_fact
        assert rule.head == Atom("a")

    def test_integers_and_comments(self):
        program = parse_program("% header comment\np(1,foo). % trailing\nq(X) :- p(X,foo).\n")
        assert program.rules[0].head == Atom("p", (1, "foo"))
        assert len(program.rules) == 2

    def test_whitespace_insensitive(self):
        a = parse_program("b :- a , not c .")
        b = parse_program("b:-a,not c.")
        assert a.rules == b.rules

    def test_unsafe_variable_rejected(self):
        with pytest.raises(SafetyError, match="unsafe variable X"):
            parse_program("p(X) :- not q(X).")

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(SafetyError, match="unsafe variable Y"):
            parse_program("p(Y) :- q(X).")

    def test_syntax_error_has_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\nb :- ,c.\n")
        assert err.value.line == 2
        assert err.value.column == 6

    def test_missing_dot(self):
        with pytest.raises(ParseError, match="'.'"):
            parse_program("a :- b")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("a :- b & c.")

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError, match="predicate name"):
            parse_program("Foo.")

    def test_not_reserved(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_program("not(a).")

    def test_non_stratified_names_cycle(self):
        with pytest.raises(StratificationError) as err:
            parse_program("p :- not q. q :- r. r :- p.")
        assert set(err.value.cycle) >= {"p", "r"}
        assert any(part.startswith("not ") for part in err.value.cycle)

    def test_self_negation_rejected(self):
        with pytest.raises(StratificationError):
            parse_program("p(X) :- q(X), not p(X). q(1).")

    def test_positive_recursion_accepted(self):
        program = parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).")
        assert program.strata["t"] == program.strata["e"] == 0

    def test_strata_ordering(self):
        program = parse_program(REVISION_TEXT)
        assert program.strata["final"] == program.strata["revise"] + 1
        assert program.dependency_graph["revise"] == frozenset(
            {("pred", False), ("meta", False)}
        )
        assert ("revise", True) in program.dependency_graph["final"]


class TestGround:
    def test_locality_single_instance(self):
        # one instance contributes five facts: four predictions plus its meta flag
        program = parse_program(REVISION_TEXT)
        facts = [
            ("pred", ("svm", 7, "phishing")),
            ("pred", ("knn", 7, "benign")),
            ("pred", ("dt", 7, "phishing")),
            ("pred", ("rf", 7, "benign")),
            ("meta", (7, "yes")),
        ]
        gp = ground(program, facts)
        constants = {
            a
            for rule in gp.rules
            for atom in (rule.head, *rule.pos, *rule.neg)
            for a in atom[1]
        }
        assert constants == {"svm", "knn", "dt", "rf", 7, "phishing", "benign", "yes"}

    def test_empty_fact_base(self):
        program = parse_program(REVISION_TEXT)
        gp = ground(program, [])
        assert all(not r.pos and not r.neg for r in gp.rules)
        assert gp.rules == ()

    def test_program_facts_become_ground_rules(self):
        gp = ground(parse_program("a. b :- a."))
        heads = {r.head for r in gp.rules}
        assert ("a", ()) in heads and ("b", ()) in heads

    def test_arity_mismatch(self):
        program = parse_program("q(X) :- p(X).")
        with pytest.raises(ArityError, match="arity"):
            ground(program, [("p", (1, 2))])

    def test_arity_mismatch_across_rules(self):
        with pytest.raises(ArityError):
            ground(parse_program("q(X) :- p(X). q(X) :- p(X, X)."))

    def test_duplicate_facts_collapse(self):
        gp = ground(parse_program("a."), [("a", ())])
        assert len(gp.rules) == 1

    def test_rules_are_enumerated_once_when_read(self):
        gp = ground(parse_program(REVISION_TEXT), [("pred", ("svm", 7, "phishing"))])
        assert gp.rules is gp.rules

    def test_rules_keep_the_eager_order(self):
        # distinct facts in input order, then the firings in evaluation order:
        # stratum by stratum, and within one, pass by pass
        program = parse_program("""
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- path(X,Y), edge(Y,Z).
            blocked(X) :- node(X), not path(a,X).
        """)
        edge = lambda x, y: ("edge", (x, y))
        path = lambda x, y: ("path", (x, y))
        node = lambda x: ("node", (x,))
        facts = [edge("a", "b"), node("c"), edge("b", "c"), edge("a", "b"), node("a"),
                 node("c"), edge("c", "d")]
        assert ground(program, facts).rules == (
            GroundRule(edge("a", "b"), (), ()),
            GroundRule(node("c"), (), ()),
            GroundRule(edge("b", "c"), (), ()),
            GroundRule(node("a"), (), ()),
            GroundRule(edge("c", "d"), (), ()),
            GroundRule(path("a", "b"), (edge("a", "b"),), ()),
            GroundRule(path("b", "c"), (edge("b", "c"),), ()),
            GroundRule(path("c", "d"), (edge("c", "d"),), ()),
            GroundRule(path("a", "c"), (path("a", "b"), edge("b", "c")), ()),
            GroundRule(path("b", "d"), (path("b", "c"), edge("c", "d")), ()),
            GroundRule(path("a", "d"), (path("a", "c"), edge("c", "d")), ()),
            GroundRule(("blocked", ("c",)), (node("c"),), (path("a", "c"),)),
            GroundRule(("blocked", ("a",)), (node("a"),), (path("a", "a"),)),
        )

    def test_repeated_variable_must_unify(self):
        program = parse_program("q(X) :- p(X, X).")
        answer = solve(ground(program, [("p", (1, 2)), ("p", (3, 3))]))
        assert answer.holds("q", 3)
        assert not answer.holds("q", 1)

    def test_blocked_rules_still_grounded(self):
        # rules whose negative literal holds stay in the ground program; the
        # stability oracle needs them to build reducts for other candidates
        program = parse_program(REVISION_TEXT)
        facts = [("pred", ("svm", 7, "phishing")), ("meta", (7, "yes"))]
        gp = ground(program, facts)
        blocked = GroundRule(
            ("final", ("svm", 7, "phishing")),
            (("pred", ("svm", 7, "phishing")),),
            (("revise", ("svm", 7)),),
        )
        assert blocked in gp.rules

    def test_ground_rule_count_linear(self):
        # derived oracle: counted firings at three sizes, ratio within 10%
        program = parse_program(REVISION_TEXT)
        sizes = (50, 500, 5000)
        firings = []
        for n in sizes:
            facts = []
            for i in range(n):
                for cl in ("svm", "knn", "dt", "rf"):
                    facts.append(("pred", (cl, i, "phishing" if i % 2 else "benign")))
                facts.append(("meta", (i, "yes" if i % 3 == 0 else "no")))
            gp = ground(program, facts)
            total = solve(gp)
            firings.append(gp.stats.firings + total.stats.firings)
        r1 = firings[1] / firings[0]
        r2 = firings[2] / firings[1]
        assert abs(r1 - 10.0) < 1.0
        assert abs(r2 - 10.0) < 1.0


    def test_bundled_rules_fire_once_per_instantiation(self):
        # revise fires once per revised belief; final once per belief and once
        # more per revised one (its pass-through rule is blocked, not skipped)
        rng = random.Random(67)
        facts, n_pred, n_revised = [], 0, 0
        for i in range(500):
            meta = rng.random() < 0.5
            facts.append(("meta", (i, "yes" if meta else "no")))
            for cl in ("svm", "knn", "dt", "rf"):
                cls = rng.choice(("phishing", "benign"))
                facts.append(("pred", (cl, i, cls)))
                n_pred += 1
                n_revised += meta and cls == "phishing"
        gp = ground(revision_program(), facts)
        assert gp.stats.firings == n_pred + 2 * n_revised
        assert len(gp.rules) == len(facts) + gp.stats.firings


class TestSolve:
    def test_negation_blocks_when_underivable(self):
        gp = ground(parse_program("a. b :- a, not c."))
        assert solve(gp).atoms == {("a", ()), ("b", ())}

    def test_negation_blocks_when_derivable(self):
        gp = ground(parse_program("a. c. b :- a, not c."))
        assert solve(gp).atoms == {("a", ()), ("c", ())}

    def test_positive_chain(self):
        gp = ground(parse_program("e(1,2). e(2,3). t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z)."))
        answer = solve(gp)
        assert answer.holds("t", 1, 3)
        assert len(answer.with_predicate("t")) == 3

    def test_two_strata(self):
        gp = ground(parse_program("q :- not p. r :- q."))
        assert solve(gp).atoms == {("q", ()), ("r", ())}

    def test_order_independence(self):
        text = "a. d :- not b. b :- a, c. e :- d, not b."
        rules = [line.strip() for line in text.split(". ") if line.strip()]
        baseline = solve(ground(parse_program(text)))
        rng = random.Random(4)
        for _ in range(10):
            rng.shuffle(rules)
            shuffled = ". ".join(r.rstrip(".") for r in rules) + "."
            assert solve(ground(parse_program(shuffled))).atoms == baseline.atoms

    def test_fact_order_independence(self):
        program = parse_program(REVISION_TEXT)
        facts = [
            ("pred", ("svm", 1, "phishing")),
            ("pred", ("knn", 1, "benign")),
            ("meta", (1, "yes")),
            ("pred", ("svm", 2, "phishing")),
            ("meta", (2, "no")),
        ]
        first = ground(program, facts)
        baseline = solve(first)
        rng = random.Random(14)
        for _ in range(10):
            rng.shuffle(facts)
            gp = ground(program, facts)
            assert solve(gp).atoms == baseline.atoms
            # only the order of the ground rules may follow the facts
            assert set(gp.rules) == set(first.rules)
            assert len(gp.rules) == len(first.rules)
            assert gp.stats.firings == first.stats.firings

    def test_monotone_fragment_grows(self):
        rng = random.Random(17)
        for _ in range(30):
            # strip negation out of random programs: the positive fragment
            text = random_stratified_program(rng)
            positive = "\n".join(
                line for line in text.splitlines() if "not " not in line
            )
            base = solve(ground(parse_program(positive)))
            extended = solve(ground(parse_program(positive + "\nextra0.\n")))
            assert base.atoms <= extended.atoms

    def test_withdrawal_witness(self):
        # adding meta evidence removes a previously derived phishing verdict
        program = parse_program(REVISION_TEXT)
        base_facts = [("pred", ("svm", 1, "phishing"))]
        before = solve(ground(program, base_facts))
        assert before.holds("final", "svm", 1, "phishing")
        after = solve(ground(program, base_facts + [("meta", (1, "yes"))]))
        assert not after.holds("final", "svm", 1, "phishing")
        assert after.holds("final", "svm", 1, "benign")


class TestGroundModel:
    """``ground``'s fixpoint is the stable model; ``solve`` is the oracle it must equal."""

    def test_random_programs_match_solve(self):
        rng = random.Random(41)
        for _ in range(3000):
            gp = ground(parse_program(random_stratified_program(rng)))
            assert gp.model == solve(gp)

    def test_revision_program_on_random_fact_bases(self):
        program = parse_program(REVISION_TEXT)
        rng = random.Random(43)
        for _ in range(200):
            facts = []
            for i in range(rng.randint(0, 12)):
                for cl in rng.sample(("svm", "knn", "dt", "rf"), rng.randint(1, 4)):
                    facts.append(("pred", (cl, i, rng.choice(("phishing", "benign")))))
                if rng.random() < 0.8:  # some instances carry no meta fact
                    facts.append(("meta", (i, rng.choice(("yes", "no")))))
            gp = ground(program, facts)
            assert gp.model == solve(gp)

    def test_recursive_program_with_negation(self):
        program = parse_program(
            "v(X) :- e(X,Y). v(Y) :- e(X,Y). t(X,Y) :- e(X,Y). "
            "t(X,Z) :- t(X,Y), e(Y,Z). n(X) :- v(X), not t(X,X)."
        )
        gp = ground(program, [("e", (0, 1)), ("e", (1, 0)), ("e", (1, 2))])
        assert gp.model.with_predicate("n") == [("n", (2,))]
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 6)
            edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
            gp = ground(program, [("e", edge) for edge in edges])
            assert gp.model == solve(gp)
            assert check_stability(gp, gp.model)


class TestSemiNaive:
    """``ground`` against ``naive_ground``, the fixpoint it replaced, on
    non-ground programs: the same model, the same set of ground rules, and
    one firing per instantiation of a rule's positive body."""

    @staticmethod
    def check(text, facts):
        program = parse_program(text)
        gp = ground(program, facts)
        oracle = naive_ground(program, facts)
        assert gp.model == oracle.model
        assert set(gp.rules) == set(oracle.rules)
        assert gp.stats.firings == positive_instantiations(program, gp.model.atoms)

    def test_random_programs_match_naive_ground(self):
        rng = random.Random(61)
        for _ in range(1000):
            self.check(*random_nonground_program(rng))

    def test_random_programs_match_naive_ground_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.randoms(use_true_random=False))
        def check(rng):
            self.check(*random_nonground_program(rng))

        check()

    def test_recursion_over_many_passes(self):
        # a path of 30 edges: its closure takes passes doubling the path length,
        # and each t(X,Z) :- t(X,Y), t(Y,Z) instance joins two atoms of the stratum
        text = "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z). s(X) :- t(X,X)."
        edges = [("e", (i, i + 1)) for i in range(30)]
        self.check(text, edges)
        self.check(text, edges + [("e", (30, 0))])  # a cycle makes s hold everywhere


class TestCheckStability:
    def test_fact_program(self):
        gp = ground(parse_program("a."))
        assert check_stability(gp, {("a", ())})
        assert not check_stability(gp, set())

    def test_accepts_answer_set_object(self):
        gp = ground(parse_program("a. b :- not c."))
        assert check_stability(gp, solve(gp))

    def test_rejects_supersets(self):
        gp = ground(parse_program("a. b :- not c."))
        assert not check_stability(gp, {("a", ()), ("b", ()), ("c", ())})

    def test_random_programs_match_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            gp = ground(parse_program(random_stratified_program(rng, max_atoms=8)))
            answer = solve(gp)
            stable = [c for c in all_candidates(gp) if check_stability(gp, c)]
            assert stable == [answer.atoms]

    def test_solve_output_always_stable(self):
        rng = random.Random(29)
        for _ in range(100):
            gp = ground(parse_program(random_stratified_program(rng)))
            assert check_stability(gp, solve(gp))


TWO_NEGATIVE_CYCLES = "p :- not q, not r. q :- p. r :- p."


def _matches_tarjan(graph) -> bool:
    """Equal strata, or both reject and the reported cycle lies in ``graph``;
    False for a rejected graph."""
    try:
        want = tarjan_stratify(graph)
    except StratificationError:
        with pytest.raises(StratificationError) as err:
            nmr._stratify(graph)
        assert_cycle_in_graph(err.value.cycle, graph)
        return False
    assert nmr._stratify(graph) == want
    return True


class TestStratify:
    """``_stratify``'s level relaxation against the Tarjan-component oracle."""

    def test_random_programs_match_tarjan(self):
        rng = random.Random(53)
        for _ in range(3000):
            program = parse_program(random_stratified_program(rng))
            graph = {p: set(deps) for p, deps in program.dependency_graph.items()}
            assert program.strata == tarjan_stratify(graph)

    def test_random_graphs_match_tarjan(self):
        rng = random.Random(59)
        accepted = sum(_matches_tarjan(random_predicate_graph(rng)) for _ in range(10000))
        assert 1000 < accepted < 9000  # both outcomes are well exercised

    def test_random_graphs_match_tarjan_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        preds = st.sampled_from([f"p{k}" for k in range(6)])

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(st.tuples(preds, preds, st.booleans()), max_size=14))
        def check(edges):
            graph = {}
            for head, dep, negated in edges:
                graph.setdefault(head, set()).add((dep, negated))
                graph.setdefault(dep, set())
            _matches_tarjan(graph)

        check()

    def test_first_cycle_in_sorted_order(self):
        with pytest.raises(StratificationError) as err:
            parse_program(TWO_NEGATIVE_CYCLES)
        assert err.value.cycle == ("p", "not q", "p")
        with pytest.raises(StratificationError) as err:
            parse_program("a :- b. b :- c. c :- not a.")
        assert err.value.cycle == ("c", "not a", "b", "c")

    def test_cycle_report_is_independent_of_hash_seed(self):
        script = (
            "from metaphish import nmr\n"
            "try:\n"
            f"    nmr.parse_program({TWO_NEGATIVE_CYCLES!r})\n"
            "except nmr.StratificationError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(nmr.__file__).resolve().parents[1])
        messages = set()
        for seed in range(1, 7):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            messages.add(result.stdout)
        assert messages == {"program is not stratified: negative cycle p -> not q -> p\n"}
