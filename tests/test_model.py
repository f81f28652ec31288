import random
from dataclasses import fields, replace
from pathlib import Path

import pytest

import bdgame.logic
from bdgame import example_path
from bdgame.decision import enumerate_decisions
from bdgame.errors import BdgameError, SpecSyntaxError, UndeclaredAtomError
from bdgame.extension import Rule
from bdgame.game import derive_game, pareto
from bdgame.logic import TRUE, Literal, Var
from bdgame.model import (AgentSpec, AgentSystemSpec, DecisionMode,
                          PriorityOrder, _strip_comment, format_spec,
                          is_valid, parse_spec, validate_spec)
from bdgame.verify import random_spec

EXAMPLES = ["conflicting_beliefs", "single_agent_priorities",
            "interdependence", "opposed_interests", "prisoners",
            "cooperation"]


def test_parse_counts(single_agent_priorities):
    spec = single_agent_priorities
    assert len(spec.agents) == 1
    agent = spec.agents[0]
    assert agent.decision_atoms == ("a", "b", "c", "d", "e")
    assert spec.world_atoms == ("p", "q")
    assert len(agent.beliefs) == 3
    assert len(agent.desires) == 5
    assert agent.initial_decision == {Literal("a")}
    assert agent.priority.ranks.keys() == agent.desire_ids()
    assert agent.priority.ranks["d_bp"] > agent.priority.ranks["d_q"] > \
        agent.priority.ranks["d_a"] > agent.priority.ranks["d_b"] > \
        agent.priority.ranks["d_dq"]


def test_empty_spec_rejected():
    with pytest.raises(SpecSyntaxError, match="at least one agent"):
        parse_spec('system "empty"\nworld p\n')


def test_duplicate_atom_across_agents_rejected():
    src = (
        'agent x {\n  atoms a\n}\n'
        'agent y {\n  atoms a\n}\n'
    )
    with pytest.raises(SpecSyntaxError, match="duplicate atom 'a'"):
        parse_spec(src)


@pytest.mark.parametrize("src,message", [
    ("agent x {\n  atoms a\n}\nworld p p\n", "line 4: duplicate atom 'p'"),
    ("agent x {\n  atoms a\n}\nworld a\n", "line 4: duplicate atom 'a'"),
    ("world p\nagent x {\n  atoms a p\n}\n", "line 3: duplicate atom 'p'"),
    ("agent x {\n  atoms a\n}\nworld true p\n",
     "line 4: 'true' is a reserved word, not an atom name"),
    ("agent x {\n  atoms false\n}\n",
     "line 2: 'false' is a reserved word, not an atom name"),
    ("agent x {\n  atoms a\n}\nworld p 2q\n", "line 4: bad atom name '2q'"),
], ids=["world-twice", "decision-then-world", "world-then-decision",
        "world-reserved", "decision-reserved", "bad-name"])
def test_atom_declarations_name_their_line(src, message):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(src)
    assert str(exc.value) == message


def test_duplicate_agent_rejected():
    src = 'agent x {\n  atoms a\n}\nagent x {\n  atoms b\n}\n'
    with pytest.raises(SpecSyntaxError, match="^line 4: duplicate agent 'x'$"):
        parse_spec(src)


def test_duplicate_rule_id_rejected():
    src = (
        'agent x {\n  atoms a\n  desire d1: true => a\n'
        '  desire d1: true => !a\n}\n'
    )
    with pytest.raises(SpecSyntaxError, match="duplicate rule id"):
        parse_spec(src)


def test_unclosed_agent_block_rejected():
    with pytest.raises(SpecSyntaxError, match="never closed"):
        parse_spec("agent x {\n  atoms a\n")


def test_rank_under_identity_rejected():
    src = 'agent x {\n  atoms a\n  priority identity\n' \
          '  desire d1 [rank=1]: true => a\n}\n'
    with pytest.raises(SpecSyntaxError, match="priority ranked"):
        parse_spec(src)


def test_undeclared_atom_in_rule_carries_line():
    src = 'agent x {\n  atoms a\n  belief a => zz\n}\nworld p\n'
    with pytest.raises(SpecSyntaxError, match="line 3.*zz"):
        parse_spec(src)


def test_initial_must_use_own_atoms():
    src = 'agent x {\n  atoms a\n  initial p\n}\nworld p\n'
    with pytest.raises(SpecSyntaxError, match="decision atoms"):
        parse_spec(src)


def test_comments_and_blank_lines_ignored():
    src = ('# leading comment\n\nsystem "c"  # trailing\n'
           'agent x {\n  atoms a  # atoms\n}\n')
    spec = parse_spec(src)
    assert spec.name == "c"
    assert spec.agents[0].decision_atoms == ("a",)


def ref_strip_comment(raw):
    """The character loop ``_strip_comment`` replaced."""
    out = []
    quoted = False
    for ch in raw:
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


def test_comment_stripping_matches_the_character_loop():
    sources = [example_path(name).read_text(encoding="utf-8")
               for name in EXAMPLES]
    sources.append((Path(__file__).parent / "specs" /
                    "wide_vocabulary.bdg").read_text(encoding="utf-8"))
    rng = random.Random(11)
    sources += [format_spec(random_spec(rng, max_agents=3)) + "  # end"
                for _ in range(100)]
    lines = [line for text in sources for line in text.splitlines()]
    lines += ['system "a#b" # c', 'system "a#b', 'system "a # b" "#" x # y',
              '"#"', "#", "", "   ", 'x"', "a # b # c", '""#']
    assert sum("#" in line for line in lines) >= 100
    for line in lines:
        assert _strip_comment(line) == ref_strip_comment(line), line


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_belief_about_decisions_flagged():
    src = 'agent x {\n  atoms a\n  belief true => a\n}\nworld p\n'
    spec = parse_spec(src)
    report = validate_spec(spec)
    assert [v.code for v in report] == ["belief-consequent-not-in-L_W"]
    assert not is_valid(spec)


@pytest.mark.parametrize("name", EXAMPLES)
def test_fixture_specs_are_valid(name, request):
    spec = request.getfixturevalue(name)
    assert [v for v in validate_spec(spec) if v.severity == "error"] == []


def test_shared_rank_flagged():
    src = ('agent x {\n  atoms a\n  priority ranked\n'
           '  desire d1 [rank=1]: true => a\n'
           '  desire d2 [rank=1]: true => !a\n}\n')
    report = validate_spec(parse_spec(src))
    assert any(v.code == "priority-not-total" and "rank 1" in v.message
               for v in report)


def test_missing_rank_flagged():
    src = ('agent x {\n  atoms a\n  priority ranked\n'
           '  desire d1 [rank=1]: true => a\n'
           '  desire d2: true => !a\n}\n')
    report = validate_spec(parse_spec(src))
    assert any(v.code == "priority-not-total" and "d2" in v.message
               for v in report)


def test_cross_agent_priority_refused():
    # An order ranks its own agent's desires, so one that ranks any other
    # rule is refused when the agent is built.
    desire = Rule("mine", TRUE, Var("a"))
    with pytest.raises(SpecSyntaxError) as exc:
        AgentSpec(
            id="x", decision_atoms=("a",), facts=(), beliefs=(),
            desires=(desire,),
            priority=PriorityOrder.ranked({"mine": 2, "foreign": 1}))
    assert str(exc.value) == \
        "agent x: priority ranks rules that are not its desires: foreign"


def test_inconsistent_initial_decision_flagged():
    agent = AgentSpec(
        id="x", decision_atoms=("a",), facts=(), beliefs=(), desires=(),
        priority=PriorityOrder.identity(),
        initial_decision=frozenset({Literal("a"), Literal("a", False)}))
    spec = AgentSystemSpec("t", (agent,), ())
    assert any(v.code == "initial-decision-inconsistent"
               for v in validate_spec(spec))


def test_conflicting_facts_warn_only():
    src = ('agent x {\n  atoms a\n  fact p\n}\n'
           'agent y {\n  atoms b\n  fact !p\n}\nworld p\n')
    spec = parse_spec(src)
    report = validate_spec(spec)
    assert [v.code for v in report] == ["facts-conflict"]
    assert report[0].severity == "warning"
    assert is_valid(spec)


@pytest.mark.parametrize("where", [
    "fact", "belief-consequent", "belief-antecedent", "desire-antecedent",
    "desire-consequent"])
def test_an_undeclared_world_formula_atom_is_refused(where):
    # A spec built in Python is not parsed; building it refuses an atom
    # outside its vocabulary in any formula, as the parser does.
    z = Var("z")
    rule = Rule("r", z if where.endswith("antecedent") else TRUE,
                z if where.endswith("consequent") else TRUE)
    agent = AgentSpec(
        id="x", decision_atoms=("a",),
        facts=(z,) if where == "fact" else (),
        beliefs=(rule,) if where.startswith("belief") else (),
        desires=(rule,) if where.startswith("desire") else (),
        priority=PriorityOrder.identity())
    with pytest.raises(UndeclaredAtomError, match="^undeclared atom 'z'$"):
        AgentSystemSpec("t", (agent,), ("p",))


def edit_agent(spec, k, **changes):
    return replace(spec, agents=tuple(
        replace(a, **changes) if i == k else a
        for i, a in enumerate(spec.agents)))


def renamed_first_desire(spec, k, rule_id):
    first, *rest = spec.agents[k].desires
    return edit_agent(spec, k, desires=(replace(first, id=rule_id), *rest))


# Edits of prisoners that the parser refuses, or that no .bdg text can
# state: each, and the prisoners source edited to state it where a text
# can, with the line the parser names (None: it names none).
REFUSED_EDITS = {
    "duplicate-agent": (
        lambda s: edit_agent(s, 1, id="alpha1"),
        "duplicate agent 'alpha1'",
        (lambda t: t.replace("agent alpha2", "agent alpha1"), 13)),
    "duplicate-rule-id": (
        lambda s: renamed_first_desire(s, 1, "d1_free_ride"),
        "duplicate rule id 'd1_free_ride'",
        (lambda t: t.replace("desire d2_free_ride", "desire d1_free_ride"),
         16)),
    "undeclared-atom": (
        lambda s: edit_agent(s, 0, desires=(
            replace(s.agents[0].desires[0], consequent=Var("zz")),
            *s.agents[0].desires[1:])),
        "undeclared atom 'zz'",
        (lambda t: t.replace("true => !a & b", "true => zz"), 9)),
    "no-agents": (
        lambda s: replace(s, agents=()),
        "a specification needs at least one agent",
        (lambda t: t[:t.index("agent alpha1")], None)),
    "max-atoms-zero": (
        lambda s: replace(s, max_atoms=0),
        "max_atoms must be positive",
        (lambda t: t.replace("assignments\n",
                             "assignments\noption max_atoms = 0\n"), 6)),
    "quote-in-name": (
        lambda s: replace(s, name='a"b'),
        'expected: system "name"',
        (lambda t: t.replace('"prisoners-dilemma"', '"a"b"'), 4)),
    "line-break-in-name": (
        lambda s: replace(s, name="a\nb"), 'expected: system "name"', None),
    "bad-agent-id": (
        lambda s: edit_agent(s, 0, id="1x"), "bad agent '1x'", None),
    "bad-rule-id": (
        lambda s: renamed_first_desire(s, 0, "d 1"), "bad rule id 'd 1'",
        None),
    "foreign-ranks": (
        lambda s: edit_agent(
            s, 0, priority=PriorityOrder.ranked({"d2_free_ride": 1})),
        "agent alpha1: priority ranks rules that are not its desires: "
        "d2_free_ride",
        None),
    "foreign-initial": (
        lambda s: edit_agent(s, 0, initial_decision=frozenset({Literal("b")})),
        "initial decision literal 'b' is not over the agent's decision atoms",
        (lambda t: t.replace("atoms a\n", "atoms a\n  initial b\n"), 8)),
}


@pytest.mark.parametrize("name", REFUSED_EDITS)
def test_an_edit_the_parser_refuses_is_refused_when_built(name, prisoners):
    edit, message, parsed = REFUSED_EDITS[name]
    with pytest.raises(BdgameError) as exc:
        edit(prisoners)
    assert str(exc.value) == message
    assert getattr(exc.value, "line", None) is None
    if parsed is not None:
        text_edit, line = parsed
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text_edit(
                example_path("prisoners").read_text(encoding="utf-8")))
        assert (str(exc.value), exc.value.line) == (
            message if line is None else f"line {line}: {message}", line)


def test_a_rule_is_its_id_and_formulas():
    # A rule's role and owner are where it sits in the spec.
    assert [f.name for f in fields(Rule)] == ["id", "antecedent", "consequent"]
    with pytest.raises(TypeError):
        Rule("d", TRUE, TRUE, "belief", "alpha1")


def test_a_fact_stated_twice_is_one_fact(prisoners):
    # The parser reads a repeated fact once, and so does a spec built in
    # Python, so the two agree and the spec prints and parses back.
    spec = edit_agent(prisoners, 0, facts=(TRUE, Var("a"), TRUE, Var("a")))
    assert spec.agents[0].facts == (TRUE, Var("a"))
    assert parse_spec(format_spec(spec)) == spec
    text = format_spec(spec).replace("  fact a\n", "  fact a\n  fact true\n")
    assert parse_spec(text).agents[0].facts == (TRUE, Var("a"))


def test_validation_is_declaration_order_independent():
    front = ('agent x {\n  atoms a\n  belief true => a\n  fact a & p\n}\n'
             'world p\n')
    back = ('agent x {\n  atoms a\n  fact a & p\n  belief true => a\n}\n'
            'world p\n')
    codes_front = sorted(v.code for v in validate_spec(parse_spec(front)))
    codes_back = sorted(v.code for v in validate_spec(parse_spec(back)))
    assert codes_front == codes_back == \
        ["belief-consequent-not-in-L_W", "fact-not-in-L_W"]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", EXAMPLES)
def test_print_parse_identity_on_fixtures(name, request):
    spec = request.getfixturevalue(name)
    assert parse_spec(format_spec(spec)) == spec


# single_agent_priorities with its own ranks, with ties among them (which
# validate_spec refuses) and under the identity order.
@pytest.mark.parametrize("ranks, solution", [
    ({"d_bp": 5, "d_q": 4, "d_a": 3, "d_b": 2, "d_dq": 1}, (5, 6, 7)),
    ({"d_bp": 2, "d_q": 2, "d_a": 1, "d_b": 1, "d_dq": 1}, (5, 6, 7)),
    (None, (0, 1, 2, 5, 6, 7)),
], ids=["tie-free", "ties", "identity"])
def test_orders_built_in_the_library_print_and_parse_back(
        ranks, solution, single_agent_priorities):
    # An order is its ranks, so no order the library builds prints a
    # ``priority`` keyword that disagrees with its rank tags.
    assert [f.name for f in fields(PriorityOrder)] == ["ranks"]
    order = (PriorityOrder.identity() if ranks is None
             else PriorityOrder.ranked(ranks))
    spec = replace(single_agent_priorities, agents=(replace(
        single_agent_priorities.agents[0], priority=order),))
    if ranks is not None and len(set(ranks.values())) < len(ranks):
        assert {v.code for v in validate_spec(spec)} == {"priority-not-total"}
    else:
        assert validate_spec(spec) == []
    twin = parse_spec(format_spec(spec))
    assert twin == spec and hash(twin) == hash(spec)
    assert pareto(derive_game(spec)).profile_indexes == solution
    assert pareto(derive_game(twin)).profile_indexes == solution


def test_print_parse_identity_on_random_specs():
    # A spec that builds is one the parser could have produced.
    rng = random.Random(77)
    for mode in DecisionMode:
        for _ in range(500):
            spec = random_spec(rng, max_agents=3, max_decision_atoms=3,
                               max_rules=4).with_options(decision_mode=mode)
            assert parse_spec(format_spec(spec)) == spec


def test_random_specs_name_decision_atoms_past_eight():
    names = list("abcdefgh") + [f"d{k}" for k in range(9, 13)]
    rng = random.Random(5)
    widest = 0
    for _ in range(50):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=4)
        atoms = [x for agent in spec.agents for x in agent.decision_atoms]
        assert atoms == names[:len(atoms)]
        assert parse_spec(format_spec(spec)) == spec
        widest = max(widest, len(atoms))
    assert widest > 8


def test_options_round_trip():
    src = ('system "o"\noption decision_mode = literal-subsets\n'
           'option max_atoms = 12\nagent x {\n  atoms a\n}\n')
    spec = parse_spec(src)
    assert spec.decision_mode is DecisionMode.LITERAL_SUBSETS
    assert spec.max_atoms == 12
    assert parse_spec(format_spec(spec)) == spec


def test_decision_mode_given_by_name_is_the_enum():
    spec = parse_spec(example_path("prisoners").read_text(encoding="utf-8"))
    by_name = spec.with_options(decision_mode="total-assignments")
    by_enum = spec.with_options(decision_mode=DecisionMode.TOTAL_ASSIGNMENTS)
    assert by_name.decision_mode is DecisionMode.TOTAL_ASSIGNMENTS
    assert by_name == by_enum and hash(by_name) == hash(by_enum)
    for agent in spec.agents:
        (atom,) = agent.decision_atoms
        assert [d.literals for d in enumerate_decisions(by_name, agent.id)] \
            == [{Literal(atom)}, {Literal(atom, False)}]
    assert parse_spec(format_spec(by_name)) == by_name
    with pytest.raises(BdgameError, match="unknown decision_mode 'bogus'"):
        spec.with_options(decision_mode="bogus")
    with pytest.raises(BdgameError, match="unknown decision_mode"):
        AgentSystemSpec(spec.name, spec.agents, spec.world_atoms, "bogus")


def test_enumeration_caps_take_no_part_in_equality():
    spec = parse_spec('agent x {\n  atoms a\n}\n')
    capped = spec.with_options(max_decisions=3, max_profiles=5)
    assert (capped.max_decisions, capped.max_profiles) == (3, 5)
    assert spec.with_options() is spec
    assert format_spec(capped) == format_spec(spec)
    assert parse_spec(format_spec(capped)) == capped == spec
    assert hash(capped) == hash(spec)


def test_a_spec_builds_each_atom_pattern_once(monkeypatch):
    """The spec owns one table of atom patterns, keyed by position and
    width: the facts, the consequents and every rule entry's compiles,
    with antecedent atoms left free or not, draw on it, so no pattern is
    built twice."""
    spec = parse_spec(
        "option decision_mode = literal-subsets\n"
        "agent x {\n  atoms a b\n  fact p | q\n  belief a & q & r => p\n"
        "  desire b | r => q\n}\n"
        "agent y {\n  atoms c\n  belief c | p => q\n"
        "  desire true => !c -> r\n}\n"
        "world p q r\n")
    built = []
    pattern = bdgame.logic._atom_pattern

    def recording(i, n):
        built.append((i, n))
        return pattern(i, n)

    monkeypatch.setattr(bdgame.logic, "_atom_pattern", recording)
    derive_game(spec)  # every agent extension and desire report
    assert spec.mask_atoms == ("p", "q")
    # Width 2 over p and q, 3 with r free, 4 with r and a decision free.
    assert {n for _, n in built} == {2, 3, 4}
    assert len(built) == len(set(built))
