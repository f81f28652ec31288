"""Hand-picked mutants of the library, each with the tests that must kill it.

Each entry names a module of ``src/bdgame``, a source snippet that occurs
exactly once in it, the snippet's replacement, and the ids of the tests
that must fail once the replacement is made.  A refactor that deletes or
weakens such a test then shows up here.  Run the catalogue
from the repository root:

    python tests/mutants.py

For each mutant the runner copies ``src/`` to a temporary directory,
applies the mutant there, and runs its tests against the copy in a child
process with a timeout.  A mutant is killed when every test it names
fails; the runner exits 1 when any mutant survives.  The Tier-1 suite
(``tests/test_source.py``) checks only that each snippet still occurs
once and each named test still exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Per mutant.  The slowest set of named tests runs in about 9 s unmutated
# on a 2-CPU host, and the bound stays well under CI's 5-minute step, so a
# mutant that hangs is reported as SURVIVED (timed out) before the step is
# cut.
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/bdgame
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant("orders-arguments-swapped", "game.py",
           "or set_geq(worse, better, agent.priority))",
           "or set_geq(better, worse, agent.priority))",
           ("tests/test_game.py::test_orders_match_the_definition",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("up-and-down-swapped", "game.py",
           "per_agent.append([(up[ids[i]], down[ids[i]]) for i in firsts])",
           "per_agent.append([(down[ids[i]], up[ids[i]]) for i in firsts])",
           ("tests/test_game.py::test_orders_match_the_definition",
            "tests/test_differential.py::"
            "test_class_level_concepts_match_the_profile_loops")),
    Mutant("own-set-skip-dropped", "game.py",
           "enumerate(sets) if x == y\n",
           "enumerate(sets) if False\n",
           ("tests/test_game.py::"
            "test_concepts_decide_each_pair_of_unreached_sets_once",)),
    Mutant("nash-reads-the-deviated-row", "game.py",
           "elif not row >> ids[deviated] & 1:",
           "elif not geq[ids[deviated]] >> own & 1:",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",)),
    Mutant("nash-memo-keyed-by-row-alone", "game.py",
           "key = (base, own)",
           "key = base",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",)),
    Mutant("infeasible-read-as-feasible", "game.py",
           "if deviated < 0:",
           "if deviated < -1:",
           ("tests/test_differential.py::"
            "test_nash_matches_the_profile_loop_where_swaps_break_feasibility",
            )),
    Mutant("unknown-policy-read-as-skip", "game.py",
           "if infeasible_swaps not in (SKIP, FAIL):",
           "if False:",
           ("tests/test_game.py::"
            "test_an_unknown_infeasible_swaps_policy_is_refused",
            "tests/test_game.py::"
            "test_an_unknown_policy_is_refused_where_nash_is_never_asked")),
    Mutant("policy-unchecked-off-nash", "game.py",
           "    _fails_on_infeasible_swaps(infeasible_swaps)\n"
           "    if concept == PARETO:",
           "    if concept == PARETO:",
           ("tests/test_game.py::"
            "test_an_unknown_policy_is_refused_where_nash_is_never_asked",)),
    Mutant("policy-unchecked-for-the-feasible-family", "goals.py",
           "    _fails_on_infeasible_swaps(infeasible_swaps)\n"
           "    if game is None:\n"
           "        game = derive_game(spec)\n"
           "    if concept == \"all\":",
           "    if game is None:\n"
           "        game = derive_game(spec)\n"
           "    if concept == \"all\":",
           ("tests/test_game.py::"
            "test_an_unknown_policy_is_refused_where_nash_is_never_asked",)),
    Mutant("class-witnesses-expanded-through-a-shifted-index", "game.py",
           "tuple(map(per_class.__getitem__, game.class_ids))",
           "tuple(per_class[c - 1] for c in game.class_ids)",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",
            "tests/test_differential.py::"
            "test_class_level_concepts_match_the_profile_loops")),
    Mutant("solution-indexes-read-off-the-excluded", "game.py",
           "compress(count(), map(is_, self.witness, repeat(None)))",
           "compress(count(), self.witness)",
           ("tests/test_game.py::test_pareto_prisoners",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("nash-column-holds-only-the-excluded", "game.py",
           "        column.append(witness)",
           "        if witness is not None:\n"
           "            column.append(witness)",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",
            "tests/test_differential.py::"
            "test_nash_matches_the_profile_loop_where_swaps_break_feasibility",
            )),
    Mutant("game-laws-read-the-dominant-column-twice", "verify.py",
           "dominant(game).witness, nash(game).witness)):",
           "dominant(game).witness, dominant(game).witness)):",
           ("tests/test_properties.py::"
            "test_game_laws_name_a_broken_column[stale-nash]",
            "tests/test_properties.py::"
            "test_game_laws_name_a_broken_column[dominant-outside-nash]")),
    Mutant("text-solve-heads-an-empty-exclusion-list", "cli.py",
           "if len(solution.profile_indexes) < len(game.positions):",
           "if solution.witness:",
           ("tests/test_cli.py::"
            "test_text_reports_match_per_profile_formatting",)),
    Mutant("status-memo-keyed-without-values", "game.py",
           "key = base | total & bits",
           "key = base",
           ("tests/test_differential.py::"
            "test_desire_statuses_are_classified_once_per_distinct_input",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("value-code-not-scaled-by-radix", "game.py",
           "column[j] += radix * value_ids.setdefault(",
           "column[j] += value_ids.setdefault(",
           ("tests/test_differential.py::"
            "test_desire_statuses_are_classified_once_per_distinct_input",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("mask-code-not-scaled-by-radix", "game.py",
           "column[j] += radix * part_ids.setdefault(",
           "column[j] += part_ids.setdefault(",
           ("tests/test_game.py::"
            "test_joint_consistency_is_decided_once_per_part_masks",)),
    Mutant("joint-memo-keyed-by-the-whole-code", "game.py",
           "joint = joints.get(total >> offset)",
           "joint = joints.get(total)",
           ("tests/test_game.py::"
            "test_joint_consistency_is_decided_once_per_part_masks",)),
    Mutant("joint-mask-of-the-last-part-alone", "decision.py",
           "theory &= ext.models",
           "theory = ext.models",
           ("tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("joint-derived-keeps-the-base", "decision.py",
           "frozenset(derived - base)",
           "frozenset(derived)",
           ("tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary",)),
    Mutant("joint-iterations-summed", "decision.py",
           "max((ext.iterations for ext in parts), default=0)",
           "sum(ext.iterations for ext in parts)",
           ("tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary",)),
    Mutant("extension-equality-reads-the-mask", "extension.py",
           "field(default=None, compare=False, repr=False)",
           "field(default=None, repr=False)",
           ("tests/test_extension.py::"
            "test_extensions_compare_and_hash_by_their_sets_not_their_masks",
            "tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary")),
    Mutant("nesting-bound-one-level-late", "logic.py",
           "if nesting > MAX_NESTING:",
           "if nesting > MAX_NESTING + 1:",
           ("tests/test_logic.py::"
            "test_nesting_counts_parentheses_and_operators_up_to_the_bound",
            "tests/test_cli.py::"
            "test_formulas_nest_up_to_the_bound_and_no_deeper")),
    Mutant("reports-column-read-one-off", "game.py",
           "return self.reports[index].unreached(agent_id)",
           "return self.reports[index - 1].unreached(agent_id)",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",)),
    Mutant("profile-decoded-with-the-last-agent-slowest", "game.py",
           "        return DecisionProfile(tuple([\n"
           "            decisions[c // stride % radix]\n"
           "            for decisions, _, stride, radix in self._digits]))",
           "        lists = [ds for ds, _, _, _ in self._digits]\n"
           "        return DecisionProfile(tuple([\n"
           "            decisions[c // prod(map(len, lists[:k]))"
           " % len(decisions)]\n"
           "            for k, decisions in enumerate(lists)]))",
           ("tests/test_game.py::"
            "test_profile_decodes_the_candidate_digits_and_inverts_index_of",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("json-entries-read-one-report-off", "cli.py",
           "reports[i] if i >= 0 else None",
           "reports[i - 1] if i >= 0 else None",
           ("tests/test_cli.py::"
            "test_json_reports_match_one_dump_of_the_whole_report",)),
    Mutant("entries-flag-an-infeasible-candidate-consistent", "cli.py",
           "(chosen, i >= 0, ",
           "(chosen, i >= -1, ",
           ("tests/test_cli.py::"
            "test_json_reports_match_one_dump_of_the_whole_report",)),
    Mutant("entries-keep-infeasible-candidates-in-a-game-report", "cli.py",
           "candidates) if i >= 0 or not feasible_only)",
           "candidates) if i >= -1 or not feasible_only)",
           ("tests/test_cli.py::"
            "test_json_reports_match_one_dump_of_the_whole_report",)),
    Mutant("json-entries-from-the-object-view", "cli.py",
           "        lambda: _entries(game.feasible_decisions, game.candidates,"
           "\n                         game.reports))\n"
           "    return EXIT_OK\n\n\ndef _cmd_goals",
           "        lambda: _Pieces(game.feasible_decisions).entries(\n"
           "            (game.profile(i).decisions, True, report)\n"
           "            for i, report in enumerate(game.reports)))\n"
           "    return EXIT_OK\n\n\ndef _cmd_goals",
           ("tests/test_cli.py::"
            "test_json_solve_reads_the_columns_and_builds_no_profile_objects",
            )),
    Mutant("goal-based-leaves-out-the-last-part", "goals.py",
           "zip(parts[k:], wanted[k:])",
           "zip(parts[k:-1], wanted[k:-1])",
           ("tests/test_differential.py::"
            "test_goal_basedness_matches_one_entailment_per_goal",)),
    Mutant("goal-prefix-kept-when-an-earlier-agent-changed", "goals.py",
           "digits[k] == wanted[k]",
           "digits[-1] == wanted[-1]",
           ("tests/test_differential.py::"
            "test_goal_basedness_matches_one_entailment_per_goal",)),
    Mutant("negative-goal-decided-as-positive", "goals.py",
           "and not any(entailed(mask, g) for g in goals.negative))",
           "and all(entailed(mask, g) for g in goals.negative))",
           ("tests/test_differential.py::"
            "test_goal_basedness_matches_one_entailment_per_goal",
            "tests/test_goals.py::"
            "test_true_as_negative_goal_matches_nothing")),
    Mutant("models-ignore-within", "logic.py",
           "    if mask is None:\n"
           "        mask = (1 << (1 << len(universe))) - 1",
           "    mask = (1 << (1 << len(universe))) - 1",
           ("tests/test_logic.py::"
            "test_theory_masks_agree_with_assignment_enumeration",
            "tests/test_differential.py::"
            "test_goal_basedness_matches_one_entailment_per_goal")),
    Mutant("goal-mask-compiled-without-the-goal", "goals.py",
           "build((goal,))",
           "build(())",
           ("tests/test_differential.py::"
            "test_goal_basedness_matches_one_entailment_per_goal",)),
    Mutant("ranking-skips-the-first-unreached-tuple", "goals.py",
           "zip(tuples, improving)",
           "zip(tuples[1:], improving[1:])",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",
            "tests/test_differential.py::"
            "test_class_level_concepts_match_the_profile_loops")),
    Mutant("ranking-reads-each-pair-backwards", "goals.py",
           "if x != y and set_geq(y, x, agent.priority)}",
           "if x != y and set_geq(x, y, agent.priority)}",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",
            "tests/test_goals.py::test_pipeline_equivalence_on_fixtures"
            )),
    Mutant("all-family-drops-the-last-profile", "goals.py",
           "return _closure(game, range(len(game.positions)))",
           "return _closure(game, range(len(game.positions) - 1))",
           ("tests/test_differential.py::"
            "test_goals_layer_matches_the_profile_route",)),
    Mutant("family-guard-admits-the-end", "goals.py",
           "if not 0 <= i < size:",
           "if not 0 <= i <= size:",
           ("tests/test_goals.py::"
            "test_family_indexes_outside_the_game_are_refused[len]",)),
    Mutant("family-guard-admits-negative-indexes", "goals.py",
           "if not 0 <= i < size:",
           "if not i < size:",
           ("tests/test_goals.py::"
            "test_family_indexes_outside_the_game_are_refused[minus-one]",)),
    Mutant("closure-left-in-class-order", "goals.py",
           "tuple(sorted(chain.from_iterable("
           "game.classes[c] for c in wanted)))",
           "tuple(chain.from_iterable(game.classes[c] for c in wanted))",
           ("tests/test_differential.py::"
            "test_goals_layer_matches_the_profile_route",)),
    Mutant("statuses-interned-without-the-rule-number", "decision.py",
           "outcomes.append(number * 4 + code)",
           "outcomes.append(code)",
           ("tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("set-geq-early-exit-inverted", "decision.py",
           "    if not gains:\n        return False",
           "    if not gains:\n        return True",
           ("tests/test_decision.py::test_set_geq_matches_its_definition",)),
    Mutant("belief-consequents-left-out-of-the-universe", "model.py",
           "constrained |= names",
           "constrained |= names if f in agent.facts else set()",
           ("tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified",
            "tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary")),
    Mutant("free-atom-widened-at-the-bottom", "logic.py",
           "universe = tuple(world) + tuple(free)",
           "universe = tuple(free) + tuple(world)",
           ("tests/test_logic.py::"
            "test_conditioned_masks_match_enumeration_over_the_free_atoms",
            "tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified")),
    Mutant("implication-parsed-left-associative", "logic.py",
           "_nest(depth + 1, at),\n"
           "                                          strength, vocabulary)",
           "_nest(depth + 1, at),\n"
           "                                          strength + 1, vocabulary)",
           ("tests/test_logic.py::test_implication_is_right_associative",)),
    Mutant("conjunction-binds-like-disjunction", "logic.py",
           '"&": (3, And)',
           '"&": (2, And)',
           ("tests/test_logic.py::test_precedence_reference_tree",)),
    Mutant("free-atoms-leave-out-unconstrained-world-atoms", "logic.py",
           "atoms_of(f).difference(world)",
           "atoms_of(f).difference(world_atoms)",
           ("tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified",
            "tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary")),
    Mutant("entry-given-leaves-false-values-free", "logic.py",
           "for a, v in zip(self.atoms, key) if v is not None}",
           "for a, v in zip(self.atoms, key) if v}",
           ("tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary",)),
    Mutant("extension-antecedent-free-atoms-dropped", "extension.py",
           "sorted(atoms_of(r.antecedent) - inside)",
           "()",
           ("tests/test_extension.py::"
            "test_antecedent_atoms_outside_the_universe_are_quantified",)),
    Mutant("pattern-table-shared-between-widths", "logic.py",
           "if key not in patterns:\n"
           "            patterns[key] = _atom_pattern(*key)\n"
           "        return patterns[key]",
           "if key[0] not in patterns:\n"
           "            patterns[key[0]] = _atom_pattern(*key)\n"
           "        return patterns[key[0]]",
           ("tests/test_logic.py::"
            "test_a_rule_entry_fixes_the_set_atoms_and_frees_the_unset_ones",
            "tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified")),
    Mutant("pattern-built-a-width-short", "logic.py",
           "_atom_pattern(*key)",
           "_atom_pattern(key[0], key[1] - 1)",
           ("tests/test_logic.py::"
            "test_theory_masks_agree_with_assignment_enumeration",
            "tests/test_logic.py::"
            "test_conditioned_masks_match_enumeration_over_the_free_atoms")),
    Mutant("builder-patterns-per-call", "logic.py",
           "return partial(_models, _universe((), atoms, max_atoms), {})",
           "return lambda formulas, within=None: _models(\n"
           "        _universe((), atoms, max_atoms), {}, formulas, within)",
           ("tests/test_goals.py::"
            "test_a_decider_builds_each_atom_pattern_once",)),
    Mutant("spec-patterns-per-rule-entry", "model.py",
           "RuleEntry((r.antecedent,), world, world_atoms, patterns)",
           "RuleEntry((r.antecedent,), world, world_atoms, {})",
           ("tests/test_model.py::"
            "test_a_spec_builds_each_atom_pattern_once",)),
    Mutant("exists-folded-by-and", "logic.py",
           "some & low | some >> half",
           "some & low & some >> half",
           ("tests/test_logic.py::"
            "test_conditioned_masks_match_enumeration_over_the_free_atoms",
            "tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified")),
    Mutant("violation-read-off-the-every-mask", "decision.py",
           "code = _UNREACHED if theory & possible else _VIOLATED",
           "code = _UNREACHED if theory & consequent else _VIOLATED",
           ("tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified",
            "tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary")),
    Mutant("antecedent-entailment-read-as-overlap", "decision.py",
           "if theory & antecedent != theory:",
           "if not theory & antecedent:",
           ("tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified",
            "tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary")),
    Mutant("fact-consequent-skip-inverted", "model.py",
           "for r in agent.beliefs if r.consequent not in facts)",
           "for r in agent.beliefs if r.consequent in facts)",
           ("tests/test_differential.py::"
            "test_world_atoms_no_theory_constrains_are_quantified",
            "tests/test_differential.py::"
            "test_conditioned_route_matches_the_full_vocabulary")),
    Mutant("feasible-check-drops-its-violations", "goals.py",
           "violations.append(RepresentationViolation(\n"
           "                    \"member-without-goal-set\", profile, None,",
           "(RepresentationViolation(\n"
           "                    \"member-without-goal-set\", profile, None,",
           ("tests/test_goals.py::"
            "test_the_feasible_check_reports_a_profile_without_goal_sets",)),
    Mutant("goal-set-built-per-profile", "game.py",
           "return tuple(read[id(report)] for report in self.reports)",
           "return tuple(GoalSet(read[id(report)].positive, "
           "read[id(report)].negative) for report in self.reports)",
           ("tests/test_goals.py::test_each_goal_set_is_built_once_per_game",
            )),
)


def survivors(mutant: Mutant) -> list[str]:
    """The named tests that do not fail under the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "bdgame" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet occurs "
                             f"{text.count(mutant.snippet)} times")
        path.write_text(text.replace(mutant.snippet, mutant.replacement),
                        encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"{test} (timed out after {TIMEOUT_S} s)"
                    for test in mutant.tests]
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("FAILED ")}
    return [test for test in mutant.tests if test not in failed]


def main() -> int:
    alive = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        left = survivors(mutant)
        alive += bool(left)
        print(f"{'SURVIVED' if left else 'killed'} {mutant.name} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        for test in left:
            print(f"  did not fail: {test}", flush=True)
    print(f"{alive} of {len(MUTANTS)} mutants survived")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
