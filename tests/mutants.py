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
    Mutant("nash-fail-branch-read-as-skip", "game.py",
           "                if fail_infeasible_swaps:\n",
           "                if False:\n",
           ("tests/test_game.py::test_nash_infeasible_swaps_policies",
            "tests/test_differential.py::"
            "test_nash_matches_the_profile_loop_where_swaps_break_feasibility",
            )),
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
           "return u_closure(game, range(len(game.positions)))",
           "return u_closure(game, range(len(game.positions) - 1))",
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
    Mutant("closure-reads-indexes-unchecked", "goals.py",
           "wanted = {game.class_ids[i] for i in _members(game, indexes)}",
           "wanted = {game.class_ids[i] for i in indexes}",
           ("tests/test_goals.py::"
            "test_family_indexes_outside_the_game_are_refused[minus-one]",
            "tests/test_goals.py::"
            "test_family_indexes_outside_the_game_are_refused[len]")),
    Mutant("goal-based-reads-its-index-unchecked", "goals.py",
           "return _goal_decider(game)(*_members(game, (index,)), goals)",
           "return _goal_decider(game)(index, goals)",
           ("tests/test_goals.py::"
            "test_family_indexes_outside_the_game_are_refused[minus-one]",
            "tests/test_goals.py::"
            "test_family_indexes_outside_the_game_are_refused[len]")),
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
    Mutant("ranks-compared-weakly", "model.py",
           "return ranks.get(first, 0) > ranks.get(second, 0)",
           "return ranks.get(first, 0) >= ranks.get(second, 0)",
           ("tests/test_decision.py::test_priority_pair",
            "tests/test_decision.py::test_set_geq_matches_its_definition")),
    Mutant("priority-keyword-printed-the-other-way", "model.py",
           "{IDENTITY if ranks is None else RANKED}",
           "{RANKED if ranks is None else IDENTITY}",
           ("tests/test_model.py::"
            "test_print_parse_identity_on_fixtures[single_agent_priorities]",
            "tests/test_model.py::"
            "test_orders_built_in_the_library_print_and_parse_back[identity]",
            "tests/test_model.py::"
            "test_orders_built_in_the_library_print_and_parse_back"
            "[tie-free]")),
    Mutant("foreign-ranks-unchecked", "model.py",
           "foreign = sorted((self.priority.ranks or {}).keys()",
           "foreign = sorted({}.keys()",
           ("tests/test_model.py::test_cross_agent_priority_refused",
            "tests/test_model.py::"
            "test_an_edit_the_parser_refuses_is_refused_when_built"
            "[foreign-ranks]")),
    Mutant("profile-comparison-better-and-worse-swapped", "decision.py",
           "    if at_least:\n"
           "        return ProfileComparison.BETTER\n"
           "    if at_most:\n"
           "        return ProfileComparison.WORSE",
           "    if at_least:\n"
           "        return ProfileComparison.WORSE\n"
           "    if at_most:\n"
           "        return ProfileComparison.BETTER",
           ("tests/test_decision.py::test_smaller_unreached_set_wins",
            "tests/test_decision.py::test_opposed_interests_chains")),
    Mutant("check-reads-every-flag", "cli.py",
           "if value is not None and flag not in _CHECK_FLAGS[prop]:",
           "if False:",
           ("tests/test_cli.py::"
            "test_a_check_property_refuses_the_flags_it_does_not_read"
            "[order-laws-seed]",)),
    Mutant("belief-consequents-left-out-of-the-universe", "model.py",
           "constrained |= atoms_of(f)",
           "constrained |= atoms_of(f) if f in agent.facts else set()",
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
    Mutant("extension-failing-masks-not-complemented", "extension.py",
           "failing = tuple(full ^ build((r.antecedent,)) for r in rules)",
           "failing = tuple(build((r.antecedent,)) for r in rules)",
           ("tests/test_extension.py::test_extension_chains_in_two_rounds",
            "tests/test_extension.py::"
            "test_iterative_and_intersection_routes_agree_exhaustively")),
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
    Mutant("duplicate-atom-let-through", "model.py",
           "        if atom in vocabulary:\n",
           "        if False:\n",
           ("tests/test_logic.py::test_duplicate_atom_rejected",
            "tests/test_model.py::"
            "test_atom_declarations_name_their_line[world-twice]")),
    Mutant("unknown-atom-read-as-world", "model.py",
           "owners = [self.vocabulary[name] for name in atoms_of(f)]",
           "owners = [self.vocabulary.get(name) for name in atoms_of(f)]",
           ("tests/test_logic.py::test_decision_atom_breaks_world_language",)),
    Mutant("duplicate-agent-let-through", "model.py",
           "    if name in taken:\n",
           "    if name in taken and kind != \"agent\":\n",
           ("tests/test_model.py::test_duplicate_agent_rejected",
            "tests/test_model.py::"
            "test_an_edit_the_parser_refuses_is_refused_when_built"
            "[duplicate-agent]")),
    Mutant("duplicate-rule-id-let-through", "model.py",
           "    if name in taken:\n",
           "    if name in taken and kind != \"rule id\":\n",
           ("tests/test_model.py::test_duplicate_rule_id_rejected",
            "tests/test_model.py::"
            "test_an_edit_the_parser_refuses_is_refused_when_built"
            "[duplicate-rule-id]")),
    Mutant("undeclared-spec-atom-let-through", "model.py",
           "undeclared = used.difference(vocabulary)",
           "undeclared = ()",
           ("tests/test_model.py::"
            "test_an_undeclared_world_formula_atom_is_refused[fact]",
            "tests/test_model.py::"
            "test_an_undeclared_world_formula_atom_is_refused"
            "[belief-antecedent]",
            "tests/test_model.py::"
            "test_an_undeclared_world_formula_atom_is_refused"
            "[desire-consequent]")),
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
    Mutant("representation-column-read-off-the-next-profile", "verify.py",
           "held = [decide(i, gs) for i, gs in enumerate(game.goal_sets)]",
           "held = [decide(i, gs) for i, gs in enumerate(\n"
           "        game.goal_sets[1:] + game.goal_sets[:1])]",
           ("tests/test_goals.py::"
            "test_representation_decides_each_profile_and_goal_set_once",
            "tests/test_goals.py::"
            "test_a_game_derived_inside_honours_the_spec_caps")),
    Mutant("representation-check-asks-the-previous-goal-set", "goals.py",
           "lambda i: decide(i, game.goal_sets[i]))",
           "lambda i: decide(i, game.goal_sets[i - 1]))",
           ("tests/test_goals.py::test_prisoners_nash_family_representation",
            "tests/test_differential.py::"
            "test_goals_layer_matches_the_profile_route")),
    Mutant("feasible-fallback-retries-only-its-own-goal-set", "goals.py",
           "if gs != own)",
           "if gs == own)",
           ("tests/test_goals.py::"
            "test_feasible_check_tries_every_goal_set_of_the_class",)),
    Mutant("feasible-fallback-asks-its-own-goal-set-again", "goals.py",
           "if gs != own)",
           "if True)",
           ("tests/test_goals.py::"
            "test_feasible_check_tries_every_goal_set_of_the_class",)),
    Mutant("nash-else-pareto-never-falls-back", "goals.py",
           "return family or concept_family(game, PARETO)",
           "return family",
           ("tests/test_goals.py::"
            "test_nash_else_pareto_keeps_nash_or_falls_back_to_pareto"
            "[pennies-falls-back-to-pareto]",)),
    Mutant("nash-else-pareto-always-falls-back", "goals.py",
           "return family or concept_family(game, PARETO)",
           "return concept_family(game, PARETO)",
           ("tests/test_goals.py::"
            "test_nash_else_pareto_keeps_nash_or_falls_back_to_pareto"
            "[coin-keeps-nash]",
            "tests/test_goals.py::test_nash_else_pareto_prisoners")),
    Mutant("via-goals-family-unchecked", "cli.py",
           "if args.via_goals and family_name not in",
           "if False and family_name not in",
           ("tests/test_cli.py::"
            "test_goals_refuses_a_via_goals_family_before_deriving_the_game",
            )),
    Mutant("cli-fail-mapping-inverted", "cli.py",
           'return args.infeasible_swaps == "fail"',
           'return args.infeasible_swaps != "fail"',
           ("tests/test_cli.py::"
            "test_the_moved_flags_change_the_output_where_they_are_read",
            "tests/test_cli.py::"
            "test_nash_else_pareto_follows_the_infeasible_swaps_policy"
            "[fail-pareto family: 3 profiles]")),
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
    failed = failed_ids(run.stdout)
    return [test for test in mutant.tests if test not in failed]


def failed_ids(stdout: str) -> set[str]:
    """The test ids of pytest's ``FAILED`` lines (``-rf``): each id runs up
    to the `` - `` before the error, and a parametrized id may hold spaces."""
    return {line[len("FAILED "):].split(" - ", 1)[0]
            for line in stdout.splitlines() if line.startswith("FAILED ")}


def main() -> int:
    alive = 0
    began = time.perf_counter()
    for mutant in MUTANTS:
        start = time.perf_counter()
        left = survivors(mutant)
        alive += bool(left)
        print(f"{'SURVIVED' if left else 'killed'} {mutant.name} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        for test in left:
            print(f"  did not fail: {test}", flush=True)
    print(f"{alive} of {len(MUTANTS)} mutants survived in "
          f"{time.perf_counter() - began:.1f} s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
