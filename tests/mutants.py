"""Mutation checks: every mutant must be killed by the tests it names.

A mutant is one exact edit of one file of the checkout: a snippet that
occurs exactly once in the file and its replacement.  For each mutant the
runner copies the checkout (without .git and caches) into a temporary
directory, applies the edit there and runs each named test on its own
with ``python -m pytest``; the mutant is killed when every named test
fails (pytest exit code 1).  Before any mutant, the named tests are run on
an unmutated copy and must pass, so a test that fails anyway kills
nothing.  A snippet that is missing or repeated, a mutant under which
pytest cannot collect, and a mutant that survives each make the run exit 1.

Run from the root of a checkout, with pytest and hypothesis installed:

    python tests/mutants.py                 # every mutant
    python tests/mutants.py "<name>" ...    # the mutants with these names

The runner itself needs only the standard library.  It is not a test
module, so the tier-1 run does not collect it.  The tests that kill the
CPU placement mutants skip, and so pass, where fewer than two CPUs are
usable, so there those mutants survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "the grid rows skip their shape check",
        "src/geodenums/wz.py",
        "if not (isinstance(row, tuple) and len(row) == 2 and isinstance(row[1], shape)):",
        "if False:",
        (
            "tests/test_wz.py::"
            "test_a_row_description_not_of_the_numerators_denominator_shape_is_an_error_not_a_pass",
        ),
    ),
    Mutant(
        "wz._f2 puts its row over n + 1",
        "src/geodenums/wz.py",
        "return _row(0, n, a * n, (a - 1) * n + 1, n + 1), n\n",
        "return _row(0, n, a * n, (a - 1) * n + 1, n + 1), n + 1\n",
        (
            "tests/test_wz.py::test_summand_rows_match_their_closed_forms",
            "tests/test_wz.py::test_check_wz1_passes",
            "tests/test_golden.py::test_report_equals_its_golden_digest[wz2]",
        ),
    ),
    Mutant(
        "wz._f2 triples its numerators at a != 2",
        "src/geodenums/wz.py",
        "return _row(0, n, a * n, (a - 1) * n + 1, n + 1), n\n",
        "return [3 ** (a != 2) * x for x in _row(0, n, a * n, (a - 1) * n + 1, n + 1)], n\n",
        (
            "tests/test_wz.py::test_check_wz2_passes",
            "tests/test_golden.py::test_report_equals_its_golden_digest[wz2]",
        ),
    ),
    Mutant(
        "the relation drops R's denominator",
        "src/geodenums/wz.py",
        "fn * (rden + rn)",
        "fn * (1 + rn)",
        (
            "tests/test_wz.py::test_check_wz1_passes",
            "tests/test_wz.py::test_the_pair_relation_reports_the_first_break_of_the_reference",
        ),
    ),
    Mutant(
        "the relation skips the boundary entry",
        "src/geodenums/wz.py",
        "if left == h[1:]:",
        "if left[:-1] == h[1:-1]:",
        ("tests/test_wz.py::test_the_pair_relation_reads_its_boundary",),
    ),
    Mutant(
        "the shifted binomial sum takes the lower index n, not n - 1",
        "src/geodenums/identities.py",
        "binom_general(size + n + x, n - 1)",
        "binom_general(size + n + x, n)",
        (
            "tests/test_identities.py::test_sums_match_a_per_vector_fraction_evaluation",
            "tests/test_identities.py::test_main_sum_grid",
            "tests/test_identities.py::test_the_lower_index_forms_are_the_shifted_kernel",
            "tests/test_golden.py::test_report_equals_its_golden_digest[eq31 --max-n 8 --max-a 4]",
        ),
    ),
    Mutant(
        "eq31 builds its combined mass from the length-n mass twice",
        "src/geodenums/identities.py",
        "[0] * (2 * a) + size_mass(n - 1, a)",
        "[0] * (2 * a) + size_mass(n, a)",
        (
            "tests/test_identities.py::test_main_sum_grid",
            "tests/test_identities.py::test_main_sum_is_the_single_loop",
            "tests/test_golden.py::test_report_equals_its_golden_digest[eq31 --max-n 8 --max-a 4]",
            "tests/test_golden.py::test_report_equals_its_golden_digest[all]",
        ),
    ),
    Mutant(
        "claims reads eq33 off the length-n mass",
        "src/geodenums/verify.py",
        '("eq33", masses[1], 2 * a, power)',
        '("eq33", masses[0], 2 * a, power)',
        (
            "tests/test_golden.py::test_report_equals_its_golden_digest[claims --max-n 8 --max-a 3]",
            "tests/test_golden.py::test_report_equals_its_golden_digest[all]",
        ),
    ),
    Mutant(
        "eval_alternating evaluates at c = (-1, ..., -1)",
        "src/geodenums/geode.py",
        "return eval_general(a, (1,) * a, max_order)",
        "return eval_general(a, (-1,) * a, max_order)",
        (
            "tests/test_geode.py::test_eval_alternating_small",
            "tests/test_geode.py::test_eval_alternating_is_eval_general_at_all_ones",
            "tests/test_golden.py::test_report_equals_its_golden_digest[all]",
        ),
    ),
    Mutant(
        "hypercat._exact_div divides in floats",
        "src/geodenums/hypercat.py",
        "q, rem = divmod(num, den)",
        "q, rem = int(num / den), num % den",
        (
            "tests/test_layering.py::"
            "test_no_module_takes_a_true_division_or_a_float_outside_the_case_timing",
        ),
    ),
    Mutant(
        "wz._row steps by a ratio off by one",
        "src/geodenums/wz.py",
        "((j - 1 - p) * (q + j))",
        "((j - 1 - p) * (q + j + 1))",
        (
            "tests/test_wz.py::test_binomial_rows_match_comb",
            "tests/test_wz.py::test_summand_rows_match_their_closed_forms",
            "tests/test_wz.py::test_check_wz1_passes",
        ),
    ),
    Mutant(
        "wz._row shifts the sign alternation",
        "src/geodenums/wz.py",
        "value = (-1) ** parity * comb(q, b)",
        "value = (-1) ** (parity + 1) * comb(q, b)",
        (
            "tests/test_wz.py::test_binomial_rows_match_comb",
            "tests/test_wz.py::test_summand_rows_match_their_closed_forms",
            "tests/test_wz.py::test_check_certificate_passes_and_names_orientation",
        ),
    ),
    Mutant(
        "mpoly._layer_product doubles the pairs of equal keys",
        "src/geodenums/mpoly.py",
        "out[key] = get(key, 0) + ca * cb",
        "out[key] = get(key, 0) + ca * cb * (2 if pa == pb else 1)",
        (
            "tests/test_mpoly.py::test_mul_commutative_and_matches_naive",
            "tests/test_geode.py::test_factorization_invariant",
            "tests/test_acceptance.py::test_10_oracle_self_consistency",
        ),
    ),
    Mutant(
        "the table writer skips its key comparison",
        "src/geodenums/cli.py",
        "if [key for key, _ in layer] != keys:",
        "if False:",
        (
            "tests/test_cli.py::test_table_raises_on_a_term_outside_its_layer",
            "tests/test_cli.py::test_table_raises_on_a_layer_out_of_lexicographic_order",
        ),
    ),
    Mutant(
        "mpoly._layer_labels runs the first nonzero exponent the wrong way",
        "src/geodenums/mpoly.py",
        "for a in range(1, d + 1)",
        "for a in range(d, 0, -1)",
        (
            "tests/test_mpoly.py::test_layer_labels_list_every_monomial_of_each_degree_in_lexicographic_order",
            "tests/test_golden.py::test_table_equals_its_golden_digest",
        ),
    ),
    Mutant(
        "report.Handle forgets the exception of a build",
        "src/geodenums/report.py",
        "self.outcome = (None, exc)",
        "raise",
        ("tests/test_cli.py::test_a_broken_kernel_costs_cases_not_the_report",),
    ),
    Mutant(
        "recording a case reads its actual side",
        "src/geodenums/report.py",
        "        self.cases.append(Case(case_id, dict(params), expected, actual))\n",
        "        self.cases.append(Case(case_id, dict(params), expected, actual))\n"
        "        actual()\n",
        (
            "tests/test_cli.py::test_planning_calls_no_kernel_and_runs_no_case[thm1]",
            "tests/test_cli.py::test_verify_refuses_oversize_grid_work_at_once"
            f"[eq31 --max-n {10**30}]",
        ),
    ),
    Mutant(
        "run keeps a case's actual side",
        "src/geodenums/report.py",
        "                case.actual, case.status = text, PASS if ok else FAIL\n",
        "                case.status = PASS if ok else FAIL\n",
        (
            "tests/test_cli.py::test_a_units_handles_are_released_once_its_cases_ran",
            "tests/test_cli.py::test_a_helper_runs_exactly_its_dealt_share_and_sends_its_cases_back",
        ),
    ),
    Mutant(
        "run compares the two sides with `is`",
        "src/geodenums/report.py",
        "ok, text = value == expected, str(value)",
        "ok, text = value is expected, str(value)",
        (
            "tests/test_golden.py::test_report_equals_its_golden_digest[thm1 --max-degree 40]",
            "tests/test_golden.py::test_report_equals_its_golden_digest[claims --max-n 8 --max-a 3]",
        ),
    ),
    Mutant(
        "verify helper skips its pin",
        "src/geodenums/verify.py",
        "_pin((cpu,))",
        "pass",
        ("tests/test_cli.py::test_the_command_and_each_helper_run_on_a_cpu_of_their_own",),
    ),
    Mutant(
        "the deal gives every unit to the command's process",
        "src/geodenums/verify.py",
        "shares[proc].append(index)",
        "shares[0].append(index)",
        (
            "tests/test_cli.py::test_the_deal_gives_each_unit_one_process_and_evens_out_their_work",
            "tests/test_cli.py::test_a_helper_runs_exactly_its_dealt_share_and_sends_its_cases_back",
        ),
    ),
    Mutant(
        "the deal breaks ties by process number alone",
        "src/geodenums/verify.py",
        "(dealt + work, count + 1, proc)",
        "(dealt + work, 0, proc)",
        (
            "tests/test_cli.py::test_the_deal_spreads_units_of_equal_work_evenly",
            "tests/test_cli.py::test_the_command_and_each_helper_run_on_a_cpu_of_their_own",
            "tests/test_cli.py::test_the_commands_mask_is_restored_on_every_path[helper dies]",
        ),
    ),
    Mutant(
        "verify never restores the command's mask",
        "src/geodenums/verify.py",
        "_pin(mask)",
        "pass",
        ("tests/test_cli.py::test_the_commands_mask_is_restored_on_every_path",),
    ),
    Mutant(
        "the factorization check is priced at its table's degree",
        "src/geodenums/geode.py",
        "solve = solve_work(r, max_degree + 1)",
        "solve = solve_work(r, max_degree)",
        (
            "tests/test_cli.py::test_solves_list_every_solve_the_suite_makes"
            "[oracle --max-vars 2 --max-degree 3]",
            "tests/test_cli.py::test_verify_all_at_default_bounds_is_admitted",
        ),
    ),
    Mutant(
        "the list loop seeds G with 1 where it should seed j",
        "src/geodenums/hypercat.py",
        "list(range(1, top + 1)) if geode else [1] * top",
        "[1] * top",
        (
            "tests/test_golden.py::test_table_equals_its_golden_digest"
            "[table --kind G --vars 1 --max-degree 7 --format json]",
            "tests/test_geode.py::test_geode_layers_equal_s_solved_one_degree_up_and_divided",
        ),
    ),
    Mutant(
        "the lane loop seeds G with 1 where it should seed j",
        "src/geodenums/hypercat.py",
        "_lane_sums(ones, width, top) if geode else list(ones.items())",
        "list(ones.items())",
        (
            "tests/test_golden.py::test_table_equals_its_golden_digest"
            "[table --kind G --vars 2 --max-degree 8 --format json]",
            "tests/test_geode.py::test_geode_layers_equal_s_solved_one_degree_up_and_divided",
        ),
    ),
    Mutant(
        "the lanes are half as wide as the coefficient bound",
        "src/geodenums/hypercat.py",
        "* size**max_degree).bit_length()",
        "* size**max_degree).bit_length() // 2",
        (
            "tests/test_hypercat.py::test_the_lane_loop_and_the_list_loop_return_equal_layers",
            "tests/test_golden.py::test_table_equals_its_golden_digest"
            "[table --kind S --vars 4 --max-degree 10 --format csv]",
        ),
    ),
    Mutant(
        "the lane prefix sums drop one doubling step",
        "src/geodenums/hypercat.py",
        "range((count - 1).bit_length())",
        "range((count - 1).bit_length() - 1)",
        (
            "tests/test_hypercat.py::test_the_lane_loop_and_the_list_loop_return_equal_layers",
            "tests/test_golden.py::test_table_equals_its_golden_digest"
            "[table --kind S --vars 4 --max-degree 10 --format csv]",
        ),
    ),
    Mutant(
        "a window kept for a k outside T",
        "src/geodenums/hypercat.py",
        "windows = [(1 << (i * shift), k) for i, k in enumerate(slots)]\n",
        "windows = [(1 << (i * shift), k) for i, k in enumerate(slots)]"
        " + [(1, k) for k in range(1, slots[-1]) if k not in slots]\n",
        (
            "tests/test_properties.py::test_a_support_table_is_the_restriction_of_the_full_table",
            "tests/test_cli.py::test_coeff_g_solves_on_the_support_of_m",
            "tests/test_golden.py::test_report_equals_its_golden_digest[all]",
        ),
    ),
    Mutant(
        "a line weight dropped",
        "src/geodenums/geode.py",
        "for k, w in enumerate(weights, start=1):",
        "for k, w in enumerate(weights[:-1], start=1):",
        (
            "tests/test_properties.py::test_a_line_solve_is_the_table_substituted",
            "tests/test_golden.py::test_report_equals_its_golden_digest[all]",
        ),
    ),
    Mutant(
        "the residual prices no products",
        "src/geodenums/hypercat.py",
        "pairs = r * comb(2 * r + max_degree - 1, 2 * r)",
        "pairs = 0",
        ("tests/test_cli.py::test_verify_refuses_oversize_oracle_work[oracle --max-degree 22]",),
    ),
    Mutant(
        "a wz row price ignores n",
        "src/geodenums/wz.py",
        "    t = n * ((a * n + n).bit_length() + a.bit_length() + 3)\n",
        "    n = 200\n    t = n * ((a * n + n).bit_length() + a.bit_length() + 3)\n",
        (
            "tests/test_cli.py::test_grid_flag_is_admitted_up_to_where_its_price_passes_the_limit"
            "[wz1 --max-n]",
        ),
    ),
    Mutant(
        "eq31 calls partition_sum_main outside its handle",
        "src/geodenums/verify.py",
        "a ** (n - 1), total)",
        "identities.partition_sum_main(n, a), total)",
        (
            "tests/test_cli.py::test_every_priced_call_is_made_in_a_handles_build_inside_a_case"
            "[eq31 --max-n 2]",
        ),
    ),
    Mutant(
        "the two-slot unit compares its closed form with itself instead of the oracle",
        "src/geodenums/verify.py",
        "closed, Handle(coeff, (table, (p, q))))",
        "closed, closed)",
        (
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[thm1-geodenums.geode-geode_closed_shifted-bounds0]",
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[thm2-geodenums.geode-geode_closed_shifted-bounds1]",
            "tests/test_cli.py::test_a_case_fails_only_where_one_of_its_routes_is_perturbed[thm2]",
        ),
    ),
    Mutant(
        "the two-slot unit reads the table at (q, p)",
        "src/geodenums/verify.py",
        "closed, Handle(coeff, (table, (p, q))))",
        "closed, Handle(coeff, (table, (q, p))))",
        (
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[thm1-geodenums.geode-geode_closed_shifted-bounds0]",
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[thm2-geodenums.geode-geode_closed_shifted-bounds1]",
        ),
    ),
    Mutant(
        "two-nonzero compares its closed form with itself instead of the oracle",
        "src/geodenums/verify.py",
        "if closed() != coeff(table(), exps):",
        "if closed() != closed():",
        (
            "tests/test_cli.py::test_a_case_fails_only_where_one_of_its_routes_is_perturbed"
            "[two-nonzero-oracle]",
        ),
    ),
    Mutant(
        "thm3 compares a**n with itself, not the alternating evaluation",
        "src/geodenums/verify.py",
        "Handle(UnivariateSeries.coefficient, (values, n))",
        "Handle(int, (a**n,))",
        ("tests/test_cli.py::test_suite_fails_when_a_weight_or_the_residual_is_perturbed[thm3]",),
    ),
    Mutant(
        "eq31 compares a**(n-1) with itself, not the partition sum",
        "src/geodenums/verify.py",
        "a ** (n - 1), total)",
        "a ** (n - 1), Handle(int, (a ** (n - 1),)))",
        (
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[eq31-geodenums.identities-partition_sum_main-bounds3]",
        ),
    ),
    Mutant(
        "claims compares a**(n-1) with itself, not the ct coefficient",
        "src/geodenums/verify.py",
        "power, ct)",
        "power, Handle(int, (power,)))",
        (
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[claims-geodenums.identities-ct_coefficient-bounds4]",
        ),
    ),
    Mutant(
        "recurrence compares the sum of G with itself, not C[m]",
        "src/geodenums/geode.py",
        "return total == hyper_catalan(m)",
        "return total == total",
        (
            "tests/test_cli.py::test_suite_fails_when_one_side_is_perturbed"
            "[recurrence-geodenums.geode-hyper_catalan-bounds6]",
        ),
    ),
    Mutant(
        "recurrence reads G[m] in place of G[m - e_k]",
        "src/geodenums/geode.py",
        "total += terms.get(m[:k] + (e - 1,) + m[k + 1 :], 0)",
        "total += terms.get(m, 0)",
        (
            "tests/test_geode.py::test_recurrence_examples",
            "tests/test_acceptance.py::test_07_recurrence_layers",
        ),
    ),
    Mutant(
        "general-eval compares its coefficients with themselves, not base**n",
        "src/geodenums/verify.py",
        "return actual == [base**n for n in range(order + 1)], str(actual)",
        "return actual == actual, str(actual)",
        (
            "tests/test_cli.py::test_suite_fails_when_a_weight_or_the_residual_is_perturbed"
            "[general-eval-c=(3)]",
        ),
    ),
    Mutant(
        "oracle compares the residual with itself, not zero",
        "src/geodenums/verify.py",
        "lambda: (zero().is_zero(), ",
        "lambda: (zero() == zero(), ",
        ("tests/test_cli.py::test_suite_fails_when_a_weight_or_the_residual_is_perturbed[oracle]",),
    ),
    Mutant(
        "certificate compares the summand's sum with itself, not 1",
        "src/geodenums/verify.py",
        "if sum(nums) != den:",
        "if sum(nums) != sum(nums):",
        ("tests/test_wz.py::test_sum_checks_catch_what_the_relations_do_not",),
    ),
    Mutant(
        "the division skips its re-multiplication check",
        "src/geodenums/mpoly.py",
        "    if mismatch is not None:\n",
        "    if False:\n",
        (
            "tests/test_mpoly.py::test_divide_single_variable_not_divisible",
            "tests/test_properties.py::test_stray_monomial_makes_division_fail_at_its_first_mismatch",
        ),
    ),
    Mutant(
        "the division solves each degree in ascending order",
        "src/geodenums/mpoly.py",
        "for m in reversed(list(iter_exponents(r, d))):",
        "for m in iter_exponents(r, d):",
        (
            "tests/test_geode.py::test_geode_layers_equal_s_solved_one_degree_up_and_divided",
            "tests/test_mpoly.py::test_divide_cubic_layer",
        ),
    ),
    Mutant(
        "a flag one below its minimum is admitted",
        "src/geodenums/verify.py",
        "if value is not None and value < minimum:",
        "if value is not None and value < minimum - 1:",
        (
            "tests/test_cli.py::test_verify_rejects_out_of_range_bounds[wz2 --a 1]",
            "tests/test_cli.py::test_verify_rejects_out_of_range_bounds[wz1 --max-n 0]",
        ),
    ),
    Mutant(
        "a suite's budget admits 2 * MAX_WORK",
        "src/geodenums/verify.py",
        "if spent > MAX_WORK:",
        "if spent > 2 * MAX_WORK:",
        (
            "tests/test_cli.py::test_verify_refuses_a_suite_once_its_summed_work_passes_the_limit",
            "tests/test_cli.py::test_grid_flag_is_admitted_up_to_where_its_price_passes_the_limit"
            "[wz1 --max-n]",
        ),
    ),
    Mutant(
        "hypercat._exact_div ignores its remainder",
        "src/geodenums/hypercat.py",
        "    if rem:\n        raise ArithmeticError",
        "    if False:\n        raise ArithmeticError",
        ("tests/test_geode.py::test_exact_div_refuses_a_remainder",),
    ),
    Mutant(
        "a tiny request forks a helper",
        "src/geodenums/verify.py",
        "sum(works) > _FORK_WORK",
        "sum(works) >= 0",
        (
            "tests/test_cli.py::test_a_request_forks_only_for_work_above_the_fork_work"
            "[eq31 --max-n 8 --max-a 4-False]",
        ),
    ),
]

IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info"
)


def _copy(directory: Path) -> Path:
    """A copy of the checkout inside `directory`."""
    copy = directory / "checkout"
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    return copy


def _pytest(copy: Path, test: str) -> int:
    """The exit code of pytest running the one test `test` in `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode


def _apply(copy: Path, mutant: Mutant) -> None:
    """Replace the one occurrence of the mutant's snippet in `copy`."""
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        clean = _copy(Path(scratch) / "clean")
        for test in dict.fromkeys(t for m in chosen for t in m.tests):
            code = _pytest(clean, test)
            if code:
                print(f"FAILS UNMUTATED: {test} (pytest exit {code})")
                bad += 1
        if bad:
            return 1
        for index, mutant in enumerate(chosen):
            copy = _copy(Path(scratch) / f"mutant-{index}")
            try:
                _apply(copy, mutant)
            except ValueError as exc:
                print(f"NOT APPLIED: {exc}")
                bad += 1
                continue
            codes = {test: _pytest(copy, test) for test in mutant.tests}
            passed = [t for t, c in codes.items() if c == 0]
            broken = [f"{t} (pytest exit {c})" for t, c in codes.items() if c not in (0, 1)]
            if passed or broken:
                bad += 1
                for test in passed:
                    print(f"SURVIVED: {mutant.name}: {test} passes")
                for test in broken:
                    print(f"BROKEN: {mutant.name}: {test}")
            else:
                print(f"killed: {mutant.name} (all {len(codes)} tests fail)")
            shutil.rmtree(copy)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
