"""The public API stays put: the names each module defines and the names the
package re-exports.  Private helpers (leading underscore) are free to change.
"""

import __future__
import importlib
import pkgutil
import types

import triparts

MODULE_NAMES = {
    "cli": [
        "build_parser", "cmd_count", "cmd_cycles", "cmd_decompose",
        "cmd_histogram", "cmd_hstar", "cmd_rectangle", "cmd_residues",
        "cmd_tile", "cmd_verify", "main", "render_tiling_svg",
    ],
    "congruence": [
        "ResidueCharacterization", "VerifyReport", "characterize",
        "is_divisible", "is_prime", "non_witnessed_residues", "residues_neg",
        "residues_pos", "sqrt_minus3", "verify_characterization",
    ],
    "cranks": [
        "AffineMap2", "CoverReport", "CrankHistogram", "CycleDecomposition",
        "DIRECTIONS", "RectanglePlan", "arrangement_2m_minus_2",
        "build_arrangement", "c_ls", "c_ls_histogram", "c_ls_histograms",
        "case_labels", "closed_form_table", "cycle_decomposition",
        "cycle_lengths", "ehrhart_crank", "ehrhart_crank_closed_form",
        "histogram", "is_uniform", "normalize_case_label",
        "permutation_cycles", "plan_crank", "plan_for", "plan_table",
        "rectangle_cycle_step", "row_permutation", "step_deltas", "step_f",
        "table_histogram", "vertex_crank_values",
    ],
    "ehrhart": [
        "GENERATORS", "V3", "box_compose", "box_decompose",
        "check_box_bijection", "fundamental_points", "h_star",
        "h_star_from_gf", "in_fundamental_box", "row_classes",
        "tile_partition_triangle", "triangle", "v3_apply", "v3_solve",
    ],
    "partitions": [
        "check_partition", "column_multiplicities", "count_bruteforce",
        "enumerate_partitions", "height", "is_partition3",
        "mult_to_partition",
    ],
    "quasipoly": [
        "BINOMIAL_TRIPLES", "MONOMIAL_TABLE", "QuasiPolyResult", "evaluate",
        "p3_binomial", "p3_circulator", "p3_monomial", "p3_nearest",
    ],
}

PACKAGE_NAMES = [
    "AffineMap2", "GENERATORS", "RectanglePlan", "V3",
    "arrangement_2m_minus_2", "box_compose", "box_decompose",
    "build_arrangement", "c_ls", "c_ls_histogram", "c_ls_histograms",
    "column_multiplicities", "count_bruteforce", "cycle_decomposition",
    "ehrhart_crank", "ehrhart_crank_closed_form", "enumerate_partitions",
    "evaluate", "fundamental_points", "h_star", "h_star_from_gf",
    "histogram", "is_divisible", "mult_to_partition", "p3_binomial",
    "p3_circulator", "p3_monomial", "p3_nearest", "rectangle_cycle_step",
    "residues_neg", "residues_pos", "sqrt_minus3", "step_deltas", "step_f",
    "tile_partition_triangle", "triangle", "verify_characterization",
    "vertex_crank_values",
]


def _public(mod):
    return {name: value for name, value in vars(mod).items()
            if not name.startswith("_")
            and not isinstance(value, (types.ModuleType, __future__._Feature))}


def _defined_names(mod):
    """Functions and classes defined in mod, plus its module-level
    constants; callables imported from elsewhere are left out."""
    return sorted(name for name, value in _public(mod).items()
                  if not callable(value)
                  or getattr(value, "__module__", None) == mod.__name__)


def test_modules_define_the_pinned_names():
    found = {info.name: _defined_names(importlib.import_module(
                 "triparts." + info.name))
             for info in pkgutil.iter_modules(triparts.__path__)}
    assert found == MODULE_NAMES


def test_package_reexports_the_pinned_names():
    assert sorted(_public(triparts)) == PACKAGE_NAMES
