"""Slice towers of S^n smash HZ over cyclic p-groups, with an
independent Bredon homology verifier."""

from .abelian import AbGroup, Mat, SmithForm, kernel_basis, smith_normal_form, solve
from .document import FORMAT, VERSION, tower_document
from .group import Group, is_odd_prime, p_adic_val
from .homology import BredonHomology, bredon_homology, homres_injective, level_complex
from .mackey import (
    B_ij,
    MackeyFunctor,
    Z_ij,
    b_as_cokernel,
    constant_Z,
    dual_Z,
    parse_coefficient,
    render_mackey,
    restrict_mackey,
    validate_mackey,
)
from .params import SliceParams, slice_params
from .render import render_latex, render_text
from .rep import (
    Rep,
    RepDiff,
    RepParseError,
    canonical_lambda,
    lambda_block,
    n_slice_rep,
    parse_rep,
    regular_rep,
    render_rep,
    restrict_rep,
    rotation_plane,
    slice_rep,
    trivial_rep,
)
from .tower import (
    SliceDescriptor,
    Tower,
    VerificationReport,
    build_tower,
    fiber_sequence_data,
    slice_list,
    verify_slice,
    verify_tower,
)

__version__ = VERSION

__all__ = [
    "AbGroup", "Mat", "SmithForm", "kernel_basis", "smith_normal_form", "solve",
    "FORMAT", "VERSION", "tower_document",
    "Group", "is_odd_prime", "p_adic_val",
    "BredonHomology", "bredon_homology", "homres_injective", "level_complex",
    "B_ij", "MackeyFunctor", "Z_ij", "b_as_cokernel", "constant_Z", "dual_Z",
    "parse_coefficient", "render_mackey", "restrict_mackey", "validate_mackey",
    "SliceParams", "slice_params",
    "render_latex", "render_text",
    "Rep", "RepDiff", "RepParseError", "canonical_lambda", "lambda_block",
    "n_slice_rep", "parse_rep", "regular_rep", "render_rep", "restrict_rep",
    "rotation_plane", "slice_rep", "trivial_rep",
    "SliceDescriptor", "Tower", "VerificationReport", "build_tower",
    "fiber_sequence_data", "slice_list", "verify_slice", "verify_tower",
    "__version__",
]
