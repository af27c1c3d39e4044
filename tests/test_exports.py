"""Every public name the package and its submodules declare resolves."""

import functools
import importlib
import inspect
import pkgutil

import pytest

import maxwelldg
from maxwelldg.lifting import Lifting
from maxwelldg.materials import Coefficients
from maxwelldg.mesh import unit_square
from maxwelldg.spaces import Spaces
import reference_assembly

MODULES = ["maxwelldg"] + [
    f"maxwelldg.{info.name}" for info in pkgutil.iter_modules(maxwelldg.__path__)
    if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


# builders only the tests call, kept beside the tests
TEST_ONLY = {
    ("maxwelldg.lifting", "Lifting"): [
        "lift_scalar_matrix", "lift_vector_matrix", "project_scalar_data",
        "scalar_data_dofs", "dim_scalar_data", "dim_vector_data"],
    ("maxwelldg.spaces", "Spaces"): [
        "v_dof_matrices", "v_dofs", "q_dofs", "eval_q", "eval_lift_vector",
        "project_v", "project_q"],
    ("maxwelldg.assembly", "Discretization"): ["seminorm_v", "norm_m",
                                               "dof_blocks"],
    # a module of the package, for its classes
    ("maxwelldg", "assembly"): ["DofBlocks"],
    ("maxwelldg.mesh", "Mesh"): ["element_areas"],
    ("maxwelldg.analysis", "ConvergenceReport"): ["terminal_eoc"],
}
# later additions go last, so the earlier cases keep their ids
TEST_ONLY_LATER = [
    (("maxwelldg.assembly", "Discretization"), name)
    for name in ("penalty_gram", "curl_stiffness", "q_grad_gram",
                 "lift_gram_scalar", "grad_pair")] + [
    # the curl-conforming dof builders, and the CSR face maps, which the
    # lifting's per-(face, side) blocks replaced in the package
    (("maxwelldg.spaces", "Spaces"), "_dof_blocks"),
    (("maxwelldg.spaces", "Spaces"), "v_dof_inverses"),
    (("maxwelldg.spaces", "Spaces"), "conforming_v_basis"),
    (("maxwelldg.lifting", "Lifting"), "jump_tangential"),
    (("maxwelldg.lifting", "Lifting"), "jump_normal"),
    (("maxwelldg.lifting", "Lifting"), "curl_pair"),
    (("maxwelldg.assembly", "Discretization"), "jump_t"),
    (("maxwelldg.assembly", "Discretization"), "jump_n"),
    # the complement route to the Friedrichs constant, which the
    # (seminorm, eps mass) pencil replaced in the package
    (("maxwelldg.spaces", "Spaces"), "gradient_map"),
    (("maxwelldg.spaces", "Spaces"), "local_v_grams"),
    # the V-norm Gram, which the dense probes compose from the seminorm
    # Gram and the eps mass
    (("maxwelldg.assembly", "Discretization"), "norm_v_gram"),
    # the COO builders, which `bsr_array`s of the element and face blocks
    # replaced in the package
    (("maxwelldg", "spaces"), "block_sparse"),
    (("maxwelldg", "spaces"), "element_block_diag")]


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in TEST_ONLY.items() for name in names]
    + TEST_ONLY_LATER)
def test_test_only_builders_live_beside_the_tests(owner, name):
    module, cls = owner
    assert not hasattr(getattr(importlib.import_module(module), cls), name)
    assert callable(getattr(reference_assembly, name))


# the CSR routes the block assembly replaced; their oracles in
# reference_assembly go by other names (`curl_pair_matrix` wraps the
# test-side `curl_pair` of the lifting)
REPLACED = {
    ("maxwelldg.assembly", "Discretization"): ["_blocks", "curl_pair"],
}
# later removals go last, so the earlier cases keep their ids: the rest
# of the CSR face layer (`face_csr` builds the test-side maps) and the
# unweighted V mass, and metadata nothing read; then the settings no
# command sets: the block diagonal of the multiplier penalty (one gamma
# makes it gamma times `lift_gram_vector`), the model problem's derived
# fields (`exact_u` gives the boundary data), the vacuum alias of
# `Coefficients()`, an attribute only a test read, and parameters only
# the tests passed, named after the function that took them; then the
# scalar curl stiffness, which nothing read but its own inverse; then the
# W-norm Gram and the constraint row on V x M, which the composed route
# of reference_assembly builds; then the three-field solve,
# whose face multiplier, eliminated, leaves the primal system: its
# system, its factor, its entry point (also in the package namespace,
# owner path ""), the multiplier of its solution and the switch to it;
# then the COO placement of conforming columns (`conforming_map` in
# reference_assembly); then the permutation of the (V, Q) unknowns into
# the primal system, which V loads written into its element blocks
# replaced (`dof_blocks` in reference_assembly); then the composition of
# N_w and C_w in `analysis`, its kernel basis and the probes' argument
# that passed one, which the part-by-part norm and one projected pencil
# per level replaced (`norm_w_gram` and `constraint_w` in
# reference_assembly)
REPLACED_LATER = [
    (("maxwelldg.lifting", "Lifting"), "_face_csr"),
    (("maxwelldg.lifting", "Lifting"), "block_diag_scalar"),
    (("maxwelldg.lifting", "Lifting"), "block_diag_vector"),
    (("maxwelldg.assembly", "Discretization"), "mass_v"),
    (("maxwelldg.problems", "ModelProblem"), "regularity"),
    (("maxwelldg.assembly", "Discretization"), "gamma_gram"),
    (("maxwelldg.problems", "ModelProblem"), "boundary_u"),
    (("maxwelldg.problems", "ModelProblem"), "div_free"),
    (("maxwelldg.problems", "ModelProblem"), "mesh"),
    (("maxwelldg.materials", "Coefficients"), "vacuum"),
    (("maxwelldg.spaces", "Spaces"), "areas"),
    (("maxwelldg.analysis", "infsup_constant_B"), "include_multiplier"),
    (("maxwelldg.analysis", "coercivity_margin"), "seed"),
    (("maxwelldg.lifting", "Lifting._face_samples"), "degree"),
    (("maxwelldg.mesh", "unit_square"), "tag"),
    (("maxwelldg.mesh", "lshape"), "tag"),
    (("maxwelldg.materials", "MaterialArrays"), "mu_bar"),
    (("maxwelldg.assembly", "Discretization"), "norm_w_gram"),
    (("maxwelldg.assembly", "Discretization"), "constraint_w"),
    (("maxwelldg", "assembly"), "AuxiliarySystem"),
    (("maxwelldg.assembly", "Discretization"), "auxiliary_system"),
    (("maxwelldg", "solver"), "FaceElimination"),
    (("maxwelldg", "solver"), "solve_auxiliary"),
    (("maxwelldg", ""), "solve_auxiliary"),
    (("maxwelldg.solver", "Solution"), "lam"),
    (("maxwelldg.analysis", "convergence_study"), "formulation"),
    (("maxwelldg.analysis", "ConvergenceReport"), "formulation"),
    (("maxwelldg.spaces", "Spaces"), "_conforming_map"),
    (("maxwelldg.assembly", "Discretization"), "system_order"),
    *((("maxwelldg", "analysis"), name) for name in (
        "_norm_w_gram", "_constraint_w", "_kernel_basis", "_kernel_eigenvalues",
        "block_diag", "bmat", "csr_array")),
    (("maxwelldg.analysis", "kernel_ellipticity"), "kernel"),
    (("maxwelldg.analysis", "indefinite_infsup"), "kernel")]
# instances of the classes that lost an instance attribute
INSTANCES = {
    ("maxwelldg.spaces", "Spaces"): lambda: Spaces(unit_square(1), 1),
    ("maxwelldg.materials", "MaterialArrays"):
        lambda: Coefficients().expand(unit_square(1)),
}


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in REPLACED.items() for name in names]
    + REPLACED_LATER)
def test_replaced_routes_stay_out(owner, name):
    module, path = owner
    obj = functools.reduce(getattr, filter(None, path.split(".")),
                           importlib.import_module(module))
    assert not hasattr(obj, name)
    if callable(obj):
        assert name not in inspect.signature(obj).parameters
    if owner in INSTANCES:
        assert not hasattr(INSTANCES[owner](), name)


def test_vector_lifting_gram_needs_a_field():
    # its identity-weight mode had no caller in the package
    eps = inspect.signature(Lifting.face_grams_vector).parameters["eps"]
    assert eps.default is inspect.Parameter.empty


@pytest.mark.parametrize("method, name", [
    (Spaces.mapped_gram, "field"), (Lifting.face_grams_scalar, "weight")])
def test_weighted_grams_need_a_weight(method, name):
    # their identity-weight modes had no caller in the package
    param = inspect.signature(method).parameters[name]
    assert param.default is inspect.Parameter.empty
