"""Every public name the package and its submodules declare resolves."""

import functools
import importlib
import inspect
import pkgutil

import pytest

import maxwelldg
from maxwelldg.lifting import Lifting
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
    (("maxwelldg.assembly", "Discretization"), "jump_n")]


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
# the tests passed, named after the function that took them
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
    (("maxwelldg.mesh", "lshape"), "tag")]
# instances of the classes that lost an instance attribute
INSTANCES = {("maxwelldg.spaces", "Spaces"): lambda: Spaces(unit_square(1), 1)}


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in REPLACED.items() for name in names]
    + REPLACED_LATER)
def test_replaced_routes_stay_out(owner, name):
    module, path = owner
    obj = functools.reduce(getattr, path.split("."),
                           importlib.import_module(module))
    assert not hasattr(obj, name)
    assert name not in inspect.signature(obj).parameters
    if owner in INSTANCES:
        assert not hasattr(INSTANCES[owner](), name)


def test_vector_lifting_gram_needs_a_field():
    # its identity-weight mode had no caller in the package
    eps = inspect.signature(Lifting.face_grams_vector).parameters["eps"]
    assert eps.default is inspect.Parameter.empty
