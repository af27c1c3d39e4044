import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import bsr_array, bsr_matrix
from scipy.sparse.linalg import splu

from maxwelldg import solver
from maxwelldg.assembly import Discretization
from maxwelldg.blocks import BlockMatrix
from maxwelldg.materials import Coefficients
from maxwelldg.mesh import Mesh, lshape, unit_square
from maxwelldg.problems import gradient_null_data, sine_problem
from maxwelldg.solver import (
    BACKWARD_TOL,
    COND_MAX,
    MultifrontalLU,
    ResonanceError,
    backward_error,
    factorize,
    refined_solve,
    solve_mixed,
)

from conftest import (delaunay_mesh, finest_blocks, front_entries,
                      random_materials, random_spd, two_tag_mesh)
import reference_assembly as refasm

# The layout of the factored system, named in the test ids: the (V, Q)
# layout of the primal system, the one system the package factors.
LAYOUT = pytest.mark.parametrize("layout", ["primal"])


@pytest.fixture
def sine_load(disc2):
    problem = sine_problem()
    return disc2.load_volume(problem.source)


class TestMixedSolve:
    def test_zero_load(self, disc2):
        sol = solve_mixed(disc2, 1.0, np.zeros(disc2.spaces.dim_V))
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.p).max() == 0.0
        assert sol.residual == 0.0

    def test_solution_fields(self, disc2, sine_load):
        sol = solve_mixed(disc2, 1.0, sine_load)
        assert sol.residual < 1e-10
        assert 1.0 <= sol.factor.cond_estimate <= COND_MAX
        assert sol.constraint_gap < 1e-10

    def test_linearity(self, disc2, sine_load):
        rng = np.random.default_rng(41)
        other = rng.standard_normal(disc2.spaces.dim_V)
        combined = solve_mixed(disc2, 1.0, sine_load + 2.0 * other)
        a = solve_mixed(disc2, 1.0, sine_load)
        b = solve_mixed(disc2, 1.0, other)
        expect = a.u + 2.0 * b.u
        scale = np.linalg.norm(expect)
        assert np.linalg.norm(combined.u - expect) < 1e-12 * scale

    def test_gradient_source_kills_field(self, disc2):
        # source eps grad q solves exactly as (u, p) = (0, -q)
        load, q = gradient_null_data(disc2, seed=5)
        for ksq in (0.0, 1.0):
            sol = solve_mixed(disc2, ksq, load)
            qscale = disc2.norm_q(q)
            assert disc2.norm_v(sol.u) < 1e-10 * qscale
            assert disc2.norm_q(sol.p + q) < 1e-9 * qscale

    def test_element_reorder_invariance(self, degree):
        # cyclic vertex relabeling changes coefficients, not the field;
        # a polynomial source keeps the load quadrature-exact on both maps
        base = unit_square(2)
        rolled = Mesh(base.vertices, np.roll(base.elements, 1, axis=1),
                      base.tags)
        source = lambda x, y: np.stack(
            [1.0 + x - 2.0 * y + x * x, -2.0 + 3.0 * x + y - y * y], axis=-1)
        fields = []
        for mesh in (base, rolled):
            disc = Discretization(mesh, degree)
            sol = solve_mixed(disc, 1.0, disc.load_volume(source))
            centroid = np.array([[1.0 / 3.0, 1.0 / 3.0]])
            sp = disc.spaces
            vals = np.array([
                sp.eval_v(sol.u, sp.ref_coords(e, np.array(
                    [np.mean(mesh.vertices[mesh.elements[e]], axis=0)])))[e][0]
                for e in range(mesh.num_elements)])
            fields.append(vals)
        assert np.abs(fields[0] - fields[1]).max() < 1e-10


class TestAuxiliarySolve:
    """The primal solve against a SuperLU solve of the auxiliary (V, M, Q)
    system, whose (Q, Q) block comes from eliminating the face multiplier,
    at both degrees (AC5 runs degree 1)."""

    def test_matches_primal(self, disc2, sine_load):
        primal = solve_mixed(disc2, 1.0, sine_load)
        u, p, _ = refasm.solve_auxiliary(disc2, 1.0, sine_load)
        uscale = disc2.norm_v(primal.u)
        pscale = max(disc2.norm_q(primal.p), 1e-30)
        assert disc2.norm_v(u - primal.u) < 1e-8 * uscale
        assert disc2.norm_q(p - primal.p) < 1e-8 * pscale
        assert primal.residual < 1e-10

    def test_multiplier_is_normal_jump(self, disc2, sine_load):
        primal = solve_mixed(disc2, 1.0, sine_load)
        _, _, lam = refasm.solve_auxiliary(disc2, 1.0, sine_load)
        jump = refasm.jump_n(disc2) @ primal.p
        scale = max(refasm.norm_m(disc2, jump), 1e-30)
        assert refasm.norm_m(disc2, lam - jump) < 1e-8 * scale


def exact_eigenvalue(mesh, degree):
    """Smallest positive ksq at which the saddle point pencil is singular."""
    disc = Discretization(mesh, degree)
    nv = disc.spaces.dim_V
    system = refasm.primal_system(disc, 0.0).toarray()
    mass = np.zeros_like(system)
    mass[:nv, :nv] = disc.mass_eps.toarray()
    ev = scipy.linalg.eig(system, mass, right=False)
    finite = ev[np.isfinite(ev)]
    real = finite[np.abs(finite.imag) < 1e-8 * np.abs(finite.real)].real
    return disc, float(np.min(real[real > 0.1]))


def near_eigenvalue(mesh, degree, cond):
    """(disc, ksq, its condition number): a ksq just above the smallest
    discrete eigenvalue at which the dense 1-norm condition number of the
    system lies within a factor 2 of cond, found by bisection."""
    disc, lo = exact_eigenvalue(mesh, degree)
    hi = lo * (1.0 + 1e-6)
    for _ in range(60):
        ksq = 0.5 * (lo + hi)
        value = np.linalg.cond(disc.primal_system(ksq).toarray(), 1)
        if 0.5 * cond <= value <= 2.0 * cond:
            return disc, ksq, value
        lo, hi = (ksq, hi) if value > cond else (lo, ksq)
    raise AssertionError(f"no ksq near {lo} reads a condition number {cond:.1e}")


def scaled(matrix: BlockMatrix, scale: float) -> BlockMatrix:
    """The matrix times a scalar."""
    return BlockMatrix(scale * matrix.data, matrix.indices, matrix.indptr,
                       matrix.shape)


class TestResonance:
    """Resonance verdicts of the factor on the discretization's tree; the
    subclass below repeats them on the finest dissection tree, so they
    depend on neither the scale nor the fronts."""

    def factor_input(self, disc, system):
        """The system and the runs of its tree."""
        return system, disc.dissection[1]

    # at the eigenvalue the last two read min/max |diag U| of 4.7e-12 with
    # SuperLU's COLAMD factor: a 1e-12 pivot gate would miss them
    @pytest.mark.parametrize("n, degree", [(2, 1), (3, 1), (2, 2)],
                             ids=["square2-deg1", "square3-deg1",
                                  "square2-deg2"])
    def test_exact_discrete_eigenvalue_raises(self, n, degree):
        disc, ksq = exact_eigenvalue(unit_square(n), degree)
        with pytest.raises(ResonanceError, match="condition estimate"):
            factorize(*self.factor_input(disc, disc.primal_system(ksq)))

    # The verdict's bound is written out here, not read from the module:
    # a cond of 10% forward error, 10x the 1% that COND_MAX stands for.
    @pytest.mark.parametrize("n, degree", [(2, 1), (3, 1), (2, 2)],
                             ids=["square2-deg1", "square3-deg1",
                                  "square2-deg2"])
    def test_near_eigenvalue_raises(self, n, degree):
        # the estimate reads at least half the exact value, so the bound
        # refuses it; a bound 100x larger would let it pass
        disc, ksq, cond = near_eigenvalue(unit_square(n), degree,
                                          0.1 / np.finfo(float).eps)
        assert 0.01 / np.finfo(float).eps < cond < 1.0 / np.finfo(float).eps
        with pytest.raises(ResonanceError, match="condition estimate"):
            factorize(*self.factor_input(disc, disc.primal_system(ksq)))

    def test_regular_wavenumber_passes(self, disc2, sine_load):
        sol = solve_mixed(disc2, 1.0, sine_load)
        assert sol.factor.cond_estimate < COND_MAX

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_verdict_is_scale_free(self, scale):
        disc, ksq = exact_eigenvalue(unit_square(3), 1)
        with pytest.raises(ResonanceError):
            factorize(*self.factor_input(disc, scaled(disc.primal_system(ksq),
                                                      scale)))
        regular = disc.primal_system(1.0)
        _, factor = factorize(*self.factor_input(disc, scaled(regular, scale)))
        assert (factor.ordering, factor.pivoting) == ("nested_dissection",
                                                      "symmetric")
        assert factor.cond_estimate == pytest.approx(
            factorize(*self.factor_input(disc, regular))[1].cond_estimate,
            rel=1e-8)

    def test_estimate_is_deterministic(self, disc2):
        system, bounds = self.factor_input(disc2, disc2.primal_system(1.0))
        assert factorize(system, bounds)[1] == factorize(system, bounds)[1]


@pytest.mark.parametrize("solve", [solve_mixed])
class TestNonFiniteInputs:
    """A non-finite wavenumber or load is an input error, refused before
    any assembly: not a resonance verdict, nor a NaN solution."""

    @pytest.fixture(autouse=True)
    def no_assembly(self, monkeypatch):
        def assembled(*args):
            raise AssertionError("a system was assembled")
        monkeypatch.setattr(Discretization, "primal_system", assembled)

    @pytest.mark.parametrize("ksq", [np.nan, np.inf])
    def test_wavenumber(self, disc2, sine_load, solve, ksq):
        with pytest.raises(ValueError, match="ksq must be finite"):
            solve(disc2, ksq, sine_load)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_load(self, disc2, sine_load, solve, value):
        load = sine_load.copy()
        load[3] = value
        with pytest.raises(ValueError, match="load must be finite"):
            solve(disc2, 1.0, load)


class TestLoadShape:
    """A load that is not a V vector is refused before any form is built.
    A (V, Q) load would otherwise reshape without error whenever its
    length is a multiple of ndof_v, as it is at degree 1."""

    @pytest.fixture(autouse=True)
    def no_assembly(self, monkeypatch):
        def assembled(*args):
            raise AssertionError("a form was built")
        monkeypatch.setattr(Discretization, "primal_system", assembled)
        monkeypatch.setattr(Discretization, "_form", assembled)

    @pytest.mark.parametrize("shape", ["vq", "short", "column"])
    def test_refused(self, disc2, sine_load, shape):
        sp = disc2.spaces
        load = {"vq": np.concatenate([sine_load, np.zeros(sp.dim_Q)]),
                "short": sine_load[:-1],
                "column": sine_load[:, None]}[shape]
        cached = set(vars(disc2))
        with pytest.raises(ValueError, match="V vector of shape"):
            solve_mixed(disc2, 1.0, load)
        assert set(vars(disc2)) == cached


class TestResonanceNestedDissection(TestResonance):
    def factor_input(self, disc, system):
        blocks = finest_blocks(disc)
        return (refasm.reordered(system, refasm.dof_blocks(disc), blocks),
                blocks.bounds)


class TestFactorization:
    def test_symmetric_mode_by_default(self, disc2, sine_load):
        sol = solve_mixed(disc2, 1.0, sine_load)
        assert sol.factor.pivoting == "symmetric"
        assert sol.factor.lu_nnz > 0

    def test_tiny_pivot_falls_back(self):
        # every diagonal entry is 1e-12 against off-diagonal entries of
        # order one; with one unknown per front the factor pivots on them
        # and its entries grow by about 1e12, more than one refinement
        # step can repair
        n = 4
        dense = np.ones((n, n)) + np.diag(np.full(n, 1e-12 - 1.0))
        dense += np.diag(np.arange(1.0, n), 1) + np.diag(np.arange(1.0, n), -1)
        chain = refasm.DofBlocks(np.arange(n)[:, None], np.arange(n + 1))
        matrix = refasm.element_system(dense, chain)
        # the dense matrix makes the tree a chain: each front updates all
        # later unknowns
        fronts = MultifrontalLU(matrix, chain.bounds).fronts
        assert [list(at) for _, at in fronts] == [[0, 1, 2, 3], [1, 2, 3],
                                                  [2, 3], [3]]
        lu, factor = factorize(matrix, chain.bounds)
        assert factor.pivoting == "partial"
        assert factor.ordering == "colamd"
        rhs = np.arange(1.0, n + 1)
        x = refined_solve(matrix, lu, rhs)
        assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_factor_check_does_not_rest_on_the_load(self):
        # the refined solve of a smooth load reads a backward error of
        # 4e-17 on the tiny-pivot chain's factor, that of the probe 3e-10:
        # the probe still refuses the factor when a load comes along
        matrix, bounds = tiny_pivot_chain()
        rhs = np.arange(1.0, 5.0)
        _, factor, x, product = factorize(matrix, bounds, rhs)
        assert (factor.pivoting, factor.ordering) == ("partial", "colamd")
        assert backward_error(factor.norm, x, rhs, product) <= BACKWARD_TOL

    def test_singular_front_falls_back(self):
        # one unknown per front: the first pivot of [[0, 1], [1, 0]] is
        # zero, so the multifrontal factor stops there, and SuperLU's
        # partial pivoting swaps the rows
        matrix = bsr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]),
                            blocksize=(1, 1))
        bounds = np.array([0, 1, 2])
        with pytest.raises(np.linalg.LinAlgError, match="front 0 is singular"):
            MultifrontalLU(matrix, bounds)
        rhs = np.array([2.0, 3.0])
        lu, factor, x, product = factorize(matrix, bounds, rhs)
        assert (factor.pivoting, factor.ordering) == ("partial", "colamd")
        assert np.array_equal(x, [3.0, 2.0])
        assert np.array_equal(product, rhs)
        assert np.array_equal(lu.solve(rhs), [3.0, 2.0])

    def test_singular_matrix_fails_both_factors(self):
        # [[1, 1], [1, 1]] leaves a zero second front, and SuperLU finds
        # the matrix exactly singular too
        matrix = bsr_matrix(np.ones((2, 2)), blocksize=(1, 1))
        with pytest.raises(ResonanceError, match="factorization failed"):
            factorize(matrix, np.array([0, 1, 2]))

    @LAYOUT
    def test_load_solve_comes_with_the_factor(self, disc2, sine_load,
                                              layout):
        system = disc2.primal_system(1.0)
        rhs = refasm.block_load(disc2, sine_load)
        lu, factor, x, product = factorize(system, disc2.dissection[1], rhs)
        assert factor.pivoting == "symmetric"
        expect = refined_solve(system, lu, rhs)
        assert np.linalg.norm(x - expect) <= 1e-13 * np.linalg.norm(expect)
        # the load's column of the product that judged the factor: the
        # bits of the load's product alone
        assert np.array_equal(product, system @ x)
        assert backward_error(factor.norm, x, rhs, product) <= BACKWARD_TOL

    def test_solve_makes_four_passes(self, disc2, sine_load, monkeypatch):
        # the refined solves of probe and load and the condition
        # estimate share their passes over the factor (eight one-column
        # passes when each took its own)
        widths = []
        solve = MultifrontalLU.solve

        def counted(lu, rhs):
            widths.append(1 if np.ndim(rhs) == 1 else rhs.shape[1])
            return solve(lu, rhs)
        monkeypatch.setattr(MultifrontalLU, "solve", counted)
        assert solve_mixed(disc2, 1.0, sine_load).factor.pivoting == "symmetric"
        assert len(widths) <= 4
        assert widths[:2] == [4, 3]

    def test_solve_makes_two_products(self, disc2, sine_load, monkeypatch):
        # one for the residuals of the first solves, one of the refined
        # solutions, which judges the factor and gives the solution's
        # residual, backward error and constraint gap (four when the gate
        # and the solution formed their own)
        operands = []
        product = BlockMatrix.__matmul__

        def counted(matrix, x):
            operands.append((matrix, np.shape(x)))
            return product(matrix, x)
        monkeypatch.setattr(BlockMatrix, "__matmul__", counted)
        system = disc2.primal_system(1.0)
        assert solve_mixed(disc2, 1.0, sine_load).factor.pivoting == "symmetric"
        n = system.shape[0]
        assert [(m.shape, shape) for m, shape in operands] == [
            ((n, n), (n, 2)), ((n, n), (n, 2))]
        assert all(np.array_equal(m.data, system.data) for m, _ in operands)

    def test_permuted_factor_solves_in_original_numbering(self):
        # six blocks of two unknowns, all joined, eliminated in a random
        # order in runs of two, with the unknowns numbered at random: the
        # factor of the blocks solves in their numbering, which the
        # element dofs map to the original one
        rng = np.random.default_rng(3)
        n = 12
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T + np.diag(np.full(n, 10.0))
        order = rng.permutation(6)
        blocks = refasm.DofBlocks(rng.permutation(n).reshape(6, 2)[order],
                                  [0, 2, 4, 6])
        dofs = blocks.element_dofs.ravel()
        lu, factor = factorize(refasm.element_system(dense, blocks),
                               blocks.bounds)
        assert (factor.ordering, factor.pivoting) == ("nested_dissection",
                                                      "symmetric")
        # fronts of 4 + 8, 4 + 4 and 4 + 0 unknowns
        assert [at.size for _, at in lu.fronts] == [12, 8, 4]
        assert lu.nnz == factor.lu_nnz == front_entries(lu) == 16 * 3 + 4 * (
            8 + 4)
        assert lu.L.nnz + lu.U.nnz == lu.nnz
        rhs = rng.standard_normal(n)
        x = np.empty(n)
        x[dofs] = lu.solve(rhs[dofs])
        assert np.linalg.norm(dense @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)
        both = lu.solve(np.stack([rhs, 2.0 * rhs], axis=1))
        assert np.allclose(both[:, 1], 2.0 * both[:, 0], rtol=1e-15, atol=0.0)

    def test_blocks_must_partition_the_unknowns(self, disc2):
        system = disc2.primal_system(1.0)
        ne = disc2.mesh.num_elements
        # the last element left out, an empty run, the first left out
        for bounds in ([0, ne - 1], [0, 0, ne], [1, ne]):
            with pytest.raises(ValueError, match="do not partition"):
                factorize(system, bounds)
        # a numbering of the unknowns that leaves one out, or takes one twice
        blocks = refasm.dof_blocks(disc2)
        for elements in (blocks.element_dofs[1:],
                         np.vstack([blocks.element_dofs[:1],
                                    blocks.element_dofs[:-1]])):
            with pytest.raises(ValueError, match="do not partition"):
                refasm.element_system(
                    refasm.primal_system(disc2, 1.0),
                    refasm.DofBlocks(elements, [0, len(elements)]))

    @LAYOUT
    def test_lu_nnz_is_structural(self, degree, layout):
        # the count is of the fronts' blocks, fixed by the mesh and the
        # degree, not of the entries that happen to be nonzero
        mesh = two_tag_mesh(4)
        counts = set()
        for coeffs in (random_materials(5), random_materials(6)):
            disc = Discretization(mesh, degree, coeffs)
            for ksq in (0.5, 1.7):
                system = disc.primal_system(ksq)
                counts.add(factorize(system, disc.dissection[1])[1].lu_nnz)
        assert len(counts) == 1

    def test_refinement_step_is_needed(self):
        # degree 2, four tags with full-tensor materials of anisotropy up
        # to 10, gradient source: the factor passes the probe, but a
        # single solve with it misses a 1e-10 residual (1.1e-9 here,
        # 1.3e-15 refined; with anisotropy up to 2 no seed of 400 on
        # unit_square(3) misses it, the worst reads 2.9e-13) and the
        # backward error the command line's exit status asks for (7.7e-12
        # here, 1.6e-17 refined).  Fronts inverted by np.linalg.inv miss
        # the residual on 6 of 2,400 seeds, seed 1220 the farthest
        rng = np.random.default_rng(1220)
        base = unit_square(3)
        mesh = Mesh(base.vertices, base.elements,
                    rng.integers(0, 4, base.num_elements))
        coeffs = Coefficients(mu={t: random_spd(rng, 10.0) for t in range(4)},
                              eps={t: random_spd(rng, 10.0) for t in range(4)})
        disc = Discretization(mesh, 2, coeffs)
        ksq = rng.uniform(0.5, 1.0) ** 2
        load, q = gradient_null_data(disc)
        system = disc.primal_system(ksq)
        lu, factor = factorize(system, disc.dissection[1])
        assert factor.pivoting == "symmetric"
        rhs = refasm.block_load(disc, load)
        once = lu.solve(rhs)
        assert (np.linalg.norm(system @ once - rhs)
                > 1e-10 * np.linalg.norm(rhs))
        assert (backward_error(factor.norm, once, rhs, system @ once)
                > BACKWARD_TOL)
        sol = solve_mixed(disc, ksq, load)
        assert sol.residual <= 1e-10
        assert sol.backward_error <= BACKWARD_TOL
        assert disc.norm_v(sol.u) <= 1e-9 * disc.norm_q(q)


def tiny_pivot_chain():
    """A 4 x 4 matrix in blocks of one unknown whose diagonal entries are
    1e-12 against off-diagonal entries of order one, and its runs of one
    block each."""
    n = 4
    dense = np.ones((n, n)) + np.diag(np.full(n, 1e-12 - 1.0))
    dense += np.diag(np.arange(1.0, n), 1) + np.diag(np.arange(1.0, n), -1)
    chain = refasm.DofBlocks(np.arange(n)[:, None], np.arange(n + 1))
    return refasm.element_system(dense, chain), chain.bounds


def halves(mesh):
    """The mesh with the elements left of its mean centroid tagged 0,
    the others 1."""
    cx = mesh.vertices[mesh.elements].mean(axis=1)[:, 0]
    return Mesh(mesh.vertices, mesh.elements, (cx > cx.mean()).astype(np.int64))


class TestConditionEstimate:
    @pytest.mark.parametrize("make_mesh", [
        lambda: halves(unit_square(4)), lambda: delaunay_case(),
        lambda: halves(unit_square(8)),
        lambda: delaunay_mesh(np.random.default_rng(3), 30)[0]],
        ids=["square4", "delaunay", "square8", "delaunay30"])
    def test_norm_is_the_one_norm(self, degree, make_mesh):
        # summed in scipy's order, the column sums are scipy's bit for bit,
        # so the condition estimate prints the same digits
        mesh = make_mesh()
        rng = np.random.default_rng(22)
        tags = np.unique(mesh.tags)
        disc = Discretization(mesh, degree, Coefficients(
            mu={t: random_spd(rng) for t in tags},
            eps={t: random_spd(rng) for t in tags}))
        system = disc.primal_system(1.3)
        norm = factorize(system, disc.dissection[1])[1].norm
        assert norm == float(abs(system.tobsr()).sum(axis=0).max())
        assert norm == pytest.approx(np.linalg.norm(system.toarray(), 1),
                                     rel=1e-15)
        # every column sum, not just the largest: each is the norm of the
        # matrix cut down to that column, whose blocks keep their order
        nb = system.blocksize[1]
        brow = np.repeat(np.arange(system.shape[0] // nb),
                         np.diff(system.indptr))
        sums = np.empty(system.shape[1])
        for c in range(system.shape[1] // nb):
            keep = system.indices == c
            indptr = np.searchsorted(brow[keep], np.arange(len(system.indptr)))
            for i in range(nb):
                data = np.zeros_like(system.data[keep])
                data[:, :, i] = system.data[keep][:, :, i]
                sums[c * nb + i] = solver._one_norm(bsr_array(
                    (data, system.indices[keep], indptr), shape=system.shape))
        assert np.array_equal(sums, abs(system.tobsr()).sum(axis=0))

    # the estimate is a lower bound that reads 0.81 to 1.0 of the exact
    # condition number here, as scipy's onenormest(t=1) did
    @LAYOUT
    @pytest.mark.parametrize("make_mesh", [lambda: unit_square(4),
                                           lambda: lshape(3),
                                           lambda: unit_square(5)],
                             ids=["square4", "lshape3", "square5"])
    def test_estimate_against_dense(self, degree, make_mesh, layout,
                                    monkeypatch):
        disc = Discretization(halves(make_mesh()), degree, random_materials(21))
        system = disc.primal_system(1.0)
        n = system.shape[0]
        # every solve of the factor, whose backward errors bound the
        # estimate's rounding
        solves = []
        real_solve = MultifrontalLU.solve

        def recorded_solve(self, rhs):
            x = real_solve(self, rhs)
            solves.append((rhs.reshape(n, -1), x.reshape(n, -1)))
            return x
        monkeypatch.setattr(MultifrontalLU, "solve", recorded_solve)
        factor = factorize(system, disc.dissection[1])[1]
        dense = system @ np.eye(n)
        inverse = np.linalg.inv(dense)
        exact = np.linalg.norm(dense, 1) * np.linalg.norm(inverse, 1)

        def worst_backward_error(rhs, x):
            return max(backward_error(factor.norm, xj, bj, system @ xj)
                       for xj, bj in zip(x.T, rhs.T))
        eta = max(worst_backward_error(rhs, x) for rhs, x in solves)
        eta_dense = worst_backward_error(np.eye(n), inverse)
        # The estimate is ||A||_1 ||x||_1 / ||b||_1 for a computed solve x
        # of A x = b.  To first order a computed solve lies within
        # 2 cond eta of the exact one in the 1-norm, eta its backward error,
        # and so does each column of the dense inverse.
        bound = (1.0 + 2.0 * exact * (eta + eta_dense)) * exact
        assert 0.5 * exact <= factor.cond_estimate <= bound

    # One estimator step reads 0.19 to 0.36 of the exact condition number
    # on these small random systems, and the later steps find all of it.
    # Of 1,200 drawn alike (degree 1 and 2, n = 2 and 3, seeds 0 to 299),
    # one step reads below half on 22; the full estimate on 7, at 0.42 to
    # 0.48, so the half is a measured bound, not a guarantee.
    @pytest.mark.parametrize("degree, n, seed", [
        (1, 2, 217), (1, 2, 276), (2, 2, 84), (2, 3, 21), (2, 3, 268)])
    def test_estimate_needs_its_later_steps(self, degree, n, seed,
                                            monkeypatch):
        disc = Discretization(halves(unit_square(n)), degree,
                              random_materials(seed))
        system = disc.primal_system(
            float(np.random.default_rng(seed).uniform(0.0, 20.0)))
        exact = np.linalg.cond(system.toarray(), 1)
        estimate = factorize(system, disc.dissection[1])[1].cond_estimate
        assert 0.5 * exact <= estimate <= (1.0 + 1e-8) * exact
        monkeypatch.setattr(solver, "ESTIMATE_STEPS", 1)
        one_step = factorize(system, disc.dissection[1])[1].cond_estimate
        assert one_step < 0.4 * exact

    def test_block_right_hand_sides(self, disc2):
        # a block of columns gives, column by column, what one column does
        system = disc2.primal_system(1.0)
        lu, _ = factorize(system, disc2.dissection[1])
        block = np.random.default_rng(8).standard_normal((system.shape[0], 3))
        for apply in (system.__matmul__, lu.solve):
            both = apply(block)
            assert both.shape == block.shape
            for column, rhs in zip(both.T, block.T):
                one = apply(rhs)
                assert np.linalg.norm(column - one) <= 1e-15 * np.linalg.norm(one)


def upper_blocks_nan(matrix: bsr_matrix) -> bsr_matrix:
    """The matrix with every block above the block diagonal NaN."""
    nb = matrix.blocksize[0]
    rows = np.repeat(np.arange(matrix.shape[0] // nb), np.diff(matrix.indptr))
    data = matrix.data.copy()
    data[rows < matrix.indices] = np.nan
    return bsr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)


class TestFrontsInPlace:
    """The fronts hold their own columns [F11; F21] and their update block
    F22 apart and never form F12 = F21^T, so the factor reads only the
    diagonal blocks and those below; the dense kernels write in place."""

    @pytest.fixture
    def disc(self, degree):
        # several levels of fronts, leaves of several elements
        return Discretization(halves(unit_square(8)), degree,
                              random_materials(17))

    @LAYOUT
    def test_reads_only_the_lower_blocks(self, disc, layout):
        system = disc.primal_system(1.0)
        bounds = disc.dissection[1]
        lu, factor = factorize(system, bounds)
        assert factor.pivoting == "symmetric"
        blind = MultifrontalLU(upper_blocks_nan(system), bounds)
        assert len(lu.fronts) == len(blind.fronts)
        for (block, at), (other, other_at) in zip(lu.fronts, blind.fronts):
            assert np.array_equal(at, other_at)
            assert np.array_equal(block, other)
        rhs = np.random.default_rng(4).standard_normal(system.shape[0])
        assert np.array_equal(blind.solve(rhs), lu.solve(rhs))

    def test_kernels_write_in_place(self, disc, monkeypatch):
        # -V is written by a GEMM into the array it is handed: the block an
        # inner node keeps or a leaf's temporary; a copy, for a layout the
        # product cannot take as it is, would show here.  Only an inner
        # node's panel lands in its kept block: a leaf keeps X alone.
        # numpy's matmul cannot add into its output, so F21 (-V) is one
        # product of the update block's shape, summed into that block;
        # test_factor_holds_less_than_its_entries bounds the peak it costs
        calls = []
        matmul = np.matmul

        def recorded(*args, **kwargs):
            out = matmul(*args, **kwargs)
            calls.append((kwargs.get("out"), out))
            return out
        monkeypatch.setattr(np, "matmul", recorded)
        lu = MultifrontalLU(disc.primal_system(1.0), disc.dissection[1])
        inner = set(lu.parent[lu.parent >= 0].tolist())
        updating = [(j, block, at.size - block.shape[0])
                    for j, (block, at) in enumerate(lu.fronts)
                    if at.size > block.shape[0]]
        assert {j in inner for j, _, _ in updating} == {True, False}
        assert len(calls) == 2 * len(updating)
        for (j, block, u), (handed, panel), (unhanded, product) in zip(
                updating, calls[::2], calls[1::2]):
            p = block.shape[0]
            assert panel is handed
            assert panel.shape == (p, u)
            assert unhanded is None
            assert product.shape == (u, u)
            assert not np.shares_memory(product, panel)
            if j in inner:
                assert np.shares_memory(panel, block)
                assert np.array_equal(panel, block[:, p:])
            else:
                assert block.shape == (p, p)
                assert not np.shares_memory(panel, block)


def delaunay_case():
    mesh, _ = delaunay_mesh(np.random.default_rng(0), 40)
    return mesh


class TestNestedDissection:
    """The multifrontal factor on the nested-dissection tree solves as a
    SuperLU factor in minimum degree order does, and keeps its pivoting
    inside the fronts, for every degree."""

    @LAYOUT
    @pytest.mark.parametrize("make_mesh", [lambda: unit_square(8),
                                           lambda: lshape(4), delaunay_case],
                             ids=["square8", "lshape4", "delaunay"])
    def test_matches_minimum_degree(self, make_mesh, layout):
        rng = np.random.default_rng(7)
        coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                              eps={t: random_spd(rng) for t in range(3)})
        disc = Discretization(make_mesh(), 1, coeffs)
        system = disc.primal_system(1.0)
        oracle = refasm.block_numbered(refasm.primal_system(disc, 1.0),
                                       refasm.dof_blocks(disc))
        rhs = rng.standard_normal(system.shape[0])
        lu, factor = factorize(system, disc.dissection[1])
        assert (factor.ordering, factor.pivoting) == ("nested_dissection",
                                                      "symmetric")
        x = refined_solve(system, lu, rhs)
        expect = refined_solve(system, splu(oracle,
                                            permc_spec="MMD_AT_PLUS_A"), rhs)
        assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_degree_picks_the_ordering(self, disc2, sine_load):
        # one path: every degree takes the dissection tree
        factor = solve_mixed(disc2, 1.0, sine_load).factor
        assert (factor.ordering, factor.pivoting) == ("nested_dissection",
                                                      "symmetric")
        factor = factorize(disc2.primal_system(0.0), disc2.dissection[1])[1]
        assert factor.ordering == "nested_dissection"
