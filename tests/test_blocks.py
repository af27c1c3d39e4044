"""The package's block operator against scipy's BSR storage of the same
blocks: every sparse operator a solve or a study applies, at both
degrees, gives scipy's products with one vector and with a block of
columns."""

import numpy as np
import pytest
from scipy.sparse import bsr_array

from maxwelldg.assembly import Discretization
from maxwelldg.blocks import BlockMatrix

from conftest import random_materials, two_tag_mesh

FORMS = ("a_matrix", "b_matrix", "c_matrix", "b_lambda", "seminorm_gram",
         "norm_q_gram", "mass_eps", "lift_gram_vector")


def operators(degree):
    disc = Discretization(two_tag_mesh(3), degree, random_materials(31))
    named = [(name, getattr(disc, name)) for name in FORMS]
    return named + [("primal_system", disc.primal_system(1.7)),
                    ("conforming_q_basis", disc.spaces.conforming_q_basis())]


@pytest.fixture(scope="module", params=[1, 2])
def named_operators(request):
    return operators(request.param)


def test_products_match_scipy(named_operators):
    rng = np.random.default_rng(5)
    for name, mine in named_operators:
        assert isinstance(mine, BlockMatrix), name
        theirs = mine.tobsr()
        assert isinstance(theirs, bsr_array)
        assert (mine.shape, mine.blocksize, mine.nnz) == (
            theirs.shape, theirs.blocksize, theirs.nnz), name
        assert np.array_equal(mine.toarray(), theirs.toarray()), name
        for x in (rng.standard_normal(mine.shape[1]),
                  rng.standard_normal((mine.shape[1], 7))):
            got, expect = mine @ x, theirs @ x
            assert got.shape == expect.shape, name
            assert (np.linalg.norm(got - expect)
                    <= 1e-14 * np.linalg.norm(expect)), name


def test_column_alone_or_in_a_block(named_operators):
    # one right-hand side at a time: a column gives the same bits alone
    block = np.random.default_rng(6).standard_normal
    for name, mine in named_operators:
        x = block((mine.shape[1], 4))
        both = mine @ x
        for j in range(x.shape[1]):
            assert np.array_equal(both[:, j], mine @ x[:, j]), name


def test_dimension_mismatch_raises():
    mine = BlockMatrix(np.ones((1, 2, 3)), [0], [0, 1], (2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mine @ np.ones(2)
    assert np.array_equal(mine @ np.ones(3), [3.0, 3.0])
