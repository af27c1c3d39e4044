"""Reference computation that measures how fast the host runs right now.

The host this benchmark was built on changes speed by up to 1.6x over
seconds to minutes, so a wall time read at one moment cannot be compared
with one read at another.  ``run.py`` starts this file as a child process
and has it run one fixed computation before the first op and after each
op.  The ops' total time divided by the probe's time over the same
stretch is the op time in reference units (``op_rel``), which follows the
host's speed much less.

The computation uses numpy and scipy only, never ``maxwelldg``, and its
data are fixed, so a change to the package cannot change it.  Its parts
mirror what the ops spend time on: a Python loop over a dict, a Python
loop over small dense arrays, sparse assembly and product, a sparse LU, a
dense symmetric eigensolve and passes over arrays larger than the caches.
It runs in its own process so that its memory stays out of the op
process's ``peak_rss_mb``.

Protocol: each line read from stdin holds a number of seconds; the
computation runs again and again until that long has passed (at least
once), and the mean wall seconds of one pass is printed on one line.  End
of input ends the process.  One pass takes about 0.3 s.
"""

import sys
import time

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

_RNG = np.random.default_rng(12345)
SMALL = [_RNG.standard_normal((6, 6)) for _ in range(32)]
_T = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(120, 120))
LAPLACIAN = (sps.kron(_T, sps.eye(120)) + sps.kron(sps.eye(120), _T)).tocsc()
_M = _RNG.standard_normal((300, 300))
DENSE = _M + _M.T
ROWS = _RNG.integers(0, 40_000, 200_000)
COLS = _RNG.integers(0, 40_000, 200_000)
VALS = _RNG.standard_normal(200_000)
BIG = _RNG.standard_normal(6_000_000)
BIG_OUT = np.empty_like(BIG)
PERM = _RNG.permutation(2_000_000)


def reference() -> None:
    table = {}
    for i in range(40_000):
        table.setdefault((i % 9973, i % 31), []).append(i)
    sorted(table.items())
    for i in range(4000):
        a = SMALL[i % 32]
        w = a @ a[:, i % 6]
        float(w @ w)
        idx = [i % 4, i % 4 + 1, i % 4 + 2]
        a[np.ix_(idx, idx)].sum()
    a = sps.coo_matrix((VALS, (ROWS, COLS)), shape=(40_000, 40_000)).tocsr()
    (a @ a.T).nnz
    spla.splu(LAPLACIAN)
    np.linalg.eigh(DENSE)
    for _ in range(3):
        np.multiply(BIG, 1.0001, out=BIG_OUT)
        BIG_OUT[PERM].sum()


def main() -> None:
    for line in sys.stdin:
        target = float(line)
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < target:
            reference()
            passes += 1
        print(repr((time.perf_counter() - start) / passes), flush=True)


if __name__ == "__main__":
    main()
