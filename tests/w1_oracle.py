"""Exhaustive Wasserstein-1 oracle for tiny point sets, which the exact solvers are checked against."""

import functools
import itertools
import math

import numpy as np

from obsdriven.engine import _cost_matrix
from obsdriven.errors import InvalidSpec


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    perms.flags.writeable = False
    return perms


def wasserstein1_bruteforce(a: np.ndarray, b: np.ndarray) -> float:
    """Exhaustive minimum over all couplings (permutations); tiny n only.

    Every permutation's cost is summed in float, and the sums within 1e-12
    of the least (far above the rounding error of at most 9 terms, each at
    most 1) are summed again exactly; the least exact sum is returned.  An
    exact sum does not depend on the order of its terms, so those rows are
    sorted and each distinct one is summed once (tied inputs repeat rows).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    if n > 9:
        raise InvalidSpec("brute force oracle limited to n <= 9")
    costs = _cost_matrix(a, b)[np.arange(n), _permutations(n)]
    sums = costs.sum(axis=1)
    near = np.sort(costs[sums <= sums.min() + 1e-12], axis=1)
    rows = np.unique(near.view(np.dtype((np.void, near.itemsize * n))).ravel())
    return min(math.fsum(row) for row in rows.view(float).reshape(-1, n)) / n
