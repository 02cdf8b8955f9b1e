"""Property tests of the exponent solve on random strongly connected graphs.

Claims covered:
    - on ring graphs with n = 2..12 in every mode, Q from solve_lambda equals
      the rank-one form v u^T / (-u^T M'(lam) v) built from the Perron
      vectors at lam, (I - M(lam)) Q vanishes, and |mu(lam) - 1| <= 1e-12

Needs the optional ``hypothesis`` test dependency; skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from orbitcount import build_graph
from orbitcount.spectral import MatrixFunction, Mode, perron_eigen, solve_lambda

from conftest import ring_spec


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p=st.sampled_from([0.6, 0.9, 1.0]),
    mode=st.sampled_from(list(Mode)),
)
def test_q_is_the_rank_one_residue(seed, n, p, mode):
    f = MatrixFunction(build_graph(ring_spec(seed, n, p)), mode)
    sol = solve_lambda(f)
    m = f.evaluate(sol.lam)
    assert abs(perron_eigen(m).mu - 1.0) <= 1e-12
    assert sol.residual <= 1e-12

    v, u = sol.perron_at_lambda.right_vector, sol.perron_at_lambda.left_vector
    rank_one = np.outer(v, u) / -(u @ f.evaluate_derivative(sol.lam) @ v)
    scale = np.max(np.abs(sol.q))
    assert np.max(np.abs(sol.q - rank_one)) <= 1e-9 * scale
    assert np.max(np.abs((np.eye(f.dimension) - m) @ sol.q)) <= 1e-9 * scale
