"""Matrix functions, Perron-Frobenius machinery, the exponent solve, and Q.

Claims covered:
    - M(s) reproduces the two-vertex example at s=1 and the adjacency counts at
      s=0; missing connections stay zero; derivatives match central
      differences
    - perron_eigen returns the hand-solved eigen-data on 2x2 cases, certifies
      positivity, and rejects reducible input
    - M(s) and M'(s) equal a per-term loop bit for bit, real and complex s,
      in every mode, on graphs with loops and parallel edges
    - adjugate matches the 2x2 cofactor formula, the 1x1 convention, and
      A adj(A) = det(A) I on random (including singular) matrices, and a
      literal cofactor expansion on real, complex, rank-deficient and
      I - M(lam) input
    - solve_lambda checks no sparsity pattern (strong connectivity of the
      graph decides it, in every mode), decides most bisection steps from a
      certified Collatz-Wielandt sign with the result bit-identical to full
      Perron solves at every step, and never certifies a point where a full
      solve would stop
    - all four Perron projection routes agree, are idempotent with unit
      trace, and power-limit rejects periodic input
    - the exponent solve lands on the two-vertex example (lam = 1), on
      substitution values, at 0 for stochastic annotations, and at -log 2 for
      the half-probability loop, in vertex and edge modes alike
    - Q matches the two-vertex example, the 1x1 closed form, and the rank-one /
      positivity / simple-pole facts; spectral radius is strictly decreasing;
      complex powers are dominated by the real axis; rescaling lengths
      rescales lam and Q
"""

import math

import numpy as np
import pytest

from orbitcount import build_graph
from orbitcount import spectral
from orbitcount.errors import (
    MissingProbabilities,
    NotIrreducible,
    NotPrimitive,
    NotStronglyConnected,
    SingularDenominator,
)
from orbitcount.graph import strong_connectivity
from orbitcount.spectral import (
    ADJUGATE,
    POWER_LIMIT,
    critical_line_scan,
    PROJECTION_METHODS,
    MatrixFunction,
    Mode,
    adjugate,
    perron_eigen,
    perron_projection,
    q_matrix,
    solve_lambda,
)

from conftest import cofactor_adjugate, ring_spec, two_vertex_spec

Q_SCALE = 6.0 / math.log(432.0)


def random_irreducible(rng, n, primitive=True, lo=0.2, hi=2.0):
    a = np.zeros((n, n))
    perm = rng.permutation(n)
    for k in range(n):
        a[perm[k], perm[(k + 1) % n]] = rng.uniform(lo, hi)
    extra = rng.random((n, n)) < 0.3
    a[extra] = rng.uniform(lo, hi, size=int(extra.sum()))
    if primitive:
        d = int(rng.integers(0, n))
        a[d, d] = rng.uniform(lo, hi)
    return a


# -- evaluation ---------------------------------------------------------------


def test_counting_matrix_at_one(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    assert f.evaluate(1.0) == pytest.approx(np.array([[0.5, 0.5], [1.0, 0.0]]))


def test_counting_matrix_at_zero_is_adjacency(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    assert f.evaluate(0.0) == pytest.approx(np.array([[1.0, 1.0], [2.0, 0.0]]))


def test_unconnected_entry_stays_zero(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    for s in (0.0, 0.7, 2.0 + 1.0j):
        assert f.evaluate(s)[1, 1] == 0


def test_derivative_entries(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    d = f.evaluate_derivative(1.0)
    assert d[1, 1] == 0
    assert d[0, 0] == pytest.approx(-math.log(2) * 0.5)


def test_derivative_matches_central_differences(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        s = complex(rng.uniform(-1, 2), rng.uniform(-3, 3))
        numeric = (f.evaluate(s + h) - f.evaluate(s - h)) / (2 * h)
        exact = f.evaluate_derivative(s)
        assert np.max(np.abs(numeric - exact)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_probability_mode_needs_annotation(two_vertex):
    with pytest.raises(MissingProbabilities):
        MatrixFunction(two_vertex, Mode.PROBABILITY)
    with pytest.raises(MissingProbabilities):
        MatrixFunction(two_vertex, Mode.EDGE)


def test_probability_matrix_values(two_vertex_stochastic):
    f = MatrixFunction(two_vertex_stochastic, Mode.PROBABILITY)
    n0 = f.evaluate(0.0)
    assert n0 == pytest.approx(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert n0.sum(axis=1) == pytest.approx(np.ones(2))


def test_edge_matrix_structure(two_vertex_stochastic):
    f = MatrixFunction(two_vertex_stochastic, Mode.EDGE)
    assert f.dimension == 4
    w = f.evaluate(1.0)
    # Entry (beta, alpha) is p_beta * e^(-s l(alpha)); alpha, beta are loops
    # and exits of vertex 1, gammas leave vertex 2.
    assert w[0, 0] == pytest.approx(0.5 * 0.5)
    assert w[1, 0] == pytest.approx(0.5 * 0.5)
    assert w[2, 1] == pytest.approx(0.5 * 0.5)
    assert w[0, 2] == pytest.approx(0.5 / 1.5)
    assert w[0, 3] == pytest.approx(0.5 / 3.0)
    assert w[2, 0] == 0 and w[0, 1] == 0
    # Columns of W(0) sum to the probability mass leaving the target vertex.
    assert f.evaluate(0.0).sum(axis=0) == pytest.approx(np.ones(4))


def _per_term_matrix(f, s, derivative=False):
    """M(s) or M'(s) summed one term at a time, as the definition reads."""
    g = f.graph
    if f.mode is Mode.EDGE:
        terms = [
            (beta.id, alpha.id, beta.probability, alpha.length)
            for alpha in g.edges
            for beta in g.out_edges(alpha.target)
        ]
    else:
        terms = [
            (e.source - 1, e.target - 1,
             1.0 if f.mode is Mode.COUNTING else e.probability, e.length)
            for e in g.edges
        ]
    real = np.imag(s) == 0
    s = float(np.real(s)) if real else complex(s)
    m = np.zeros((f.dimension, f.dimension), dtype=float if real else complex)
    for i, j, w, length in terms:
        if derivative:
            m[i, j] += -length * w * np.exp(-s * length)
        else:
            m[i, j] += w * np.exp(-s * length)
    return m


def test_evaluate_bit_identical_to_per_term_loop():
    graphs = [build_graph(two_vertex_spec(probability=0.45)), build_graph(ring_spec(1, 12, 0.9))]
    for g in graphs:
        pairs = [(e.source, e.target) for e in g.edges]
        assert len(set(pairs)) < len(pairs)  # parallel edges
    assert any(e.source == e.target for e in graphs[1].edges)  # loops
    rng = np.random.default_rng(41)
    points = [0.0, 1.0, -0.3, 0.7 + 2.5j, complex(rng.uniform(-1, 2), rng.uniform(-9, 9))]
    for g in graphs:
        for mode in Mode:
            f = MatrixFunction(g, mode)
            for s in points:
                for derivative in (False, True):
                    got = f.evaluate_derivative(s) if derivative else f.evaluate(s)
                    want = _per_term_matrix(f, s, derivative)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)


# -- Perron-Frobenius ---------------------------------------------------------


def test_perron_eigen_worked_2x2():
    data = perron_eigen(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert data.mu == pytest.approx(1.0, abs=1e-12)
    v = data.right_vector / data.right_vector[0]
    u = data.left_vector / data.left_vector[1]
    assert v == pytest.approx([1.0, 1.0], abs=1e-11)
    assert u == pytest.approx([2.0, 1.0], abs=1e-11)
    assert float(data.left_vector @ data.right_vector) == pytest.approx(1.0, abs=1e-12)


def test_perron_eigen_periodic_swap():
    data = perron_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert data.mu == pytest.approx(1.0, abs=1e-12)
    assert data.right_vector == pytest.approx([0.5, 0.5], abs=1e-11)


def test_perron_eigen_scalar():
    data = perron_eigen(np.array([[2.0]]))
    assert data.mu == 2.0
    assert data.right_vector == pytest.approx([1.0])
    assert data.left_vector == pytest.approx([1.0])


def test_perron_eigen_residuals_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = random_irreducible(rng, int(rng.integers(2, 9)))
        data = perron_eigen(a)
        scale = max(1.0, abs(data.mu))
        assert np.max(np.abs(a @ data.right_vector - data.mu * data.right_vector)) <= 1e-10 * scale
        assert np.max(np.abs(data.left_vector @ a - data.mu * data.left_vector)) <= 1e-10 * scale
        assert np.all(data.right_vector > 0) and np.all(data.left_vector > 0)


def test_perron_eigen_rejects_reducible():
    with pytest.raises(NotIrreducible):
        perron_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotIrreducible):
        perron_eigen(np.array([[0.0]]))


# -- adjugate -------------------------------------------------------------------


def test_adjugate_2x2_cofactors():
    got = adjugate(np.array([[0.5, -0.5], [-1.0, 1.0]]))
    assert got == pytest.approx(np.array([[1.0, 0.5], [1.0, 0.5]]))


def test_adjugate_identity_and_scalar():
    assert adjugate(np.eye(3)) == pytest.approx(np.eye(3))
    assert adjugate(np.array([[5.0]])) == pytest.approx(np.array([[1.0]]))


def test_adjugate_product_identity_on_random_and_singular():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        if rng.random() < 0.5:
            a[:, -1] = a[:, 0]  # force singularity
        det = np.linalg.det(a)
        adj = adjugate(a)
        scale = max(1.0, np.max(np.abs(a)) ** (n - 1))
        assert np.max(np.abs(a @ adj - det * np.eye(n))) <= 1e-9 * scale
        assert np.max(np.abs(adj @ a - det * np.eye(n))) <= 1e-9 * scale


def _assert_matches_cofactors(a, rel=1e-13):
    got, want = adjugate(a), cofactor_adjugate(a)
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_adjugate_matches_cofactor_expansion():
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        _assert_matches_cofactors(rng.normal(size=(n, n)))
        _assert_matches_cofactors(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        # Rank n - 1: the adjugate is rank one and nonzero.
        a = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        _assert_matches_cofactors(a)


def test_adjugate_of_rank_n_minus_2_is_zero():
    rng = np.random.default_rng(37)
    for n in range(3, 9):
        for dtype in (float, complex):
            left, right = rng.normal(size=(n, n - 2)), rng.normal(size=(n - 2, n))
            if dtype is complex:
                left = left + 1j * rng.normal(size=(n, n - 2))
                right = right + 1j * rng.normal(size=(n - 2, n))
            a = left @ right
            scale = np.linalg.norm(a, 2) ** (n - 1)
            assert np.max(np.abs(adjugate(a))) <= 1e-13 * scale
            assert np.max(np.abs(cofactor_adjugate(a))) <= 1e-13 * scale


def test_adjugate_at_lambda_matches_cofactors_n30():
    f = MatrixFunction(build_graph(ring_spec(30, 30, 0.9)), Mode.COUNTING)
    lam = solve_lambda(f).lam
    _assert_matches_cofactors(np.eye(30) - f.evaluate(lam))


def test_solve_lambda_checks_no_pattern_and_few_solves(monkeypatch):
    checks, solves = [], []
    is_irreducible, perron = spectral._is_irreducible, spectral._perron
    monkeypatch.setattr(spectral, "_is_irreducible", lambda a: checks.append(1) or is_irreducible(a))
    monkeypatch.setattr(spectral, "_perron", lambda a: solves.append(1) or perron(a))
    g = build_graph(ring_spec(20, 20, 0.9))
    # Every solve before the certified sign made 43 full Perron solves here.
    expected = {Mode.COUNTING: 2, Mode.PROBABILITY: 5, Mode.EDGE: 5}
    for mode in Mode:
        checks.clear()
        solves.clear()
        solve_lambda(MatrixFunction(g, mode))
        assert len(checks) == 0
        assert len(solves) == expected[mode] <= 8


def test_solve_lambda_reducible_graph_raises_before_any_solve(monkeypatch):
    solves = []
    perron = spectral._perron
    monkeypatch.setattr(spectral, "_perron", lambda a: solves.append(1) or perron(a))
    edges = [
        {"from": 1, "to": 1, "length": 1.0, "probability": 0.5},
        {"from": 1, "to": 2, "length": 2.0, "probability": 0.5},
        {"from": 2, "to": 2, "length": 1.5, "probability": 1.0},
    ]
    g = build_graph({"vertices": 2, "edges": edges})
    for mode in Mode:
        with pytest.raises(NotStronglyConnected):
            solve_lambda(MatrixFunction(g, mode))
    # One component, but M(s) = [[0]] is reducible.
    with pytest.raises(NotStronglyConnected, match="no edges"):
        solve_lambda(MatrixFunction(build_graph({"vertices": 1, "edges": []})))
    assert solves == []


def _reducible_specs():
    """Small graphs that are not strongly connected but have no isolated vertex.

    An isolated vertex leaves the line graph of the rest strongly connected,
    so only these make the edge-mode pattern reducible too.
    """
    def spec(n, arcs):
        out = {v: sum(1 for a in arcs if a[0] == v) for v in range(1, n + 1)}
        return {
            "vertices": n,
            "edges": [
                {"from": a, "to": b, "length": l, "probability": 0.9 / out[a]}
                for a, b, l in arcs
            ],
        }

    return [
        spec(2, [(1, 1, 1.0), (1, 2, 2.0), (2, 2, 1.5)]),
        spec(3, [(1, 2, 1.0), (2, 1, 1.3), (2, 3, 0.7), (3, 3, 2.0)]),
        spec(4, [(1, 2, 1.0), (2, 1, 1.1), (3, 4, 1.2), (4, 3, 0.9), (1, 3, 0.5)]),
        spec(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (4, 1, 1.0), (4, 4, 2.0)]),
    ]


@pytest.mark.parametrize("mode", list(Mode))
def test_pattern_of_m0_is_strong_connectivity(mode):
    """solve_lambda relies on strong_connectivity in place of _is_irreducible(M(0))."""
    specs = [ring_spec(seed, n, 0.9) for seed in range(6) for n in (1, 2, 5, 20)]
    specs += _reducible_specs()
    seen = set()
    for spec in specs:
        g = build_graph(spec)
        connected = strong_connectivity(g).strongly_connected
        m0 = MatrixFunction(g, mode).evaluate(0.0)
        assert spectral._is_irreducible(m0) == connected
        seen.add(connected)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [5, 20])
def test_certified_sign_solve_bit_identical_to_full_solves(monkeypatch, n):
    g = build_graph(ring_spec(n, n, 0.9))
    for mode in Mode:
        f = MatrixFunction(g, mode)
        fast = solve_lambda(f)
        with monkeypatch.context() as patch:
            # No bracket certifies anything, so every step is a full solve.
            patch.setattr(spectral, "_cw_bracket", lambda m, v: None)
            full = solve_lambda(f)
        assert (fast.lam, fast.residual, fast.bracket) == (full.lam, full.residual, full.bracket)
        assert fast.perron_at_lambda.mu == full.perron_at_lambda.mu
        assert np.array_equal(fast.perron_at_lambda.right_vector, full.perron_at_lambda.right_vector)
        assert np.array_equal(fast.perron_at_lambda.left_vector, full.perron_at_lambda.left_vector)
        assert np.array_equal(fast.q, full.q)


@pytest.mark.parametrize("mode", list(Mode))
def test_certified_sign_decisions_match_full_solves_near_root(mode):
    f = MatrixFunction(build_graph(ring_spec(20, 20, 0.9)), mode)
    lam = solve_lambda(f).lam
    near = [s * d for d in (1e-11, 3e-12, 1e-12, 5e-13, 2e-13, 1e-13, 1e-14) for s in (-1, 1)]
    offsets = sorted(list(np.linspace(-1e-3, 1e-3, 41)) + near)
    sign = spectral._CertifiedSign(f)
    certified = accepted = 0
    for sigma in (lam + d for d in offsets):
        before = sign.perron
        x = sign(sigma)
        mu = spectral._perron(f.evaluate(sigma)).mu
        if sign.perron is before:
            certified += 1
        assert (x >= 1.0) == (mu >= 1.0)
        assert (x > 1.0) == (mu > 1.0)
        assert (x <= 1.0) == (mu <= 1.0)
        assert (abs(x - 1.0) <= spectral.MU_TOLERANCE) == (abs(mu - 1.0) <= spectral.MU_TOLERANCE)
        if abs(mu - 1.0) <= spectral.MU_TOLERANCE:
            # Here solve_lambda stops and keeps |x - 1| as the residual.
            accepted += 1
            assert x == mu
    # All but the cold first step and the points within ~1e-11 of mu = 1.
    assert certified >= 38
    assert accepted >= 3


# -- Perron projection -----------------------------------------------------------


def test_projection_worked_2x2():
    p = perron_projection(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert p == pytest.approx(np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]), abs=1e-11)


def test_projection_cycle_matrix_uniform():
    n = 5
    cyc = np.zeros((n, n))
    for k in range(n):
        cyc[k, (k + 1) % n] = 1.0
    p = perron_projection(cyc, ADJUGATE)
    assert p == pytest.approx(np.full((n, n), 1 / n), abs=1e-11)
    with pytest.raises(NotPrimitive):
        perron_projection(cyc, POWER_LIMIT)


def test_projection_scalar():
    for method in PROJECTION_METHODS:
        assert perron_projection(np.array([[2.0]]), method) == pytest.approx(
            np.array([[1.0]])
        )


def test_projection_methods_agree():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a = random_irreducible(rng, int(rng.integers(2, 9)))
        projections = [perron_projection(a, m) for m in PROJECTION_METHODS]
        for p in projections:
            assert abs(np.trace(p) - 1.0) <= 1e-10
            assert np.max(np.abs(p @ p - p)) <= 1e-10
        for k in range(1, len(projections)):
            assert np.max(np.abs(projections[k] - projections[0])) <= 1e-8


# -- solve_lambda and q_matrix -----------------------------------------------------


def test_two_vertex_lambda_and_q(two_vertex):
    sol = solve_lambda(MatrixFunction(two_vertex, Mode.COUNTING))
    assert sol.lam == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= 1e-12
    expected = Q_SCALE * np.array([[1.0, 0.5], [1.0, 0.5]])
    assert np.max(np.abs(sol.q - expected)) <= 1e-12


def test_two_loop_substitution_lambda():
    g = build_graph(
        {
            "vertices": 1,
            "edges": [
                {"from": 1, "to": 1, "length": {"log_of": 3}},
                {"from": 1, "to": 1, "length": {"log_of": 1.5}},
            ],
        }
    )
    sol = solve_lambda(MatrixFunction(g, Mode.COUNTING))
    assert sol.lam == pytest.approx(1.0, abs=1e-12)
    expected_q = 1.0 / (math.log(3) / 3 + 2 * math.log(1.5) / 3)
    assert sol.q[0, 0] == pytest.approx(expected_q, abs=1e-12)


def test_stochastic_annotation_gives_lambda_zero(two_vertex_stochastic):
    for mode in (Mode.PROBABILITY, Mode.EDGE):
        sol = solve_lambda(MatrixFunction(two_vertex_stochastic, mode))
        assert sol.lam == 0.0
        assert sol.residual <= 1e-12


def test_half_probability_loop_lambda(half_loop):
    for mode in (Mode.PROBABILITY, Mode.EDGE):
        sol = solve_lambda(MatrixFunction(half_loop, mode))
        assert sol.lam == pytest.approx(-math.log(2), abs=1e-12)


def test_substochastic_two_vertex_negative_lambda():
    g = build_graph(two_vertex_spec(probability=0.25))
    sol_n = solve_lambda(MatrixFunction(g, Mode.PROBABILITY))
    assert sol_n.lam < 0
    assert np.all(sol_n.q > 0)
    # The edge-indexed walk describes the same process: same exponent.
    sol_w = solve_lambda(MatrixFunction(g, Mode.EDGE))
    assert sol_w.lam == pytest.approx(sol_n.lam, abs=1e-11)
    assert sol_w.q.shape == (4, 4)
    assert np.all(sol_w.q > 0)


def test_solve_lambda_requires_strong_connectivity():
    g = build_graph({"vertices": 2, "edges": [{"from": 1, "to": 2, "length": 1.0}]})
    with pytest.raises(NotStronglyConnected):
        solve_lambda(MatrixFunction(g, Mode.COUNTING))


def test_q_matrix_singular_denominator():
    g = build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": 1, "to": 1, "length": 1.0},
                {"from": 2, "to": 2, "length": 1.0},
            ],
        }
    )
    # Two disjoint loops: mu(0) = 1 is a double root, the residue blows up.
    with pytest.raises(SingularDenominator):
        q_matrix(MatrixFunction(g, Mode.COUNTING), 0.0)


def test_counting_bracket_failure_is_unreachable_for_valid_graphs(two_vertex):
    # mu(0) >= 1 for any strongly connected graph, so no failure here.
    sol = solve_lambda(MatrixFunction(two_vertex, Mode.COUNTING))
    assert sol.bracket[0] <= sol.lam <= sol.bracket[1]


# -- invariants -----------------------------------------------------------------


def test_spectral_radius_strictly_decreasing(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    sigmas = np.linspace(-1.0, 3.0, 17)
    mus = [perron_eigen(f.evaluate(s)).mu for s in sigmas]
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_complex_powers_dominated_by_real_axis(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = complex(rng.uniform(-0.5, 2.0), rng.uniform(-8, 8))
        m_complex = f.evaluate(s)
        m_real = f.evaluate(s.real)
        for k in range(1, 7):
            lhs = np.abs(np.linalg.matrix_power(m_complex, k))
            rhs = np.linalg.matrix_power(m_real, k)
            assert np.all(lhs <= rhs + 1e-12)


def test_adjugate_at_lambda_positive_and_pole_simple(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    sol = solve_lambda(f)
    m = np.eye(2) - f.evaluate(sol.lam)
    adj = adjugate(m)
    assert np.all(adj > 0)
    assert abs(np.linalg.det(m)) <= 1e-10
    det_derivative = -np.trace(adj @ f.evaluate_derivative(sol.lam))
    assert abs(det_derivative) > 0.1


def test_q_is_rank_one_and_positive(two_vertex):
    sol = solve_lambda(MatrixFunction(two_vertex, Mode.COUNTING))
    assert np.all(sol.q > 0)
    singular_values = np.linalg.svd(sol.q, compute_uv=False)
    assert singular_values[1] <= 1e-8 * singular_values[0]


def test_critical_line_scan_bounded_away_from_zero(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    grid = np.linspace(0.5, 40.0, 400)
    values = critical_line_scan(f, 1.0, grid)
    assert values.min() > 1e-2
    # Negative control: a lattice spectrum re-vanishes along the line.
    cycle = build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": 1, "to": 2, "length": 1.0},
                {"from": 2, "to": 1, "length": 1.0},
            ],
        }
    )
    lattice = critical_line_scan(
        MatrixFunction(cycle, Mode.COUNTING), 0.0, np.linspace(0.5, 40.0, 400)
    )
    assert lattice.min() < 1e-2


def test_scale_covariance(two_vertex):
    c = 2.75
    scaled = build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": e.source, "to": e.target, "length": c * e.length}
                for e in two_vertex.edges
            ],
        }
    )
    base = solve_lambda(MatrixFunction(two_vertex, Mode.COUNTING))
    other = solve_lambda(MatrixFunction(scaled, Mode.COUNTING))
    assert other.lam == pytest.approx(base.lam / c, abs=1e-10)
    assert np.max(np.abs(c * other.q - base.q)) <= 1e-8
