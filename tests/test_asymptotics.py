"""Leading coefficients, limit constants, and transform diagnostics.

Claims covered:
    - family A and B coefficients reproduce the two-vertex example's constants
      and reject non-positive exponents
    - family C/D/survival coefficients match loop-graph closed forms, the
      lam = 0 occupancy constants sum to 1 from every start vertex, and the
      wrong solution mode is rejected
    - the entire extension of (1 - e^(-ls))/s is accurate through the
      cancellation regime
    - B coefficients divided by their width factors recover the rank-one
      column structure of Q
    - the lattice (all lengths equal) reduction: exact counts at integer x
      follow the adjacency-power formula, and Q coincides with the Perron
      projection
    - Laplace transforms match independent series sums, respect the
      convergence half-plane, and their pole residues recover the family
      coefficients
"""

import math

import numpy as np
import pytest

from orbitcount import build_graph
from orbitcount.asymptotics import (
    count_edge_hits_asymptotic,
    count_paths_asymptotic,
    edge_probability_asymptotic,
    exp_decay_factor,
    laplace_transform,
    pole_residue_scan,
    survival_probability_asymptotic,
    vertex_probability_asymptotic,
)
from orbitcount.errors import DomainError, NonPositiveLambda, WrongMode
from orbitcount.oracle import count_paths_exact, truncated_laplace_sum
from orbitcount.spectral import (
    ADJUGATE,
    MatrixFunction,
    Mode,
    perron_eigen,
    perron_projection,
    solve_lambda,
)

Q_SCALE = 6.0 / math.log(432.0)


@pytest.fixture
def counting_solution(two_vertex):
    return solve_lambda(MatrixFunction(two_vertex, Mode.COUNTING))


@pytest.fixture
def stochastic_solution(two_vertex_stochastic):
    return solve_lambda(MatrixFunction(two_vertex_stochastic, Mode.PROBABILITY))


# -- families A and B -----------------------------------------------------------


def test_family_a_coefficients(counting_solution):
    est = count_paths_asymptotic(counting_solution, 1, 1)
    assert est.coefficient == pytest.approx(Q_SCALE, abs=1e-12)
    assert est.rate == pytest.approx(1.0, abs=1e-12)
    assert count_paths_asymptotic(counting_solution, 1, 2).coefficient == pytest.approx(
        Q_SCALE / 2, abs=1e-12
    )
    assert est.value_at(3.0) == pytest.approx(Q_SCALE * math.exp(3.0))


def test_family_a_rejects_nonpositive_rate(stochastic_solution):
    with pytest.raises(WrongMode):
        count_paths_asymptotic(stochastic_solution, 1, 1)
    # A commensurable pure cycle has exponent zero in counting mode.
    cycle = build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": 1, "to": 2, "length": 1.0},
                {"from": 2, "to": 1, "length": 1.0},
            ],
        }
    )
    flat = solve_lambda(MatrixFunction(cycle, Mode.COUNTING))
    assert flat.lam == 0.0
    with pytest.raises(NonPositiveLambda):
        count_paths_asymptotic(flat, 1, 2)
    with pytest.raises(NonPositiveLambda):
        count_edge_hits_asymptotic(flat, 1, 0)


def test_family_b_worked_coefficients(counting_solution):
    est = count_edge_hits_asymptotic(counting_solution, 1, "gamma2")
    assert est.coefficient == pytest.approx(1.0 / math.log(math.sqrt(432.0)), abs=1e-12)
    est22 = count_edge_hits_asymptotic(counting_solution, 2, "gamma2")
    assert est22.coefficient == pytest.approx((2.0 / 3.0) * (3.0 / math.log(432.0)), abs=1e-12)


def test_family_b_short_edge_limit(counting_solution):
    # For l -> 0 the width factor tends to l itself.
    q11 = counting_solution.q[0, 0]
    lam = counting_solution.lam
    tiny = 1e-8
    assert exp_decay_factor(lam, tiny) * q11 == pytest.approx(tiny * q11, rel=1e-7)


def test_exp_decay_factor_series_branch():
    # expm1 is the cancellation-free reference on the real axis.
    for s in (1e-9, 1e-5, -3e-5, 0.3):
        assert exp_decay_factor(s, 1.7) == pytest.approx(
            -math.expm1(-s * 1.7) / s, rel=1e-12
        )
    assert exp_decay_factor(0.0, 2.5) == 2.5
    assert exp_decay_factor(2.0, 0.5) == pytest.approx((1 - math.exp(-1.0)) / 2.0)
    z = exp_decay_factor(1e-6 + 1e-6j, 3.0)
    assert z == pytest.approx(3.0, rel=1e-5)


def test_b_coefficients_recover_q_columns(counting_solution):
    q = counting_solution.q
    lam = counting_solution.lam
    for i in (1, 2):
        for alpha in counting_solution.graph.edges:
            est = count_edge_hits_asymptotic(counting_solution, i, alpha.id)
            recovered = est.coefficient / exp_decay_factor(lam, alpha.length)
            assert recovered == pytest.approx(q[i - 1, alpha.source - 1], abs=1e-12)


# -- families C, D, survival -------------------------------------------------------


def test_family_c_unit_loop(unit_loop):
    sol = solve_lambda(MatrixFunction(unit_loop, Mode.PROBABILITY))
    est = vertex_probability_asymptotic(sol, 1, 1)
    assert est.coefficient == pytest.approx(1.0, abs=1e-12)  # Q = 1/L with L = 1
    assert est.rate == 0.0
    assert est.atomic_support


def test_family_c_rejects_counting_mode(counting_solution):
    with pytest.raises(WrongMode):
        vertex_probability_asymptotic(counting_solution, 1, 1)


def test_family_c_subuno_rate(half_loop):
    sol = solve_lambda(MatrixFunction(half_loop, Mode.PROBABILITY))
    assert sol.lam == pytest.approx(-math.log(2), abs=1e-12)
    assert vertex_probability_asymptotic(sol, 1, 1).rate < 0


def test_family_d_unit_loop_constant(unit_loop):
    sol = solve_lambda(MatrixFunction(unit_loop, Mode.PROBABILITY))
    est = edge_probability_asymptotic(sol, 1, 0)
    assert est.coefficient == pytest.approx(1.0, abs=1e-12)  # p*l*Q = 1*1*1
    assert est.value_at(100.0) == pytest.approx(1.0)


def test_family_d_half_loop_coefficient(half_loop):
    sol = solve_lambda(MatrixFunction(half_loop, Mode.PROBABILITY))
    # Q = 1 for the 1x1 case; coefficient 0.5 (1 - e^(log 2)) / (-log 2).
    est = edge_probability_asymptotic(sol, 1, 0)
    assert est.coefficient == pytest.approx(0.5 / math.log(2), abs=1e-12)


def test_survival_is_sum_of_edge_coefficients(half_loop):
    sol = solve_lambda(MatrixFunction(half_loop, Mode.PROBABILITY))
    total = survival_probability_asymptotic(sol, 1)
    single = edge_probability_asymptotic(sol, 1, 0)
    assert total.coefficient == pytest.approx(single.coefficient, abs=1e-14)


def test_stochastic_survival_constant_one(stochastic_solution):
    est = survival_probability_asymptotic(stochastic_solution, 1)
    assert est.coefficient == 1.0
    assert est.rate == 0.0


def test_lambda_zero_occupancy_sums_to_one(stochastic_solution):
    g = stochastic_solution.graph
    for i in (1, 2):
        total = sum(
            edge_probability_asymptotic(stochastic_solution, i, e.id).coefficient
            for e in g.edges
        )
        assert total == pytest.approx(1.0, abs=1e-12)


# -- lattice reduction ---------------------------------------------------------------


@pytest.fixture
def fibonacci_graph():
    return build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": 1, "to": 1, "length": 1.0},
                {"from": 1, "to": 2, "length": 1.0},
                {"from": 2, "to": 1, "length": 1.0},
            ],
        }
    )


def test_lattice_counts_follow_adjacency_powers(fibonacci_graph):
    f = MatrixFunction(fibonacci_graph, Mode.COUNTING)
    mu = perron_eigen(f.evaluate(0.0)).mu
    p = perron_projection(f.evaluate(0.0), ADJUGATE)
    x = 45
    exact = count_paths_exact(fibonacci_graph, 1, 1, float(x))
    predicted = p[0, 0] * mu ** (x + 1) / (mu - 1.0)
    assert exact == pytest.approx(predicted, rel=1e-8)


def test_lattice_q_equals_perron_projection(fibonacci_graph):
    f = MatrixFunction(fibonacci_graph, Mode.COUNTING)
    sol = solve_lambda(f)
    mu = perron_eigen(f.evaluate(0.0)).mu
    assert sol.lam == pytest.approx(math.log(mu), abs=1e-12)
    p = perron_projection(f.evaluate(0.0), ADJUGATE)
    assert np.max(np.abs(sol.q - p)) <= 1e-8


# -- Laplace transforms ---------------------------------------------------------------


def test_transform_family_a_value(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    # adj(I-M(2))/det at (1,1) is 18/11; family A divides by s.
    assert laplace_transform(f, "A", (1, 1), 2.0) == pytest.approx(9.0 / 11.0, abs=1e-12)


def test_transform_matches_truncated_series(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    series = truncated_laplace_sum(two_vertex, 1, 1, 2.0, max_length=16.0)
    value = laplace_transform(f, "A", (1, 1), 2.0) * 2.0  # undo the 1/s factor
    assert series == pytest.approx(value, rel=1e-6)


def test_transform_domain_error(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    with pytest.raises(DomainError):
        laplace_transform(f, "A", (1, 1), 0.5)
    with pytest.raises(DomainError):
        laplace_transform(f, "B", (1, "gamma2"), complex(1.0, 5.0))


def test_transform_family_d_at_zero_integrates_occupancy(half_loop):
    # Integral of the on-edge probability over all time: sum 2^-(k+1) = 1.
    f = MatrixFunction(half_loop, Mode.PROBABILITY)
    assert laplace_transform(f, "D", (1, 0), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_transform_wrong_family_mode(two_vertex, two_vertex_stochastic):
    with pytest.raises(WrongMode):
        laplace_transform(MatrixFunction(two_vertex, Mode.COUNTING), "C", (1, 1), 2.0)
    with pytest.raises(WrongMode):
        laplace_transform(
            MatrixFunction(two_vertex_stochastic, Mode.PROBABILITY), "A", (1, 1), 2.0
        )


def test_pole_residues_recover_family_coefficients(two_vertex, two_vertex_stochastic):
    counting = MatrixFunction(two_vertex, Mode.COUNTING)
    sol_m = solve_lambda(counting)
    prob = MatrixFunction(two_vertex_stochastic, Mode.PROBABILITY)
    sol_n = solve_lambda(prob)
    cases = [
        (counting, "A", (1, 1), count_paths_asymptotic(sol_m, 1, 1).coefficient, sol_m.lam),
        (
            counting,
            "B",
            (1, "gamma2"),
            count_edge_hits_asymptotic(sol_m, 1, "gamma2").coefficient,
            sol_m.lam,
        ),
        (prob, "C", (1, 2), vertex_probability_asymptotic(sol_n, 1, 2).coefficient, sol_n.lam),
        (
            prob,
            "D",
            (1, "gamma1"),
            edge_probability_asymptotic(sol_n, 1, "gamma1").coefficient,
            sol_n.lam,
        ),
    ]
    for f, family, indices, coefficient, lam in cases:
        rows = pole_residue_scan(f, family, indices, lam=lam)
        drift = abs(rows[-1][1] / coefficient - 1.0)
        assert drift <= 1e-3, (family, drift)
        # Residue estimates approach the coefficient monotonically in epsilon.
        errors = [abs(value - coefficient) for _, value in rows]
        assert errors[-1] < errors[0]
