"""Leading-order estimators and Laplace transforms, one factor per family.

Each family's Laplace transform is a factor times a resolvent entry,
L(s) = factor(s) R_ij(s) with R(s) = (I - M(s))^-1, and its leading
coefficient is the residue of L at the simple pole lam: factor(lam) Q_ij.
``FAMILIES`` gives each family's mode and second index, and ``_scaled``
applies its factor, so the estimators and the transforms share one
definition:

- family A, paths i -> j of length at most x:   factor 1/s
- family B, paths from i onto edge alpha:       factor (1-e^(-l s))/s
- family C, walker exactly at j at time T:      factor 1, atomic support
- family D, walker on edge alpha at time T:     factor p (1-e^(-l s))/s
- survival, walker still on the graph:          sum of D over all edges

For B and D, j is the source of alpha.  An estimate is coefficient
e^(lam x).  For lam = 0 the entire function (1 - e^(-l s))/s takes the value
l, family D tends to the constant p*l*Q_ij, and survival is identically 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPositiveLambda, ValidationError, WrongMode
from .spectral import MatrixFunction, Mode, SpectralSolution, solve_lambda

# family -> (mode, second index): "to" names a vertex j, "edge" an edge alpha
# whose source is j, and survival has no second index.
FAMILIES = {
    "A": (Mode.COUNTING, "to"),
    "B": (Mode.COUNTING, "edge"),
    "C": (Mode.PROBABILITY, "to"),
    "D": (Mode.PROBABILITY, "edge"),
    "survival": (Mode.PROBABILITY, None),
}

# Pole-residue scan points: s = lam + 10^-k.
RESIDUE_SCAN_EXPONENTS = range(2, 7)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """One leading-order law: value_at(x) = coefficient * e^(rate * x).

    ``atomic_support`` flags estimates (family C) whose exact counterpart is
    a sum of point masses: the law holds along the countable set of times
    where the mass is non-zero, and pointwise evaluation between atoms would
    be misleading.
    """

    coefficient: float
    rate: float
    atomic_support: bool = False

    def value_at(self, x: float) -> float:
        return self.coefficient * math.exp(self.rate * x)


def exp_decay_factor(s, length: float):
    """(1 - e^(-length*s)) / s, extended entirely with value ``length`` at 0.

    A short power series takes over for |length*s| < 1e-4, where the direct
    expression loses digits to cancellation.
    """
    z = s * length
    if abs(z) < 1e-4:
        # length * (1 - z/2 + z^2/6 - z^3/24); truncation error ~ |z|^4/120
        return length * (1.0 - z / 2.0 + z * z / 6.0 - z * z * z / 24.0)
    if isinstance(s, complex):
        return (1.0 - cmath.exp(-z)) / s
    return (1.0 - math.exp(-z)) / s


def _second_index(family: str, mode: Mode):
    """The family's second index, once ``mode`` is checked to be the family's."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    want, index = FAMILIES[family]
    if mode is not want:
        raise WrongMode(f"family {family} needs a {want.value}-mode input, got {mode.value}")
    return index


def _resolve(graph, index: str, indices) -> tuple:
    """(i, j, alpha) for one family's indices; alpha is None for families A and C."""
    i, ref = indices
    alpha = graph.edge(ref) if index == "edge" else None
    j = ref if alpha is None else alpha.source
    for vertex in (i, j):
        graph.out_edges(vertex)  # IndexOutOfRange outside 1..n
    return i, j, alpha


def _scaled(family: str, s, alpha, x):
    """factor(s) * x for the family, in one operand order for every caller."""
    if family == "A":
        return x / s
    if family == "B":
        return exp_decay_factor(s, alpha.length) * x
    if family == "C":
        return x
    return alpha.probability * exp_decay_factor(s, alpha.length) * x


def leading_estimate(sol: SpectralSolution, family: str, indices) -> AsymptoticEstimate:
    """The family's leading-order law, its coefficient factor(lam) Q_ij.

    ``indices`` is (i, j) for families A and C, (i, edge) for B and D and (i,)
    for survival.  Counting families need lam > 0.  Survival sums the family-D
    coefficients over every edge for lam < 0; a stochastic graph (lam = 0)
    never loses its walker, so its constant is exactly 1.
    """
    index = _second_index(family, sol.mode)
    if sol.mode is Mode.COUNTING and sol.lam <= 0.0:
        raise NonPositiveLambda(f"family {family} needs lam > 0, got {sol.lam!r}")
    if index is None:
        [i] = indices
        sol.graph.out_edges(i)  # IndexOutOfRange outside 1..n
        coefficient = 1.0 if sol.lam == 0.0 else sum(
            _scaled("D", sol.lam, e, sol.q[i - 1, e.source - 1]) for e in sol.graph.edges
        )
    else:
        i, j, alpha = _resolve(sol.graph, index, indices)
        coefficient = _scaled(family, sol.lam, alpha, sol.q[i - 1, j - 1])
    return AsymptoticEstimate(coefficient, rate=sol.lam, atomic_support=family == "C")


def count_paths_asymptotic(sol: SpectralSolution, i: int, j: int) -> AsymptoticEstimate:
    """Family A: paths from i to j of length at most x grow like (Q_ij/lam) e^(lam x)."""
    return leading_estimate(sol, "A", (i, j))


def count_edge_hits_asymptotic(sol: SpectralSolution, i: int, edge_ref) -> AsymptoticEstimate:
    """Family B: paths of length exactly x from i to a point on the given edge."""
    return leading_estimate(sol, "B", (i, edge_ref))


def vertex_probability_asymptotic(sol: SpectralSolution, i: int, j: int) -> AsymptoticEstimate:
    """Family C: probability of being exactly at j at time T, flagged ``atomic_support``."""
    return leading_estimate(sol, "C", (i, j))


def edge_probability_asymptotic(sol: SpectralSolution, i: int, edge_ref) -> AsymptoticEstimate:
    """Family D: probability of being on the given edge at time T."""
    return leading_estimate(sol, "D", (i, edge_ref))


def survival_probability_asymptotic(sol: SpectralSolution, i: int) -> AsymptoticEstimate:
    """Probability of still being on the graph at time T."""
    return leading_estimate(sol, "survival", (i,))


# -- Laplace transforms ------------------------------------------------------------


def laplace_transform(f: MatrixFunction, family: str, indices, s, lam: float | None = None):
    """Closed-form Laplace transform factor(s) R_ij(s) of one family A-D.

    ``indices`` is (i, j) for families A and C, (i, edge) for B and D.  The
    transform is analytic for Re(s) > lam with a simple pole at lam; points
    with Re(s) <= lam raise DomainError.  ``lam`` may be passed to skip the
    internal critical-exponent solve when evaluating on a grid.
    """
    index = _second_index(family, f.mode)
    if index is None:
        raise ValidationError(f"no transform for family {family!r}")
    if lam is None:
        lam = solve_lambda(f).lam
    if np.real(s) <= lam:
        raise DomainError(f"Re(s) = {np.real(s)!r} is not above lam = {lam!r}")
    i, j, alpha = _resolve(f.graph, index, indices)
    resolvent = np.linalg.inv(np.eye(f.dimension, dtype=complex) - f.evaluate(complex(s)))
    value = _scaled(family, s, alpha, resolvent[i - 1, j - 1])
    if np.imag(s) == 0:
        return float(np.real(value))
    return complex(value)


def pole_residue_scan(f: MatrixFunction, family: str, indices, lam: float | None = None):
    """Evaluate (s - lam) * L(s) at s = lam + 10^-k for each k in RESIDUE_SCAN_EXPONENTS.

    The sequence converges to the family's leading coefficient (the residue
    of the transform at its simple pole); useful as a numerical diagnostic.
    """
    if lam is None:
        lam = solve_lambda(f).lam
    rows = []
    for k in RESIDUE_SCAN_EXPONENTS:
        eps = 10.0 ** (-k)
        value = laplace_transform(f, family, indices, lam + eps, lam=lam)
        rows.append((eps, eps * value))
    return rows
