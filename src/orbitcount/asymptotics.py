"""Leading-order estimators for counting and occupation functions.

Each estimator packages the leading coefficient and the exponential rate into
an :class:`AsymptoticEstimate`, so callers can tabulate any grid.  The
coefficient conventions:

- family A, paths i -> j of length at most x:   (Q_ij / lam) e^(lam x)
- family B, paths from i onto edge alpha:       ((1-e^(-l lam))/lam) Q_ij e^(lam x)
- family C, walker exactly at j at time T:      Q_ij e^(lam T), atomic support
- family D, walker on edge alpha at time T:     p (1-e^(-l lam))/lam Q_ij e^(lam T)
- survival, walker still on the graph:          sum of D over all edges

For lam = 0 the entire function (1 - e^(-l s))/s takes the value l, family D
tends to the constant p*l*Q_ij, and survival is identically 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPositiveLambda, ValidationError, WrongMode
from .spectral import MatrixFunction, Mode, SpectralSolution, solve_lambda

FAMILY_A = "A"
FAMILY_B = "B"
FAMILY_C = "C"
FAMILY_D = "D"
FAMILY_SURVIVAL = "survival"


@dataclass(frozen=True)
class AsymptoticEstimate:
    """One leading-order law: value_at(x) = coefficient * e^(rate * x).

    ``atomic_support`` flags estimates (family C) whose exact counterpart is
    a sum of point masses: the law holds along the countable set of times
    where the mass is non-zero, and pointwise evaluation between atoms would
    be misleading.
    """

    family: str
    coefficient: float
    rate: float
    indices: tuple
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


def _require_mode(sol: SpectralSolution, *modes: Mode):
    if sol.mode not in modes:
        names = " or ".join(m.value for m in modes)
        raise WrongMode(f"estimator needs a {names} solution, got {sol.mode.value}")


def count_paths_asymptotic(sol: SpectralSolution, i: int, j: int) -> AsymptoticEstimate:
    """Family A: paths from i to j of length at most x grow like (Q_ij/lam) e^(lam x)."""
    _require_mode(sol, Mode.COUNTING)
    if sol.lam <= 0.0:
        raise NonPositiveLambda(f"family A needs lam > 0, got {sol.lam!r}")
    return AsymptoticEstimate(
        family=FAMILY_A,
        coefficient=sol.q[i - 1, j - 1] / sol.lam,
        rate=sol.lam,
        indices=(i, j),
    )


def count_edge_hits_asymptotic(sol: SpectralSolution, i: int, edge_ref) -> AsymptoticEstimate:
    """Family B: paths of length exactly x from i to a point on the given edge."""
    _require_mode(sol, Mode.COUNTING)
    if sol.lam <= 0.0:
        raise NonPositiveLambda(f"family B needs lam > 0, got {sol.lam!r}")
    alpha = sol.graph.edge(edge_ref)
    j = alpha.source
    return AsymptoticEstimate(
        family=FAMILY_B,
        coefficient=exp_decay_factor(sol.lam, alpha.length) * sol.q[i - 1, j - 1],
        rate=sol.lam,
        indices=(i, alpha.id),
    )


def vertex_probability_asymptotic(sol: SpectralSolution, i: int, j: int) -> AsymptoticEstimate:
    """Family C: probability of being exactly at j at time T decays like Q_ij e^(lam T).

    Valid along the countable set of times with non-zero mass; the estimate
    is flagged ``atomic_support`` accordingly.
    """
    _require_mode(sol, Mode.PROBABILITY)
    return AsymptoticEstimate(
        family=FAMILY_C,
        coefficient=sol.q[i - 1, j - 1],
        rate=sol.lam,
        indices=(i, j),
        atomic_support=True,
    )


def edge_probability_asymptotic(sol: SpectralSolution, i: int, edge_ref) -> AsymptoticEstimate:
    """Family D: probability of being on the given edge at time T.

    For lam < 0 the coefficient is p (1-e^(-l lam))/lam Q_ij; at lam = 0 the
    same expression degenerates to the limiting constant p*l*Q_ij.
    """
    _require_mode(sol, Mode.PROBABILITY)
    alpha = sol.graph.edge(edge_ref)
    j = alpha.source
    return AsymptoticEstimate(
        family=FAMILY_D,
        coefficient=alpha.probability
        * exp_decay_factor(sol.lam, alpha.length)
        * sol.q[i - 1, j - 1],
        rate=sol.lam,
        indices=(i, alpha.id),
    )


def survival_probability_asymptotic(sol: SpectralSolution, i: int) -> AsymptoticEstimate:
    """Probability of still being on the graph at time T.

    Sums the family-D coefficients over every edge for lam < 0; a stochastic
    graph (lam = 0) never loses its walker, so the constant is exactly 1.
    """
    _require_mode(sol, Mode.PROBABILITY)
    if sol.lam == 0.0:
        coefficient = 1.0
    else:
        coefficient = sum(
            edge_probability_asymptotic(sol, i, e).coefficient for e in sol.graph.edges
        )
    return AsymptoticEstimate(
        family=FAMILY_SURVIVAL,
        coefficient=coefficient,
        rate=sol.lam,
        indices=(i,),
    )


# -- Laplace transforms ------------------------------------------------------------


_FAMILY_MODES = {
    FAMILY_A: Mode.COUNTING,
    FAMILY_B: Mode.COUNTING,
    FAMILY_C: Mode.PROBABILITY,
    FAMILY_D: Mode.PROBABILITY,
}


def laplace_transform(f: MatrixFunction, family: str, indices, s, lam: float | None = None):
    """Closed-form Laplace transform of one counting/occupation function.

    ``indices`` is (i, j) for families A and C, (i, edge) for B and D.  The
    transform is analytic for Re(s) > lam with a simple pole at lam; points
    with Re(s) <= lam raise DomainError.  ``lam`` may be passed to skip the
    internal critical-exponent solve when evaluating on a grid.
    """
    if family not in _FAMILY_MODES:
        raise ValidationError(f"unknown family {family!r}")
    if f.mode is not _FAMILY_MODES[family]:
        raise WrongMode(
            f"family {family} needs a {_FAMILY_MODES[family].value}-mode function"
        )
    if lam is None:
        lam = solve_lambda(f).lam
    if np.real(s) <= lam:
        raise DomainError(f"Re(s) = {np.real(s)!r} is not above lam = {lam!r}")

    i = indices[0]
    if family in (FAMILY_A, FAMILY_C):
        j = indices[1]
        alpha = None
    else:
        alpha = f.graph.edge(indices[1])
        j = alpha.source

    dim = f.dimension
    resolvent = np.linalg.inv(np.eye(dim, dtype=complex) - f.evaluate(complex(s)))
    entry = resolvent[i - 1, j - 1]
    if family == FAMILY_A:
        value = entry / s
    elif family == FAMILY_B:
        value = exp_decay_factor(s, alpha.length) * entry
    elif family == FAMILY_C:
        value = entry
    else:
        value = alpha.probability * exp_decay_factor(s, alpha.length) * entry
    if np.imag(s) == 0:
        return float(np.real(value))
    return complex(value)


def pole_residue_scan(
    f: MatrixFunction,
    family: str,
    indices,
    lam: float | None = None,
    exponents=range(2, 7),
):
    """Evaluate (s - lam) * L(s) at s = lam + 10^-k for each k.

    The sequence converges to the family's leading coefficient (the residue
    of the transform at its simple pole); useful as a numerical diagnostic.
    """
    if lam is None:
        lam = solve_lambda(f).lam
    rows = []
    for k in exponents:
        eps = 10.0 ** (-k)
        value = laplace_transform(f, family, indices, lam + eps, lam=lam)
        rows.append((eps, eps * value))
    return rows
