"""Matrix functions of a weighted digraph and their Perron-Frobenius analysis.

A graph G with edge lengths l defines a matrix-valued function of a complex
variable s whose (i, j) entry sums e^(-s*l) over the edges i -> j, optionally
weighted by transition probabilities (vertex or edge based).  The critical
exponent ``lambda`` is the unique real s at which the dominant eigenvalue of
that matrix equals 1; the rank-one coefficient matrix Q collects the leading
asymptotic constants.  Everything here is dense and O(n^3) per matrix: M(s)
is assembled from precomputed term arrays, the adjugate behind Q comes from
one SVD, and the bisection for ``lambda`` usually makes only two full
Perron solves, at 0 and at ``lambda``: Newton's method certifies an
enclosure of ``lambda`` that decides the far steps with no evaluation, and
a Collatz-Wielandt bracket from a warm vector certifies the side of each
step inside it, so n in the hundreds stays interactive.  ``lambda`` itself
stays the bisection's midpoint, bit for bit.  The sparsity pattern of M(s)
is the graph's (vertex modes) or its line graph's (edge mode), so strong
connectivity of the graph stands in for an irreducibility check in the
solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BracketFailure,
    DidNotConverge,
    MissingProbabilities,
    NotIrreducible,
    NotPrimitive,
    NotStronglyConnected,
    SingularDenominator,
    ValidationError,
)
from .graph import WeightedDigraph, strong_connectivity

# Diagonal shift added before power iteration; keeps the iteration matrix
# primitive for any irreducible non-negative input without moving eigenvectors.
PRIMITIVITY_SHIFT = 1e-3

MU_TOLERANCE = 1e-12
_WARM_STEPS = 2
# Perron solves: the Collatz-Wielandt bracket closes to this relative width
# within this many power steps (and 200 inverse-iteration steps).
PERRON_TOLERANCE = 1e-13
PERRON_MAX_ITER = 500
# Newton steps toward lambda before the certified enclosure gives up.
_NEWTON_STEPS = 12
MAX_BISECTIONS = 200
BRACKET_CEILING = 64.0  # bracket expansion stops at 64 / min edge length


class Mode(enum.Enum):
    """Which weights enter the matrix entries."""

    COUNTING = "counting"       # plain e^(-s*l), vertex-indexed
    PROBABILITY = "probability"  # p * e^(-s*l), vertex-indexed
    EDGE = "edge"               # p * e^(-s*l), edge-indexed random walk


@dataclass(frozen=True)
class PerronData:
    """Dominant eigenvalue and positive left/right eigenvectors, u^T v = 1."""

    mu: float
    right_vector: np.ndarray
    left_vector: np.ndarray


@dataclass(frozen=True)
class SpectralSolution:
    """Critical exponent and coefficient matrix for one matrix function.

    ``bracket`` is where the bisection started and ``residual`` is
    |mu(lam) - 1| from the full solve at ``lam``.  ``enclosure`` is the
    certified (a, b) with mu(a) > 1 > mu(b), so a < lambda < b, that spared
    the bisection its far steps; None when lam is an end or the midpoint of
    the bracket, or the enclosure could not be certified.  Its certificate
    assumes that rounding in M(sigma) moves mu by less than the ~5e-14
    slack of the margin (see _sign_margin): each entry w * e^(-sigma*l) is
    correct to about |sigma * l| / 2 + 2 ulps, so this holds while
    |lambda| * max l stays below ~200.  ``dmu_dsigma`` is u^T M'(lam) v with
    the Perron vectors at lam (u^T v = 1): the slope of mu at the root,
    negative for a simple root, which turns a residual into an error in
    lam, |mu - 1| / |dmu_dsigma|.
    """

    function: "MatrixFunction"
    lam: float
    q: np.ndarray
    perron_at_lambda: PerronData
    bracket: tuple[float, float]
    residual: float
    enclosure: tuple[float, float] | None
    dmu_dsigma: float

    @property
    def graph(self) -> WeightedDigraph:
        return self.function.graph

    @property
    def mode(self) -> Mode:
        return self.function.mode


@dataclass(frozen=True)
class MatrixFunction:
    """A graph together with an evaluation mode.

    ``evaluate`` returns a real matrix for real s and a complex matrix
    otherwise; entries are entrywise non-negative on the real axis.
    """

    graph: WeightedDigraph
    mode: Mode = Mode.COUNTING

    def __post_init__(self):
        if self.mode is not Mode.COUNTING and not self.graph.has_probabilities:
            raise MissingProbabilities(
                f"{self.mode.value} mode requires a fully probability-annotated graph"
            )

    @property
    def dimension(self) -> int:
        if self.mode is Mode.EDGE:
            return self.graph.edge_count
        return self.graph.vertex_count

    @cached_property
    def _term_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat index (row * dimension + col), weight and length of every term."""
        g = self.graph
        if self.mode is Mode.EDGE:
            # Edge-based walk: entry (beta, alpha) is the probability of picking
            # beta after traversing alpha, times e^(-s*l(alpha)); beta must leave
            # the vertex where alpha ends.
            terms = [
                (beta.id, alpha.id, beta.probability, alpha.length)
                for alpha in g.edges
                for beta in g.out_edges(alpha.target)
            ]
        else:
            counting = self.mode is Mode.COUNTING
            terms = [
                (e.source - 1, e.target - 1, 1.0 if counting else e.probability, e.length)
                for e in g.edges
            ]
        rows, cols, weights, lengths = zip(*terms) if terms else ((),) * 4
        flat = np.asarray(rows, dtype=np.intp) * self.dimension + np.asarray(cols, dtype=np.intp)
        return flat, np.asarray(weights, dtype=float), np.asarray(lengths, dtype=float)

    def _assemble(self, values: np.ndarray) -> np.ndarray:
        # np.add.at is unbuffered and adds in term order, so parallel edges
        # sum exactly as a per-term loop would.
        dim = self.dimension
        m = np.zeros(dim * dim, dtype=values.dtype)
        np.add.at(m, self._term_arrays[0], values)
        return m.reshape(dim, dim)

    def evaluate(self, s) -> np.ndarray:
        real = np.imag(s) == 0
        s = float(np.real(s)) if real else complex(s)
        _, w, l = self._term_arrays
        return self._assemble(w * np.exp(-s * l))

    def evaluate_derivative(self, s) -> np.ndarray:
        real = np.imag(s) == 0
        s = float(np.real(s)) if real else complex(s)
        _, w, l = self._term_arrays
        # (-l * w) first: the per-term product order, so the bits agree.
        return self._assemble((-l * w) * np.exp(-s * l))


# -- Perron-Frobenius ------------------------------------------------------------


def _check_square_nonnegative(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValidationError("matrix must be entrywise non-negative and finite")
    return a


def _bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.astype(np.int64) @ y.astype(np.int64)) > 0


def _is_irreducible(a: np.ndarray) -> bool:
    """Strong connectivity of the sparsity pattern (exact reachability)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0] > 0
    # Repeated squaring of (I | support) closes reachability in log2(n) steps.
    closure = (a > 0) | np.eye(n, dtype=bool)
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        closure = _bool_matmul(closure, closure)
    return bool((closure & closure.T).all())


def _inverse_iteration_step(a, shift, vec):
    n = a.shape[0]
    try:
        x = np.linalg.solve(a - shift * np.eye(n), vec)
    except np.linalg.LinAlgError:
        x = np.linalg.solve(a - shift * (1 + 1e-12) * np.eye(n), vec)
    if x.sum() < 0:
        x = -x
    norm = np.abs(x).sum()
    if norm == 0 or not np.isfinite(norm):
        return vec
    return x / norm


def perron_eigen(a) -> PerronData:
    """Dominant eigenvalue with positive left/right eigenvectors, u^T v = 1.

    A short power-iteration phase on the diagonally shifted matrix gives a
    first positive vector; inverse iteration then polishes it.  The shift for
    each inverse step sits just above the current Collatz-Wielandt upper
    bound, and every eigenvalue other than the dominant one is strictly
    farther from such a point, so each solve contracts toward the dominant
    eigenvector and preserves positivity.  The returned ``mu`` carries the
    final Collatz-Wielandt bracket as its convergence certificate.

    Raises NotIrreducible when the sparsity pattern is not strongly
    connected, DidNotConverge when the bracket fails to close.
    """
    a = _check_square_nonnegative(a)
    if not _is_irreducible(a):
        raise NotIrreducible("matrix sparsity pattern is not strongly connected")
    return _perron(a)


def _perron(a: np.ndarray) -> PerronData:
    """:func:`perron_eigen` for a non-negative float matrix already known irreducible."""
    n = a.shape[0]
    if n == 1:
        mu = float(a[0, 0])
        one = np.array([1.0])
        return PerronData(mu=mu, right_vector=one, left_vector=one)

    b = a + PRIMITIVITY_SHIFT * np.eye(n)

    def cw_bounds(mat, vec):
        ratios = (mat @ vec) / vec
        return float(ratios.min()), float(ratios.max())

    def iterate(mat):
        v = np.full(n, 1.0 / n)
        lo, hi = cw_bounds(mat, v)
        for _ in range(PERRON_MAX_ITER):
            w = mat @ v
            total = w.sum()
            if total <= 0 or not np.isfinite(total):
                raise NotIrreducible("power iteration left the positive cone")
            v = w / total
            lo, hi = cw_bounds(mat, v)
            if hi - lo <= 1e-3 * max(1.0, hi):
                break
        for _ in range(200):
            if hi - lo <= PERRON_TOLERANCE * max(1.0, abs(hi)):
                return 0.5 * (lo + hi), v
            v = _inverse_iteration_step(mat, hi * (1 + 1e-12), v)
            if np.any(v <= 0):
                v = np.abs(v) + np.finfo(float).tiny
                v /= v.sum()
            lo, hi = cw_bounds(mat, v)
        raise DidNotConverge(
            PERRON_MAX_ITER + 200, f"Perron bracket stuck at width {hi - lo:g}"
        )

    mu_b, v = iterate(b)
    mu_bt, u = iterate(b.T)
    mu = 0.5 * (mu_b + mu_bt) - PRIMITIVITY_SHIFT
    if np.any(v <= 0) or np.any(u <= 0):
        raise NotIrreducible("computed eigenvector is not strictly positive")
    v = v / v.sum()
    u = u / float(u @ v)
    return PerronData(mu=mu, right_vector=v, left_vector=u)


def adjugate(a) -> np.ndarray:
    """Classical adjoint: transpose of the cofactor matrix, from one SVD.

    With A = U diag(s) V^H, adj(A) = det(U) det(V^H) V diag(p) U^H, where
    p_i is the product of every singular value but s_i.  The p_i come from
    prefix and suffix cumulative products, never from dividing det(A) by
    s_i, so singular input stays exact: rank n-1 gives the rank-one
    adjugate, lower rank gives 0.  O(n^3); real or complex input; adj of a
    1x1 matrix is [[1]] by convention.
    """
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if n == 1:
        return np.ones((1, 1), dtype=a.dtype)
    u, s, vh = np.linalg.svd(a)
    prefix = np.concatenate(([1.0], np.cumprod(s[:-1])))
    suffix = np.concatenate((np.cumprod(s[:0:-1])[::-1], [1.0]))
    # det(U) det(V^H) has modulus 1; dividing out its rounded modulus makes
    # it exactly +-1 for real input.
    phase = np.linalg.det(u) * np.linalg.det(vh)
    phase /= abs(phase)
    return phase * ((vh.conj().T * (prefix * suffix)) @ u.conj().T)


def _charpoly_derivative_at(a: np.ndarray, x: float) -> float:
    coeffs = np.real(np.poly(a))  # monic characteristic polynomial
    deriv = np.polyder(coeffs)
    return float(np.polyval(deriv, x))


def _is_primitive(a: np.ndarray) -> bool:
    """Wielandt bound check by repeated squaring of the sparsity pattern."""
    n = a.shape[0]
    bound = n * n - 2 * n + 2
    pattern = a > 0
    k = 1
    while k <= bound:
        if pattern.all():
            return True
        pattern = _bool_matmul(pattern, pattern)
        k *= 2
    return bool(pattern.all())


ADJUGATE = "adjugate"
CHARPOLY_DERIVATIVE = "charpoly-derivative"
EIGEN_PRODUCT = "eigen-product"
POWER_LIMIT = "power-limit"
PROJECTION_METHODS = (ADJUGATE, CHARPOLY_DERIVATIVE, EIGEN_PRODUCT, POWER_LIMIT)


def perron_projection(a, method: str = ADJUGATE) -> np.ndarray:
    """Rank-one spectral projector onto the dominant eigendirection.

    Four equivalent routes, useful as mutual cross-checks:

    - ``adjugate``: adj(mu*I - A) normalized by its trace;
    - ``charpoly-derivative``: same numerator over p'_A(mu);
    - ``eigen-product``: prod (A - mu_i I) / prod (mu - mu_i) over the
      non-dominant eigenvalues;
    - ``power-limit``: limit of (A/mu)^k, primitive matrices only.
    """
    a = _check_square_nonnegative(a)
    n = a.shape[0]
    data = perron_eigen(a)
    mu = data.mu
    if method == ADJUGATE:
        adj = adjugate(mu * np.eye(n) - a)
        return adj / np.trace(adj)
    if method == CHARPOLY_DERIVATIVE:
        adj = adjugate(mu * np.eye(n) - a)
        return adj / _charpoly_derivative_at(a, mu)
    if method == EIGEN_PRODUCT:
        eigs = np.linalg.eigvals(a)
        rest = np.delete(eigs, int(np.argmin(np.abs(eigs - mu))))
        prod = np.eye(n, dtype=complex)
        denom = 1.0 + 0.0j
        for mu_i in rest:
            prod = prod @ (a - mu_i * np.eye(n))
            denom *= mu - mu_i
        return np.real(prod / denom)
    if method == POWER_LIMIT:
        if not _is_primitive(a):
            raise NotPrimitive("power limit requires a primitive matrix")
        # Repeated squaring with trace renormalization: tr P = 1, and the
        # renormalization stops mu's rounding error from compounding
        # doubly-exponentially in the exponent.
        x = a / mu
        for _ in range(80):
            x2 = x @ x
            trace = np.trace(x2)
            if trace > 0:
                x2 = x2 / trace
            if np.max(np.abs(x2 - x)) <= 1e-13 * max(1.0, np.max(np.abs(x2))):
                return x2
            x = x2
        raise DidNotConverge(80, "power limit did not stabilize")
    raise ValidationError(f"unknown method {method!r}; expected one of {PROJECTION_METHODS}")


# -- critical exponent and Q -------------------------------------------------------


_TINY = np.finfo(float).tiny
_EPS = float(np.finfo(float).eps)


def _sign_margin(n: int) -> float:
    """How far from 1 a bound of an n x n Collatz-Wielandt bracket decides mu's side.

    MU_TOLERANCE, plus the error of a full solve (half of PERRON_TOLERANCE
    from its bracket's width, n * eps from that bracket's rounding), plus the
    rounding of the deciding bracket (n * eps).  At one sigma both see the
    same computed M(sigma), so its rounding does not matter there.  The rest
    of PERRON_TOLERANCE, ~5e-14 or ~225 ulps, covers it where the enclosure
    compares two sigmas: each entry w * e^(-sigma*l) is correct to about
    |sigma * l| / 2 + 2 ulps, inside the slack while |sigma| * max l < ~200.
    The flat 1e-11 this bound replaces covered the bracket's rounding up to
    n ~ 40,000 and left every step within ~1e-11 of mu = 1 to a full solve;
    this one grows with n and has no such limit.
    """
    return MU_TOLERANCE + PERRON_TOLERANCE + 2 * n * _EPS


def _cw_bracket(m: np.ndarray, v: np.ndarray) -> tuple[float, float] | None:
    """Collatz-Wielandt bounds min (Mv)/v <= rho(M) <= max (Mv)/v, or None.

    Valid for any positive v.  Every (Mv)_i is a sum of non-negative terms,
    so each ratio is exact to about n * eps relative, provided no entry of v
    or Mv is subnormal; None when one is, or is zero, NaN or infinite.
    """
    mv = m @ v
    if not (v.min() >= _TINY and mv.min() >= _TINY and mv.max() < np.inf):
        return None
    ratios = mv / v
    return float(ratios.min()), float(ratios.max())


def _rate(f: MatrixFunction, sigma: float, v: np.ndarray) -> np.ndarray:
    """-M'(sigma) v, summed term by term without assembling M'(sigma)."""
    flat, w, l = f._term_arrays
    rows, cols = np.divmod(flat, f.dimension)
    return np.bincount(rows, weights=(l * w) * np.exp(-sigma * l) * v[cols], minlength=f.dimension)


class _CertifiedSign:
    """mu(sigma), or a bound on the same side of 1 when that side is certain.

    Calling it at sigma tests the current right vector against M(sigma).
    When the Collatz-Wielandt bracket lies wholly above 1 + ``margin`` or
    below 1 - ``margin`` (see :func:`_sign_margin`), the near bound of the
    bracket is returned in place of mu, so each test that solve_lambda makes
    (mu against 1, |mu - 1| against MU_TOLERANCE) gives the answer the full
    solve would give.  An indecisive bracket is first tightened by up to
    _WARM_STEPS inverse-iteration steps from the same vector; after that mu
    comes from a full Perron solve, kept in ``perron`` (its right vector
    seeds the next call).  solve_lambda may also seed ``vector`` with the
    Newton vector of its enclosure.
    """

    def __init__(self, f: MatrixFunction):
        self.f = f
        self.margin = _sign_margin(f.dimension)
        # Weights are > 0 and e^(-sigma*l) > 0, so every M(sigma) has the
        # pattern of M(0): the adjacency matrix in vertex modes, the line
        # graph in edge mode, both strongly connected once the graph is.
        self.perron = _perron(f.evaluate(0.0))
        self.vector = self.perron.right_vector

    def __call__(self, sigma: float) -> float:
        m = self.f.evaluate(sigma)
        v, shifted, margin = self.vector, None, self.margin
        for step in range(_WARM_STEPS + 1):
            bracket = _cw_bracket(m, v)
            if bracket is None:
                break
            lo, hi = bracket
            if lo > 1.0 + margin or hi < 1.0 - margin:
                self.vector = v
                return lo if lo > 1.0 else hi
            # A bracket inside the margin band cannot become decisive.
            inside = lo >= 1.0 - margin and hi <= 1.0 + margin
            if inside or step == _WARM_STEPS:
                break
            if shifted is None:
                shifted = m + PRIMITIVITY_SHIFT * np.eye(m.shape[0])
            # The shift of _perron's inverse steps: just above the bracket of
            # M + PRIMITIVITY_SHIFT * I, which keeps v positive.
            v = _inverse_iteration_step(
                shifted, (hi + PRIMITIVITY_SHIFT) * (1 + 1e-12), v
            )
        self.perron = _perron(m)
        self.vector = self.perron.right_vector
        return self.perron.mu


def _newton_enclosure(
    f: MatrixFunction, lo: float, hi: float, u: np.ndarray, v: np.ndarray, margin: float
) -> tuple[tuple[float, float], np.ndarray] | None:
    """A certified enclosure a < lambda < b and its right vector, or None.

    Newton's method on the two-sided Rayleigh quotient
    rho = u^T M(sigma) v / u^T v, with slope u^T M'(sigma) v / u^T v, starts
    at hi.  Each step first moves u and v by one inverse-iteration step,
    shifted as in _perron just above their brackets so both stay positive.
    mu(sigma) is convex (log-convex, Kingman) and decreasing, so a step from
    the right of lambda lands left of it, and steps from the left climb to
    it; they are clamped to [lo, hi].  Once |rho - 1| and the width of v's
    bracket are below margin / 4, a and b sit 2 margin / min_i (-M'v)_i / v_i
    on either side of the Newton point, where every ratio of v's bracket has
    moved at least 2 margin, and both must pass with v alone:
    lo(a) > 1 + margin and hi(b) < 1 - margin.  None when a step is not
    finite, the slope is not negative, Newton has not converged in
    _NEWTON_STEPS, a shifted solve fails, or a bracket is indecisive.
    """
    eye = np.eye(f.dimension)
    sigma = hi
    for _ in range(_NEWTON_STEPS):
        m = f.evaluate(sigma)
        shifted = m + PRIMITIVITY_SHIFT * eye
        right, left = _cw_bracket(m, v), _cw_bracket(m.T, u)
        if right is None or left is None:
            return None
        try:
            v = _inverse_iteration_step(shifted, (right[1] + PRIMITIVITY_SHIFT) * (1 + 1e-12), v)
            u = _inverse_iteration_step(shifted.T, (left[1] + PRIMITIVITY_SHIFT) * (1 + 1e-12), u)
        except np.linalg.LinAlgError:
            return None
        right = _cw_bracket(m, v)
        if right is None:
            return None
        rate = _rate(f, sigma, v)
        uv = float(u @ v)
        rho = float(u @ (m @ v)) / uv
        slope = -float(u @ rate) / uv
        step = (rho - 1.0) / slope
        if not (np.isfinite(step) and slope < 0.0):
            return None
        if max(abs(rho - 1.0), right[1] - right[0]) <= 0.25 * margin:
            break
        sigma = min(max(sigma - step, lo), hi)
    else:
        return None

    center = sigma - step
    delta = 2.0 * margin / float((rate / v).min())
    if not 0.0 < delta < np.inf:
        return None
    a, b = center - delta, center + delta
    low, high = _cw_bracket(f.evaluate(a), v), _cw_bracket(f.evaluate(b), v)
    if low is None or high is None or not (low[0] > 1.0 + margin and high[1] < 1.0 - margin):
        return None
    return (a, b), v


def solve_lambda(f: MatrixFunction) -> SpectralSolution:
    """Bracket and bisect the strictly decreasing map sigma -> mu(sigma).

    Counting mode starts from [0, hi] with mu(0) >= 1 and doubles hi until
    mu < 1; probability and edge modes have mu(0) <= 1 and expand the bracket
    to the left.  Stops at the first midpoint with |mu - 1| <= 1e-12.  Each
    step needs only the side of 1 that mu lies on, and a Collatz-Wielandt
    bracket from the last right vector certifies it at most sigma (see
    _CertifiedSign).  When neither bracket end nor the first midpoint is the
    root, Newton's method locates lambda and two brackets certify an
    enclosure a < lambda < b (see _newton_enclosure).  The bisection then
    goes on unchanged: a midpoint <= a or >= b takes its side with no
    evaluation, since mu is decreasing, and only midpoints inside (a, b) are
    tested, from Newton's vector.  Without an enclosure every midpoint is
    tested.  Either way each step takes the side a full Perron solve would,
    so lambda is the same bisection midpoint bit for bit; the full solves
    left are mu(0), any step within the margin of 1, and lambda itself.
    """
    report = strong_connectivity(f.graph)
    if not report.strongly_connected:
        raise NotStronglyConnected(
            f"graph has {len(report.components)} strongly connected components"
        )
    if not f.graph.edges:
        # One vertex and no edge: one component, but M(s) = [[0]].
        raise NotStronglyConnected("graph has no edges")
    ceiling = BRACKET_CEILING / f.graph.min_edge_length()

    mu_at = _CertifiedSign(f)
    mu0 = mu_at.perron.mu
    if f.mode is Mode.COUNTING:
        if mu0 < 1.0 - MU_TOLERANCE:
            raise BracketFailure(
                f"mu(0) = {mu0!r} < 1 in counting mode; "
                "impossible for a strongly connected graph, upstream bug"
            )
        lo, hi = 0.0, 1.0
        while mu_at(hi) >= 1.0:
            hi *= 2.0
            if hi > ceiling:
                raise BracketFailure(f"no sign change up to sigma = {hi:g}")
    else:
        if mu0 > 1.0 + MU_TOLERANCE:
            raise BracketFailure(
                f"mu(0) = {mu0!r} > 1 in {f.mode.value} mode; "
                "probability sums per vertex must be <= 1"
            )
        hi = 0.0
        lo = -1.0
        while mu_at(lo) <= 1.0:
            lo *= 2.0
            if -lo > ceiling:
                raise BracketFailure(f"no sign change down to sigma = {lo:g}")

    bracket = (lo, hi)
    lam, residual, enclosure = None, None, None
    for endpoint in bracket:
        r = abs(mu_at(endpoint) - 1.0)
        if r <= MU_TOLERANCE:
            lam, residual = endpoint, r
            break
    if lam is None:
        a, b = bracket  # until Newton certifies an enclosure
        for step in range(MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if a < mid < b:
                mu = mu_at(mid)
                if abs(mu - 1.0) <= MU_TOLERANCE:
                    lam, residual = mid, abs(mu - 1.0)
                    break
                above = mu > 1.0
            else:
                # mu(mid) >= mu(a) > 1 + margin, or mu(mid) <= mu(b) <
                # 1 - margin: the side a full solve would take.
                above = mid <= a
            if above:
                lo = mid
            else:
                hi = mid
            if step == 0:
                # Newton waits for the first midpoint to miss: a root at a
                # bracket end or its midpoint (lambda = 1 in [0, 2] on the
                # two-vertex graph) never pays for it.
                found = _newton_enclosure(
                    f, lo, hi, mu_at.perron.left_vector, mu_at.vector, mu_at.margin
                )
                if found is not None:
                    enclosure, mu_at.vector = found
                    a, b = enclosure
        else:
            raise DidNotConverge(
                MAX_BISECTIONS, f"bisection stalled on [{lo!r}, {hi!r}]"
            )

    # Only a full solve lands within MU_TOLERANCE, so the last one ran at lam.
    perron = mu_at.perron
    return SpectralSolution(
        function=f,
        lam=lam,
        q=q_matrix(f, lam),
        perron_at_lambda=perron,
        bracket=bracket,
        residual=residual,
        enclosure=enclosure,
        dmu_dsigma=float(perron.left_vector @ f.evaluate_derivative(lam) @ perron.right_vector),
    )


def q_matrix(f: MatrixFunction, lam: float) -> np.ndarray:
    """Coefficient matrix adj(I - M(lam)) / (-tr(adj(I - M(lam)) M'(lam))).

    Equals the residue at lam of adj(I - M(s))_ij / det(I - M(s)).  The
    adjugate comes from one SVD (see :func:`adjugate`), which stays exact at
    lam, where I - M(lam) is singular, so the whole matrix costs O(n^3).
    Requires mu(lam) = 1; raises SingularDenominator when the trace term
    vanishes, which signals that lam is not a simple root.
    """
    m = f.evaluate(lam)
    mprime = f.evaluate_derivative(lam)
    adj = adjugate(np.eye(f.dimension) - m)
    denom = -float(np.trace(adj @ mprime))
    scale = max(1.0, float(np.abs(adj).max()) * float(np.abs(mprime).max()))
    if abs(denom) <= 1e-12 * scale:
        raise SingularDenominator(
            f"trace normalization is {denom!r}; lam = {lam!r} is not a simple root"
        )
    return adj / denom
