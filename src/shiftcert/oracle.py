"""Independent floating-point verification on finite truncations.

The oracle builds the (2N+1)x(2N+1) compression of the shift, forms the
self-commutator by explicit sparse products of that matrix (never from the
diagonal formula -- the point is independence from the symbolic engine),
takes the thresholded PSD root and Moore-Penrose root-inverse, and probes
the two halves of the near-subnormality criterion empirically: invariance
of the numerical null space, and boundedness of the conjugated operator
across growing truncations.

Every public function takes and returns dense 2-D arrays. The products run
on ``scipy.sparse`` forms, read off the one occupied diagonal where a
nonzero count shows there is only one, so a truncation of dimension D
costs a few O(D^2) passes over memory instead of O(D^3) arithmetic.

Interior means |n| <= N - 2 throughout: the first and last basis vectors
lose a neighbour to the truncation, so edge rows of the commutator are
artifacts of the compression, not of the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix

from .classifier import Certificate, Verdict, VerdictClass
from .shiftcalc import NotHyponormalAtIndex, commutator_diagonal, transformed_weights
from .weights import WeightSpec, validate

WeightRule = Callable[[int], float]
WeightSource = Union[WeightSpec, WeightRule]


class NotPSDError(ValueError):
    """The matrix is not positive semidefinite within tolerance."""


def as_weight_rule(source: WeightSource) -> WeightRule:
    """Adapt a weight description (or a raw index->float rule) to a rule.

    Raw callables exist for stress experiments with weight laws outside the
    exact file format; the classifier never sees them.
    """
    if isinstance(source, WeightSpec):
        return source.value_float
    return source


def default_tolerance(spec: WeightSpec) -> float:
    """Null-space threshold: 1e-9 relative to the squared modulus scale."""
    report = validate(spec)
    if report.sup_bound is None:
        raise ValueError("tolerance needs a validated weight description")
    return 1e-9 * max(1.0, float(report.sup_bound) ** 2)


@dataclass(frozen=True)
class Truncation:
    """Dense compression of the shift to span{e_-N, ..., e_N}.

    Basis index n lives at matrix row/column n + N. The matrix carries
    |beta_n| at the subdiagonal slot (row n+1+N, column n+N) for
    -N <= n <= N-1 and zeros elsewhere.
    """

    half_width: int
    matrix: np.ndarray
    tol: float

    @property
    def dim(self) -> int:
        return 2 * self.half_width + 1

    def row_of(self, n: int) -> int:
        return n + self.half_width

    def interior(self) -> range:
        """Basis indices unaffected by the missing neighbours."""
        return range(-self.half_width + 2, self.half_width - 1)


def _diagonal_csr(band: np.ndarray, offset: int, dim: int) -> csr_matrix:
    """The dim x dim matrix whose diagonal at ``offset`` is ``band``, in CSR
    form holding only the nonzero entries."""
    k = np.flatnonzero(band)
    rows = k + max(-offset, 0)
    cols = k + max(offset, 0)
    return csr_matrix((band[k], (rows, cols)), shape=(dim, dim))


def _as_sparse(m: np.ndarray, offset: int = 0) -> csr_matrix:
    """CSR form of dense m. When a nonzero count shows that every nonzero
    lies on the diagonal at ``offset``, it is read off that diagonal
    instead of by csr_matrix's slower scan of all entries."""
    band = np.diagonal(m, offset)
    if np.count_nonzero(m) == np.count_nonzero(band):
        return _diagonal_csr(band, offset, m.shape[0])
    return csr_matrix(m)


def _sparse_shift(t: Truncation) -> csr_matrix:
    """T in CSR form, read off its subdiagonal without scanning the matrix."""
    return _diagonal_csr(np.diagonal(t.matrix, -1), -1, t.dim)


def build_truncation(source: WeightSource, half_width: int, tol: float) -> Truncation:
    if half_width < 2:
        raise ValueError("half width must be at least 2")
    rule = as_weight_rule(source)
    dim = 2 * half_width + 1
    mat = np.zeros((dim, dim))
    for n in range(-half_width, half_width):
        mat[n + 1 + half_width, n + half_width] = rule(n)
    return Truncation(half_width, mat, tol)


def commutator(t: Truncation) -> np.ndarray:
    """Q = T*T - TT* by explicit sparse products."""
    tm = _sparse_shift(t)
    return (tm.T @ tm - tm @ tm.T).toarray()


def mask_truncation_edge(t: Truncation, q: np.ndarray) -> np.ndarray:
    """Zero the slot of basis index +N before spectral work.

    The column of e_N is empty in the compression (its image e_{N+1} is cut
    off), so the last diagonal slot of Q is spuriously negative for any
    hyponormal spec. Masking that single row/column keeps the PSD check
    meaningful; interior entries are untouched.
    """
    masked = q.copy()
    edge = t.row_of(t.half_width)
    masked[edge, :] = 0.0
    masked[:, edge] = 0.0
    return masked


def _spectral_apply(q: np.ndarray, tol: float, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply f to the spectrum of diagonal PSD q, thresholding at tol.

    The commutator of a shift truncation is diagonal (the products of a
    subdiagonal matrix are), and masking its edge keeps it so; any
    off-diagonal nonzero is rejected.
    """
    if q.shape[0] != q.shape[1]:
        raise ValueError("matrix must be square")
    d = np.diagonal(q)
    if np.count_nonzero(q) != np.count_nonzero(d):
        raise ValueError("matrix must be diagonal")
    if d.min(initial=0.0) < -tol:
        raise NotPSDError(
            f"diagonal entry {d.min():g} below -tol at index {int(d.argmin())}"
        )
    out = np.zeros_like(d)
    keep = d > tol
    out[keep] = f(d[keep])
    return np.diag(out)


def pinv_root(q: np.ndarray, tol: float) -> np.ndarray:
    """Moore-Penrose inverse of the PSD square root: spectrum -> d^(-1/2),
    with eigenvalues at or below tol sent to zero."""
    return _spectral_apply(q, tol, lambda d: 1.0 / np.sqrt(d))


def psd_root(q: np.ndarray, tol: float) -> np.ndarray:
    """PSD square root with the same eigenvalue threshold."""
    return _spectral_apply(q, tol, np.sqrt)


def transformed_shift(t: Truncation, q: np.ndarray, tol: float) -> np.ndarray:
    """root(Q) T pinv_root(Q): the conjugated shift whose subdiagonal must
    reproduce the transformed weights (root-inverse acts on the source side,
    matching the weight law b_n * sqrt(d_{n+1} / d_n))."""
    masked = mask_truncation_edge(t, q)
    root = _as_sparse(psd_root(masked, tol))
    inverse = _as_sparse(pinv_root(masked, tol))
    return (root @ _sparse_shift(t) @ inverse).toarray()


def invariance_violations(
    t: Truncation, q: np.ndarray, tol: float
) -> list[tuple[int, float]]:
    """Null-space invariance probe.

    For every interior basis index n with |Q[n][n]| <= tol (numerically in
    the null space), measure ||Q (T e_n)||, the norm of column n of the
    sparse product Q T; magnitudes above sqrt(tol) are violations: the
    shift maps a null vector out of the null space.
    """
    image = (_as_sparse(q) @ _sparse_shift(t)).tocoo()
    # Scale each column by a power of two near its largest magnitude before
    # squaring, so no square overflows or underflows; the scaling is exact.
    peak = np.zeros(t.dim)
    np.maximum.at(peak, image.col, np.abs(image.data))
    _, exponent = np.frexp(peak)
    scaled = np.ldexp(image.data, -exponent[image.col])
    column_sq = np.bincount(image.col, weights=scaled * scaled, minlength=t.dim)
    norms = np.ldexp(np.sqrt(column_sq), exponent)
    rows = np.arange(t.row_of(t.interior().start), t.row_of(t.interior().stop))
    null = np.abs(np.diagonal(q)[rows]) <= tol
    hits = rows[null & (norms[rows] > math.sqrt(tol))]
    return list(zip((hits - t.half_width).tolist(), norms[hits].tolist()))


# Stopping rule and start vector of largest_singular_value's power iteration.
NORM_REL_TOL = 1e-9
NORM_WINDOW = 200
NORM_MAX_ITER = 150_000
NORM_SEED = 7


def largest_singular_value(s: np.ndarray) -> float:
    """Largest singular value by power iteration on S^T S.

    The conjugated shift is effectively bidiagonal, so each step costs
    O(dim) after extracting the sparse structure (S^T S is assembled once
    as a sparse product). Iteration stops when the Rayleigh estimate
    changes by less than NORM_REL_TOL over a window of steps; spectra whose
    top clusters (transformed weights approaching their limit) converge
    like 1/iterations, so the iteration cap bounds the residual error well
    below the tolerances any caller asserts.
    """
    a = _as_sparse(s, -1)
    # Iterate on S scaled by a power of two near its largest magnitude, so
    # no sum of squares overflows; the scaling is exact and undone at the end.
    _, exponent = math.frexp(float(np.abs(a.data).max(initial=0.0)))
    a.data = np.ldexp(a.data, -exponent)
    gram = (a.T @ a).tocsr()
    rng = np.random.default_rng(NORM_SEED)
    v = rng.standard_normal(s.shape[1])
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    v /= norm
    estimate = 0.0
    reference = -1.0
    for it in range(1, NORM_MAX_ITER + 1):
        w = gram @ v
        norm = float(math.sqrt(w @ w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        estimate = norm  # ||S^T S v|| -> top eigenvalue of S^T S
        if it % NORM_WINDOW == 0:
            if reference >= 0.0 and abs(estimate - reference) <= NORM_REL_TOL * estimate:
                break
            reference = estimate
    return math.ldexp(math.sqrt(estimate), exponent)


def norm_sweep(
    source: WeightSource, half_widths: Sequence[int], tol: float
) -> list[tuple[int, float]]:
    """Estimate ||root(Q) T pinv_root(Q)|| across truncation sizes.

    The trace is evidence for the plateau-vs-growth diagnostic; the
    symbolic certificate, not the trace, is the proof.
    """
    trace: list[tuple[int, float]] = []
    for half_width in half_widths:
        t = build_truncation(source, half_width, tol)
        q = commutator(t)
        s = transformed_shift(t, q, tol)
        trace.append((half_width, largest_singular_value(s)))
    return trace


@dataclass(frozen=True)
class TruncationReport:
    half_width: int
    tol: float
    q_diag_residual: float
    q_offdiag_residual: float
    q_diag_max: float
    gamma_residual: float | None
    flat_zero_max: float | None
    psd_failure_index: int | None
    invariance_violations: tuple[tuple[int, float], ...]
    norm_trace: tuple[tuple[int, float], ...] = field(default=())
    insufficient_interior: bool = False


def _needed_interior(cert: Certificate) -> int:
    spec_indices = [0]
    for value in (
        cert.witness,
        cert.first_equality,
        cert.flat_pair_index,
        cert.left_run_end,
        cert.flat_from,
    ):
        if value is not None:
            spec_indices.append(abs(value))
    return max(spec_indices) + 2


def truncation_report(
    spec: WeightSpec,
    verdict: Verdict,
    half_width: int,
    tol: float | None = None,
    sweep: Sequence[int] | None = None,
) -> TruncationReport:
    """Cross-validate the symbolic engine on one truncation.

    Residuals compare the sparse-product commutator and conjugated shift
    against the exact diagonal and transformed weights; the comparison is
    the only place symbolic values enter (how Q and S are formed is not).
    Each exact value becomes a float by one correctly rounded int / int
    division of its pair, the nearest binary64 to it.
    """
    if tol is None:
        tol = default_tolerance(spec)
    t = build_truncation(spec, half_width, tol)
    q = commutator(t)
    diag = commutator_diagonal(spec)
    tw = transformed_weights(spec, diag)

    window_span = max(abs(spec.window_start), abs(spec.window_end + 1))
    insufficient = (half_width - 2) < max(
        _needed_interior(verdict.certificate), window_span + 2
    )

    interior = t.interior()
    lo, hi = t.row_of(interior.start), t.row_of(interior.stop - 1)
    q_interior = np.diagonal(q)[lo : hi + 1].tolist()
    gamma_residual: float | None = None
    flat_zero_max: float | None = None
    psd_failure_index: int | None = None
    try:
        s = transformed_shift(t, q, tol)
        # One exact evaluation per index gives g_n^2 for every interior n
        # with n + 1 interior, and d_n for every interior n.
        exact_gamma_sq, exact_diag = tw.pairs_sq(interior.start, interior.stop - 1)
    except (NotPSDError, NotHyponormalAtIndex):
        # Not hyponormal: numerically (Q has an entry below -tol) or only
        # exactly (a negative d_n within tol), so no conjugated operator.
        worst, where = min(zip(q_interior, interior))
        psd_failure_index = where if worst < -tol else None
        s = None
        exact_diag = diag.entry_pairs(interior.start, interior.stop)
    else:
        gamma_residual = 0.0
        entries = np.diagonal(s, -1)[lo:hi].tolist()  # s[n+1, n]
        for n, entry, g_sq in zip(interior, entries, exact_gamma_sq):
            if g_sq is None:
                continue
            gamma_residual = max(gamma_residual, abs(entry - math.sqrt(g_sq[0] / g_sq[1])))
            if tw.flat_from is not None and n >= tw.flat_from:
                flat = abs(entry)
                flat_zero_max = flat if flat_zero_max is None else max(flat_zero_max, flat)

    q_diag_residual = 0.0
    q_diag_max = 0.0
    for q_n, (d_num, d_den) in zip(q_interior, exact_diag):
        q_diag_max = max(q_diag_max, abs(q_n))
        q_diag_residual = max(q_diag_residual, abs(q_n - d_num / d_den))
    block = _as_sparse(q[lo : hi + 1, lo : hi + 1]).tocoo()
    q_offdiag_residual = float(np.abs(block.data[block.row != block.col]).max(initial=0.0))

    violations = tuple(invariance_violations(t, q, tol))
    # No transformed operator, no norm trace: the PSD failure already
    # witnesses the violated hyponormality.
    trace = tuple(norm_sweep(spec, sweep, tol)) if sweep and s is not None else ()

    return TruncationReport(
        half_width=half_width,
        tol=tol,
        q_diag_residual=q_diag_residual,
        q_offdiag_residual=q_offdiag_residual,
        q_diag_max=q_diag_max,
        gamma_residual=gamma_residual,
        flat_zero_max=flat_zero_max,
        psd_failure_index=psd_failure_index,
        invariance_violations=violations,
        norm_trace=trace,
        insufficient_interior=insufficient,
    )


GROWTH_RATIO = 1.5  # quadrupling the truncation must not grow the norm this much


def _growth_detected(trace: Sequence[tuple[int, float]]) -> bool:
    for i, (n_small, v_small) in enumerate(trace):
        for n_big, v_big in trace[i + 1 :]:
            if n_big >= 4 * n_small and v_small > 0.0 and v_big / v_small > GROWTH_RATIO:
                return True
    return False


def concordance(verdict: Verdict, report: TruncationReport) -> tuple[str, list[str]]:
    """Compare the symbolic verdict with the oracle's empirical findings.

    Returns ("agrees" | "disagrees" | "not-claimed", notes). No concordance
    is claimed when the truncation is too small to contain the structurally
    interesting indices in its interior.
    """
    notes: list[str] = []
    if report.insufficient_interior:
        notes.append("insufficient interior: truncation too small for a concordance claim")
        return "not-claimed", notes

    klass = verdict.klass
    violations = report.invariance_violations
    if klass == VerdictClass.NOT_HYPONORMAL:
        ok = report.psd_failure_index is not None
        notes.append(
            "negative commutator diagonal observed"
            if ok
            else "expected a negative commutator diagonal entry; none found"
        )
    elif klass == VerdictClass.NORMAL:
        ok = not violations and report.q_diag_max <= math.sqrt(report.tol)
        notes.append(
            "commutator numerically zero and null space invariant"
            if ok
            else "expected a vanishing commutator with no violations"
        )
    elif klass == VerdictClass.NEAR_SUBNORMAL:
        grows = _growth_detected(report.norm_trace)
        ok = not violations and not grows and report.psd_failure_index is None
        if violations:
            notes.append(f"unexpected invariance violations: {violations[:3]}")
        if grows:
            notes.append("unexpected norm growth across the sweep")
        if ok:
            notes.append("null space invariant; norm trace shows no growth")
    else:  # VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
        grows = _growth_detected(report.norm_trace)
        ok = bool(violations) or grows
        notes.append(
            f"invariance violations at {[n for n, _ in violations[:5]]}"
            if violations
            else (
                "norm growth across the sweep"
                if grows
                else "expected an invariance violation or norm growth; found neither"
            )
        )
    return ("agrees" if ok else "disagrees"), notes
