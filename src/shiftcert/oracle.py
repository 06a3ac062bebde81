"""Independent floating-point verification on finite truncations.

The oracle builds the (2N+1)x(2N+1) compression of the shift, forms the
self-commutator by explicit matrix products of that matrix (never from the
diagonal formula -- the point is independence from the symbolic engine),
takes the thresholded PSD root and Moore-Penrose root-inverse, and probes
invariance of the numerical null space empirically. The norm of the
conjugated operator across growing truncations is reported, not judged:
every tail a spec file expresses has a bounded transform, so a
truncation's norm only rises toward the exact supremum.

Every matrix the pipeline forms is a band: a map from diagonal offset to
the numpy vector on that diagonal, multiplied by one generic band product.
``truncation_report`` and ``norm_sweep`` never build a dense dim x dim
array, so a truncation of dimension D costs O(D) time and memory. The
public names are dense views of the same stages: each takes or returns
dense 2-D arrays and converts once at its boundary.

Exact values enter only the comparison, and an ``oracle`` call evaluates
the spec once for its report and once more, at the widest half width, for
a ``--sweep``: :func:`build_truncation` evaluates each weight region once
(one pair for a constant tail, running sums over a long range of a
rational tail) and keeps the exact moduli pairs beside their floats. The
residuals read those pairs through :func:`~shiftcert.shiftcalc.sparse_range`,
which does exact arithmetic only where two neighbouring pairs differ
(d_n = 0 everywhere else); each run of values it holds becomes floats at
once, by C-level maps of correctly rounded int / int divisions (and square
roots for g_n), is scattered into zeros, and numpy reduces every residual.

:class:`Truncation` and :class:`TruncationReport` are immutable
NamedTuples.

Interior means |n| <= N - 2 throughout: the first and last basis vectors
lose a neighbour to the truncation, so edge rows of the commutator are
artifacts of the compression, not of the operator.

numpy is the oracle's only dependency, and each function that needs it
imports it in its own body: the ``classify`` and ``examples`` commands
import this module through the CLI but never call into numpy, so they run
on the standard library alone and skip its import time.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Union

from .classifier import Certificate, Verdict, VerdictClass
from .polycert import Pair
from .shiftcalc import (
    NotHyponormalAtIndex,
    Run,
    commutator_diagonal,
    sparse_range,
    transformed_weights,
)
from .weights import WeightSpec, validate

if TYPE_CHECKING:
    import numpy as np
    Band = dict[int, np.ndarray]  # offset k -> np.diagonal(m, k)

# A weight description, or a raw index -> float rule for stress experiments
# with weight laws outside the exact file format (the classifier never sees
# those).
WeightSource = Union[WeightSpec, Callable[[int], float]]


class NotPSDError(ValueError):
    """The matrix is not positive semidefinite within tolerance."""


def _tolerance(sup_modulus: Fraction) -> float:
    """Null-space threshold: 1e-9 relative to the squared modulus scale."""
    return 1e-9 * max(1.0, float(sup_modulus) ** 2)


def default_tolerance(spec: WeightSpec) -> float:
    """The null-space threshold of a spec, from its certified modulus bound."""
    report = validate(spec)
    if report.sup_bound is None:
        raise ValueError("tolerance needs a validated weight description")
    return _tolerance(report.sup_bound)


class Truncation(NamedTuple):
    """Compression of the shift to span{e_-N, ..., e_N}, stored as its one
    occupied diagonal.

    Basis index n lives at matrix row/column n + N. ``subdiagonal[n + N]``
    is |beta_n|, the entry at row n+1+N, column n+N, for -N <= n <= N-1;
    every other entry is zero. ``matrix`` is the dense (2N+1)x(2N+1) view,
    built on each access; the oracle's own stages never read it.
    ``moduli[n + N]`` is the exact pair |beta_n| was rounded from, or
    ``moduli`` is None for a truncation of a raw rule.
    """

    half_width: int
    subdiagonal: np.ndarray
    tol: float
    moduli: Sequence[Pair] | None = None

    @property
    def dim(self) -> int:
        return 2 * self.half_width + 1

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np

        return np.diag(self.subdiagonal, -1)

    def row_of(self, n: int) -> int:
        return n + self.half_width

    def interior(self) -> range:
        """Basis indices unaffected by the missing neighbours."""
        return range(-self.half_width + 2, self.half_width - 1)


def _band_product(a: Band, b: Band, dim: int) -> Band:
    """A @ B for dim x dim bands, entry j of diagonal k being
    m[j + max(-k, 0), j + max(k, 0)]. Entry (r, r + ka + kb) adds
    A[r, r + ka] * B[r + ka, r + ka + kb] onto a zero start, ka ascending,
    as a CSR product sums over a row of A: one term gives that product
    exactly. Overflow gives inf without a warning, as a compiled kernel does.
    """
    import numpy as np

    out: Band = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for ka in sorted(a):
            for kb in sorted(b):
                k = ka + kb
                # The rows r at which A[r, r + ka] and B[r + ka, r + k] exist.
                lo, hi = max(0, -ka, -k), min(dim, dim - ka, dim - k)
                if lo >= hi:
                    continue
                sa, sb, sc = max(-ka, 0), max(-kb, 0) - ka, max(-k, 0)
                if k not in out:
                    out[k] = np.zeros(dim - abs(k))
                out[k][lo - sc : hi - sc] += a[ka][lo - sa : hi - sa] * b[kb][lo - sb : hi - sb]
    return out


def _band_of(m: np.ndarray) -> Band:
    """Band of dense square m: its main diagonal and each holding a nonzero."""
    import numpy as np

    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    rows, cols = np.nonzero(m)
    return {k: np.diagonal(m, k) for k in sorted({0, *(cols - rows).tolist()})}


def _dense(m: Band) -> np.ndarray:
    """Dense view of band m."""
    import numpy as np

    return sum(np.diag(v, k) for k, v in m.items())


def build_truncation(source: WeightSource, half_width: int, tol: float) -> Truncation:
    """The truncation of half width N >= 2 of a spec or of a raw rule.

    A ``WeightSpec`` is evaluated region by region
    (:meth:`~shiftcert.weights.WeightSpec.value_pairs`; a long range of a
    rational tail by running sums), and each |beta_n| is the nearest
    binary64 to its exact pair: one correctly rounded int / int division.
    The truncation keeps those pairs. A raw index -> float rule is called
    once per index.
    """
    import numpy as np

    if half_width < 2:
        raise ValueError("half width must be at least 2")
    indices = range(-half_width, half_width)
    moduli = None
    if isinstance(source, WeightSpec):
        moduli = source.value_pairs(-half_width, half_width)
        weights = itertools.starmap(operator.truediv, moduli)
    else:
        weights = map(source, indices)
    subdiagonal = np.fromiter(weights, dtype=float, count=len(indices))
    return Truncation(half_width, subdiagonal, tol, moduli)


def _commutator(t: Truncation) -> Band:
    """Q = T*T - TT* by explicit band products."""
    import numpy as np

    shift, adjoint = {-1: t.subdiagonal}, {1: t.subdiagonal}
    gram, cogram = _band_product(adjoint, shift, t.dim), _band_product(shift, adjoint, t.dim)
    with np.errstate(invalid="ignore"):  # inf - inf
        return {k: gram.get(k, 0.0) - cogram.get(k, 0.0) for k in gram.keys() | cogram.keys()}


def commutator(t: Truncation) -> np.ndarray:
    """Dense view of the band-product commutator Q = T*T - TT*."""
    return _dense(_commutator(t))


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


def _spectral(
    q: Band,
    tol: float,
    f: Callable[[np.ndarray], np.ndarray],
    edge: int | None = None,
) -> Band:
    """Apply f to the spectrum of diagonal PSD q, thresholding at tol.

    The row and column of slot ``edge``, if given, are masked first, as
    :func:`mask_truncation_edge` does. The commutator of a shift truncation
    is diagonal (the products of a subdiagonal matrix are), and masking its
    edge keeps it so; any nonzero off the main diagonal is rejected.
    """
    import numpy as np

    for k in q.keys() - {0}:
        rows = np.flatnonzero(q[k]) + max(-k, 0)  # the rows of its nonzeros
        if np.any((rows != edge) & (rows + k != edge)):  # edge None: any row
            raise ValueError("matrix must be diagonal")
    d = q[0].copy()
    if edge is not None:
        d[edge] = 0.0
    if d.min(initial=0.0) < -tol:
        raise NotPSDError(
            f"diagonal entry {d.min():g} below -tol at index {int(d.argmin())}"
        )
    out = np.zeros_like(d)
    keep = d > tol
    out[keep] = f(d[keep])
    return {0: out}


def _inverse_sqrt(d: np.ndarray) -> np.ndarray:
    import numpy as np

    return 1.0 / np.sqrt(d)


def pinv_root(q: np.ndarray, tol: float) -> np.ndarray:
    """Moore-Penrose inverse of the PSD square root: spectrum -> d^(-1/2),
    with eigenvalues at or below tol sent to zero."""
    return _dense(_spectral(_band_of(q), tol, _inverse_sqrt))


def psd_root(q: np.ndarray, tol: float) -> np.ndarray:
    """PSD square root with the same eigenvalue threshold."""
    import numpy as np

    return _dense(_spectral(_band_of(q), tol, np.sqrt))


def _conjugate(t: Truncation, q: Band, tol: float) -> Band:
    """root(Q) T pinv_root(Q) by explicit band products, with the e_N slot
    of Q masked."""
    import numpy as np

    edge = t.row_of(t.half_width)
    root = _spectral(q, tol, np.sqrt, edge)
    inverse = _spectral(q, tol, _inverse_sqrt, edge)
    return _band_product(_band_product(root, {-1: t.subdiagonal}, t.dim), inverse, t.dim)


def transformed_shift(t: Truncation, q: np.ndarray, tol: float) -> np.ndarray:
    """root(Q) T pinv_root(Q): the conjugated shift whose subdiagonal must
    reproduce the transformed weights (root-inverse acts on the source side,
    matching the weight law b_n * sqrt(d_{n+1} / d_n)). Dense view."""
    return _dense(_conjugate(t, _band_of(q), tol))


def _invariance_probe(t: Truncation, q: Band, tol: float) -> list[tuple[int, float]]:
    """Column norms of the band product Q T at the interior null indices
    of Q; see :func:`invariance_violations`."""
    import numpy as np

    # Entry j of diagonal k lies in column j + max(k, 0). hypot neither
    # overflows nor underflows on the way, and hypot(0, x) is |x| exactly.
    norms = np.zeros(t.dim)
    for k, v in _band_product(q, {-1: t.subdiagonal}, t.dim).items():
        cols = norms[max(k, 0) : max(k, 0) + v.size]
        np.hypot(cols, v, out=cols)
    rows = np.arange(t.row_of(t.interior().start), t.row_of(t.interior().stop))
    null = np.abs(q[0][rows]) <= tol
    hits = rows[null & (norms[rows] > math.sqrt(tol))]
    return list(zip((hits - t.half_width).tolist(), norms[hits].tolist()))


def invariance_violations(t: Truncation, q: np.ndarray, tol: float) -> list[tuple[int, float]]:
    """Null-space invariance probe.

    For every interior basis index n with |Q[n][n]| <= tol (numerically in
    the null space), measure ||Q (T e_n)||, the norm of column n of the
    band product Q T; magnitudes above sqrt(tol) are violations: the
    shift maps a null vector out of the null space.
    """
    return _invariance_probe(t, _band_of(q), tol)


# Stopping rule and start vector of largest_singular_value's power iteration.
NORM_REL_TOL = 1e-9
NORM_WINDOW = 200
NORM_MAX_ITER = 150_000
NORM_SEED = 7


def _band_apply(m: Band, v: np.ndarray) -> np.ndarray:
    """m @ v for m holding its main diagonal: one elementwise product per
    stored diagonal, so one in all for a diagonal m."""
    w = m[0] * v
    for k in m.keys() - {0}:
        w[max(-k, 0) : max(-k, 0) + m[k].size] += m[k] * v[max(k, 0) : max(k, 0) + m[k].size]
    return w


def _power_norm(s: Band, dim: int) -> float:
    """Largest singular value of band s; see :func:`largest_singular_value`."""
    import numpy as np

    # Iterate on S scaled by a power of two near its largest magnitude, so
    # no sum of squares overflows; the scaling is exact and undone at the end.
    _, exponent = math.frexp(float(np.abs(np.concatenate(list(s.values()))).max(initial=0.0)))
    a = {k: np.ldexp(v, -exponent) for k, v in s.items()}
    gram = _band_product({-k: v for k, v in a.items()}, a, dim)
    rng = np.random.default_rng(NORM_SEED)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    estimate = 0.0
    reference = -1.0
    for it in range(1, NORM_MAX_ITER + 1):
        w = _band_apply(gram, v)
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


def largest_singular_value(s: np.ndarray) -> float:
    """Largest singular value of square s by power iteration on S^T S.

    For the conjugated shift, a single subdiagonal, S^T S is diagonal and a
    step is one O(dim) product. Iteration stops when the Rayleigh estimate
    changes by less than NORM_REL_TOL over a window of steps; a clustered
    top converges like 1/iterations, and the iteration cap bounds the
    residual error well below the tolerances any caller asserts.
    """
    return _power_norm(_band_of(s), s.shape[0])


def norm_sweep(
    source: WeightSource, half_widths: Sequence[int], tol: float
) -> list[tuple[int, float]]:
    """Estimate ||root(Q) T pinv_root(Q)|| across truncation sizes.

    The trace is reported, not judged by :func:`concordance`; the symbolic
    certificate, not the trace, is the proof. The source is evaluated
    once, at the widest half width; each narrower truncation is the middle
    slice of that one.
    """
    trace: list[tuple[int, float]] = []
    if not half_widths:
        return trace
    if min(half_widths) < 2:
        raise ValueError("half width must be at least 2")
    widest = build_truncation(source, max(half_widths), tol)
    for half_width in half_widths:
        cut = slice(widest.half_width - half_width, widest.half_width + half_width)
        moduli = None if widest.moduli is None else widest.moduli[cut]
        t = Truncation(half_width, widest.subdiagonal[cut], tol, moduli)
        s = _conjugate(t, _commutator(t), tol)
        trace.append((half_width, _power_norm(s, t.dim)))
    return trace


class TruncationReport(NamedTuple):
    half_width: int
    tol: float
    q_diag_residual: float
    q_offdiag_residual: float
    q_diag_max: float
    gamma_residual: float | None
    flat_zero_max: float | None
    psd_failure_index: int | None
    invariance_violations: tuple[tuple[int, float], ...]
    # Smallest half width whose interior holds the certificate's indices
    # and the window with a margin. Below it the report claims no
    # concordance.
    sufficient_half_width: int
    norm_trace: tuple[tuple[int, float], ...] = ()

    @property
    def insufficient_interior(self) -> bool:
        return self.half_width < self.sufficient_half_width


def _needed_interior(cert: Certificate) -> int:
    indices = (
        cert.witness, cert.first_equality, cert.flat_pair_index, cert.left_run_end, cert.flat_from
    )
    return max([0, *(abs(n) for n in indices if n is not None)]) + 2


def _root_of_pair(num: int, den: int) -> float:
    """sqrt(num / den) for a non-negative int pair, also where num / den
    itself is past the largest double: the quotient is taken over
    den * 4^k and its root scaled back by 2^k. k = 0 unless the quotient is
    at least 2^1021, and a power-of-two scaling is exact, so the result is
    the root of the correctly rounded quotient wherever that exists; inf
    where the root itself is past binary64."""
    try:
        quotient = num / den
    except OverflowError:
        quotient = math.inf
    if quotient < 2.0**1020:  # the bit lengths differ by at most 1020: k = 0
        return math.sqrt(quotient)
    k = max(0, (num.bit_length() - den.bit_length()) // 2 - 510)
    try:
        return math.ldexp(math.sqrt(num / (den << 2 * k)), k)
    except OverflowError:
        return math.inf


def _gamma_float(g_sq: tuple[int, int] | None) -> float:
    """g_n from its exact square; NaN where g_n is undefined."""
    return math.nan if g_sq is None else _root_of_pair(*g_sq)


def _quotients(run: list[Pair]) -> np.ndarray:
    """p / q for each pair of the run: one correctly rounded int / int
    division each."""
    import numpy as np

    return np.fromiter(itertools.starmap(operator.truediv, run), float, len(run))


def _gammas(run: list[Pair | None]) -> np.ndarray | list[float]:
    """g_n for each exact square g_n^2 of the run. The root of a correctly
    rounded quotient is correctly rounded, and that is what
    :func:`_root_of_pair` gives wherever the quotient is finite; a run
    holding an undefined g_n or a g_n^2 past binary64 goes pair by pair
    through :func:`_gamma_float`."""
    import numpy as np

    if None not in run:
        try:
            return np.sqrt(_quotients(run))
        except OverflowError:
            pass
    return list(map(_gamma_float, run))


def _scatter(
    runs: list[Run], start: int, size: int, convert: Callable[[list], Sequence[float]]
) -> np.ndarray:
    """A float array of ``size`` zeros from index ``start`` on, holding
    convert(values) at the indices of each run: one conversion per run
    (:func:`_quotients` for d_n, :func:`_gammas` for g_n)."""
    import numpy as np

    out = np.zeros(size)
    for first, values in runs:
        out[first - start : first - start + len(values)] = convert(values)
    return out


def truncation_report(
    spec: WeightSpec,
    verdict: Verdict,
    half_width: int,
    tol: float | None = None,
    sweep: Sequence[int] | None = None,
) -> TruncationReport:
    """Cross-validate the symbolic engine on one truncation.

    Residuals compare the band-product commutator and conjugated shift
    against the exact diagonal and transformed weights; the comparison is
    the only place symbolic values enter (how Q and S are formed is not).
    The exact values come from the truncation's own moduli pairs, as a
    :class:`~shiftcert.shiftcalc.SparseRange`; each value it holds becomes
    a float by one correctly rounded int / int division of its pair, the
    nearest binary64 to it, and every other d_n and g_n is 0. The residuals
    are numpy maxima over the interior. The default tol is
    :func:`default_tolerance`'s, read off the certificate.
    """
    import numpy as np

    if tol is None:
        tol = _tolerance(verdict.certificate.sup_modulus)
    t = build_truncation(spec, half_width, tol)
    q = _commutator(t)
    tw = transformed_weights(spec, commutator_diagonal(spec))

    window_span = max(abs(spec.window_start), abs(spec.window_end + 1))
    sufficient = max(_needed_interior(verdict.certificate), window_span + 2) + 2

    interior = t.interior()
    lo, hi = t.row_of(interior.start), t.row_of(interior.stop - 1)
    q_interior = q[0][lo : hi + 1]
    # d_n for every interior n, and g_n^2 for every interior n with n + 1
    # interior, from the moduli |beta_n|, interior.start - 1 <= n < interior.stop.
    exact = sparse_range(t.moduli[1:-1], interior.start)
    gamma_residual: float | None = None
    flat_zero_max: float | None = None
    psd_failure_index: int | None = None
    try:
        s = _conjugate(t, q, tol)
        exact_gamma_sq = exact.gamma_sq()
    except (NotPSDError, NotHyponormalAtIndex):
        # Not hyponormal: numerically (Q has an entry below -tol) or only
        # exactly (a negative d_n within tol), so no conjugated operator.
        worst, where = min(zip(q_interior.tolist(), interior))
        psd_failure_index = where if worst < -tol else None
        s = None
    else:
        entries = s[-1][lo:hi]  # s[n+1, n]
        # np.fmax skips a NaN residual, as max(acc, x) keeps acc for a NaN x,
        # so an undefined g_n, made NaN, is skipped.
        exact_gamma = _scatter(exact_gamma_sq, interior.start, entries.size, _gammas)
        with np.errstate(over="ignore", invalid="ignore"):
            gamma_residual = float(np.fmax.reduce(np.abs(entries - exact_gamma), initial=0.0))
        if tw.flat_from is not None:
            flat = entries[max(tw.flat_from - interior.start, 0) :]  # g_n = 0 there
            if flat.size:
                flat_zero_max = float(np.fmax.reduce(np.abs(flat)))

    exact_d = _scatter(exact.diag, interior.start, q_interior.size, _quotients)
    with np.errstate(over="ignore", invalid="ignore"):
        q_diag_max = float(np.fmax.reduce(np.abs(q_interior), initial=0.0))
        q_diag_residual = float(np.fmax.reduce(np.abs(q_interior - exact_d), initial=0.0))
    # Entry j of diagonal k lies in the interior block for lo <= j <= hi - |k|.
    off_block = [np.abs(v[lo : hi + 1 - abs(k)]) for k, v in q.items() if k]
    q_offdiag_residual = float(np.concatenate([*off_block, [0.0]]).max())

    violations = tuple(_invariance_probe(t, q, tol))
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
        sufficient_half_width=sufficient,
        norm_trace=trace,
    )


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
        ok = not violations and report.psd_failure_index is None
        if violations:
            notes.append(f"unexpected invariance violations: {violations[:3]}")
        if ok:
            notes.append("null space invariant")
    else:  # VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
        psd = report.psd_failure_index
        ok = bool(violations) and psd is None
        if psd is not None:
            notes.append(f"unexpected negative commutator diagonal at index {psd}")
        notes.append(
            f"invariance violations at {[n for n, _ in violations[:5]]}"
            if violations
            else "expected an invariance violation; found none"
        )
    return ("agrees" if ok else "disagrees"), notes
