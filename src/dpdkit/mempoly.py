"""Memory polynomial model: basis construction, predistortion, ILA fitting.

The model is the odd-order memory polynomial with an optional conjugate
branch and optional DC term:

    x_hat(n) = sum_{p odd <= P} sum_{m=0}^{M-1} alpha[p,m] * x(n-m) |x(n-m)|^(p-1)
             + sum_{q odd <= Q} sum_{l=0}^{L-1} beta[q,l] * conj(x(n-l)) |x(n-l)|^(q-1)
             + dc

M and L count taps (delays 0..M-1), and samples before the start of the
record are taken as zero.  The basis matrix orders columns canonically:
main branch with p ascending outer and tap inner, then the conjugate branch
the same way, then the DC column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError, ConfigurationError, FormatError, InputRangeError, _require_integer,
    _require_real
)
from .signals import (
    IqSignal, _content_lines, _read_rows, _require_finite, _write_rows, estimate_gain
)


@dataclass(frozen=True)
class PolyShape:
    """Structural parameters of a memory polynomial."""

    p_max: int
    main_taps: int
    q_max: int = 0
    conj_taps: int = 0
    include_dc: bool = False

    def __post_init__(self):
        if self.p_max < 1 or self.p_max % 2 == 0:
            raise ConfigurationError(f"p_max must be odd and >= 1, got {self.p_max}", "p_max")
        if self.main_taps < 1:
            raise ConfigurationError(f"main_taps must be >= 1, got {self.main_taps}", "main_taps")
        if self.q_max < 0 or (self.q_max > 0 and self.q_max % 2 == 0):
            raise ConfigurationError(f"q_max must be 0 or odd, got {self.q_max}")
        if (self.q_max == 0) != (self.conj_taps == 0):
            raise ConfigurationError(
                f"conjugate branch needs both q_max and conj_taps set "
                f"(got q_max={self.q_max}, conj_taps={self.conj_taps})"
            )
        if self.conj_taps < 0:
            raise ConfigurationError(f"conj_taps must be >= 0, got {self.conj_taps}")

    @property
    def n_main_orders(self) -> int:
        return (self.p_max + 1) // 2

    @property
    def n_conj_orders(self) -> int:
        return (self.q_max + 1) // 2 if self.q_max else 0

    @property
    def n_complex_coeffs(self) -> int:
        """Branch coefficient count, DC excluded (the headline count)."""
        return self.main_taps * self.n_main_orders + self.conj_taps * self.n_conj_orders

    @property
    def n_basis_columns(self) -> int:
        return self.n_complex_coeffs + (1 if self.include_dc else 0)


@dataclass
class MemoryPolyModel:
    """A memory polynomial with concrete coefficients."""

    shape: PolyShape
    alpha: np.ndarray  # (n_main_orders, main_taps) complex
    beta: np.ndarray  # (n_conj_orders, conj_taps) complex
    dc: complex = 0.0

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.complex128)
        self.beta = np.asarray(self.beta, dtype=np.complex128)
        want_a = (self.shape.n_main_orders, self.shape.main_taps)
        want_b = (self.shape.n_conj_orders, self.shape.conj_taps)
        if self.alpha.shape != want_a:
            raise ConfigurationError(f"alpha shape {self.alpha.shape} != {want_a}")
        if self.beta.shape != want_b:
            raise ConfigurationError(f"beta shape {self.beta.shape} != {want_b}")
        self.dc = complex(self.dc)

    @classmethod
    def identity(cls, shape: PolyShape) -> "MemoryPolyModel":
        """The passthrough model: alpha[p=1, m=0] = 1, everything else 0."""
        alpha = np.zeros((shape.n_main_orders, shape.main_taps), dtype=np.complex128)
        alpha[0, 0] = 1.0
        beta = np.zeros((shape.n_conj_orders, shape.conj_taps), dtype=np.complex128)
        return cls(shape, alpha, beta, 0.0)

    @classmethod
    def from_coefficients(cls, shape: PolyShape, theta: np.ndarray) -> "MemoryPolyModel":
        """Unpack a canonical coefficient vector."""
        theta = np.asarray(theta, dtype=np.complex128)
        if theta.size != shape.n_basis_columns:
            raise ConfigurationError(
                f"expected {shape.n_basis_columns} coefficients, got {theta.size}"
            )
        n_main = shape.n_main_orders * shape.main_taps
        n_conj = shape.n_conj_orders * shape.conj_taps
        alpha = theta[:n_main].reshape(shape.n_main_orders, shape.main_taps)
        beta = theta[n_main : n_main + n_conj].reshape(shape.n_conj_orders, shape.conj_taps)
        dc = theta[-1] if shape.include_dc else 0.0
        return cls(shape, alpha, beta, dc)

    def coefficient_vector(self) -> np.ndarray:
        """Pack coefficients in canonical basis order."""
        parts = [self.alpha.ravel(), self.beta.ravel()]
        if self.shape.include_dc:
            parts.append(np.array([self.dc]))
        return np.concatenate(parts)


#: Rows per block when build_basis fills its output, so each block's
#: column-major scratch stays cache-sized instead of growing with the frame.
BASIS_BLOCK = 4096


def build_basis(x: np.ndarray, shape: PolyShape, out: np.ndarray | None = None) -> np.ndarray:
    """Basis matrix (len(x) rows, shape.n_basis_columns columns), canonical order.

    Each order's tap-0 column is computed once; the column for tap m is the
    same column delayed by m samples, with +0+0j before the record start.
    ``out``, if given, is any (len(x), n_basis_columns) complex128 array, in
    either memory order, and receives the same bytes; it is returned.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    # |z|^(p-1) as an integer power of re^2 + im^2 — no square root, matching
    # how a datapath with only multipliers would build it
    r2 = x.real**2 + x.imag**2
    branches = [(x * r2 ** ((p - 1) // 2), shape.main_taps) for p in range(1, shape.p_max + 1, 2)]
    if shape.q_max:
        xc = np.conj(x)
        branches += [(xc * r2 ** ((q - 1) // 2), shape.conj_taps)
                     for q in range(1, shape.q_max + 1, 2)]
    if out is None:
        # after the order columns, not before: that order left holes in the
        # heap that raised poly_grid's peak RSS from 120 to 129 MB
        out = np.empty((n, shape.n_basis_columns), dtype=np.complex128)
    elif out.shape != (n, shape.n_basis_columns) or out.dtype != np.complex128:
        raise ValueError(
            f"out must be complex128 of shape {(n, shape.n_basis_columns)}, "
            f"got {out.dtype} {out.shape}"
        )
    scratch = np.empty((shape.n_basis_columns, min(n, BASIS_BLOCK)), dtype=np.complex128)
    for start in range(0, n, BASIS_BLOCK):
        stop = min(start + BASIS_BLOCK, n)
        block = scratch[:, : stop - start]
        j = 0
        for col, taps in branches:
            for m in range(taps):
                pad = min(max(m - start, 0), stop - start)  # rows before the record start
                block[j, :pad] = 0
                block[j, pad:] = col[start + pad - m : stop - m]
                j += 1
        if shape.include_dc:
            block[j] = 1
        out[start:stop] = block.T
    return out


def _apply(model: MemoryPolyModel, x: np.ndarray) -> np.ndarray:
    return build_basis(x, model.shape) @ model.coefficient_vector()


def poly_predistort(model: MemoryPolyModel, signal: IqSignal) -> IqSignal:
    """Run a signal through the memory polynomial.

    Raises:
        InputRangeError: if the signal holds NaN/inf samples.
    """
    _require_finite(signal, InputRangeError)
    return IqSignal(_apply(model, signal.samples), signal.sample_rate_hz)


def rescale_cascade_gain(model: MemoryPolyModel, gain: float) -> MemoryPolyModel:
    """Back the predistorter off to a cascade gain of ``gain`` (exactly).

    Returns the model D'(x) = D(gain * x): the order-p coefficient scales by
    gain**p, so the result stays in the same model class and linearizes to
    ``gain`` times the original cascade gain. The practical use is fitting at
    unit gain and then shrinking every coefficient under the Q1.15 ceiling —
    a fitted linear term typically lands a couple percent above 1.0.
    """
    _require_real("gain", gain)
    if gain <= 0:
        raise ConfigurationError(f"gain must be positive, got {gain!r}", "gain")
    gain = float(gain)
    s = model.shape
    alpha = model.alpha.copy()
    beta = model.beta.copy()
    try:
        for i, p in enumerate(range(1, s.p_max + 1, 2)):
            alpha[i] *= gain**p
        for i, q in enumerate(range(1, s.q_max + 1, 2)):
            beta[i] *= gain**q
    except OverflowError:  # a Python float power raises where numpy would give inf
        raise ConfigurationError(
            f"gain {gain!r} raised to the power {max(s.p_max, s.q_max)} overflows float64", "gain"
        ) from None
    return MemoryPolyModel(s, alpha, beta, model.dc)


def _basis_stack(fill, n: int, n_cols: int) -> np.ndarray:
    """The column-major (n + p, p) matrix [A; 0], with ``fill`` writing A."""
    stacked = np.empty((n + n_cols, n_cols), dtype=np.complex128, order="F")
    fill(stacked[:n])
    stacked[n:] = 0
    return stacked


def _mean_column_energy(basis: np.ndarray) -> float:
    """mean_j sum_i |basis[i, j]|^2, rounded as over a row-major basis.

    np.sum(axis=0) adds the rows of a row-major array one after another, but
    sums a column-major one, or a single column, pairwise, which rounds
    differently. So a wider basis is copied to row order one BASIS_BLOCK at a
    time, and each block's reduce after the first is seeded with the running
    total as its first row: its rows are added in sequence whatever the
    layout, with no full-size temporary. A lone column is reduced whole, as
    numpy reduces it; its energy is half the size of that one-column basis.
    """
    n, n_cols = basis.shape
    step = max(n, 1) if n_cols == 1 else BASIS_BLOCK
    total = np.zeros(n_cols)
    energy = np.empty((min(n, step) + 1, n_cols))
    for start in range(0, n, step):
        block = np.ascontiguousarray(basis[start : start + step])
        rows = energy[: len(block) + 1]
        rows[0] = total
        np.abs(block, out=rows[1:])
        np.square(rows[1:], out=rows[1:])
        total = np.sum(rows if start else rows[1:], axis=0)
    return float(np.mean(total))


def solve_regularized_ls(fill, n_cols: int, b: np.ndarray) -> np.ndarray:
    """Solve min ||A theta - b||^2 + lam ||theta||^2 by QR on the stacked matrix.

    A is the (len(b), n_cols) complex basis that ``fill(out)`` writes into
    ``out``, e.g. ``functools.partial(build_basis, x, shape)``. lam is 1e-8
    times the mean column energy of A. The stacked system
    [A; sqrt(lam) I] theta = [b; 0] is allocated column-major, ``fill``
    writes A straight into its top rows, and LAPACK gelsy (complete
    orthogonal factorization) overwrites it in place, so the solve holds one
    copy of the basis and the caller need hold none. The call repeats
    scipy.linalg.lstsq(..., lapack_driver="gelsy") argument for argument, so
    theta has the same bits; lstsq would copy the stack once more, because it
    never lets gelsy overwrite its input. scipy.linalg is imported here, at
    the first solve, so that processes that fit no polynomial never load it.

    Raises:
        ValueError: if A or b holds NaN/inf (checked before LAPACK runs).
        ConditioningError: if rank deficiency survives the regularization;
            it carries the condition number of the stacked matrix, which
            ``fill`` writes a second time because gelsy overwrote the first.
    """
    import scipy.linalg

    n = len(b)
    stacked = _basis_stack(fill, n, n_cols)
    lam = 1e-8 * _mean_column_energy(stacked[:n])
    # lam is finite exactly when every entry of [A; sqrt(lam) I] is
    if not (np.isfinite(lam) and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    root_lam = np.sqrt(lam)
    np.fill_diagonal(stacked[n:], root_lam)
    rhs = np.zeros(n + n_cols, dtype=stacked.dtype)
    rhs[:n] = b
    gelsy, gelsy_lwork = scipy.linalg.get_lapack_funcs(("gelsy", "gelsy_lwork"), (stacked, rhs))
    cond = np.finfo(gelsy.dtype).eps
    work, info = gelsy_lwork(n + n_cols, n_cols, 1, cond)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    jptv = np.zeros((n_cols, 1), dtype=np.int32)
    _, x, _, rank, info = gelsy(stacked, rhs, jptv, cond, int(work.real),
                                overwrite_a=True, overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gelsy")
    if rank < n_cols:
        del stacked  # factored in place; the estimate needs the matrix itself
        stacked = _basis_stack(fill, n, n_cols)
        np.fill_diagonal(stacked[n:], root_lam)
        raise ConditioningError(
            f"basis is rank deficient (rank {rank} < {n_cols})",
            condition_number=float(np.linalg.cond(stacked)),
        )
    return x[:n_cols].copy()  # a view would keep all n + p rows of x alive in the model


def fit_ila(
    pa, shape: PolyShape, x_train: IqSignal, n_iterations: int
) -> tuple[MemoryPolyModel, list[float]]:
    """Fit a memory-polynomial predistorter by indirect learning.

    Each iteration transmits the current predistorter output through the PA,
    normalizes the PA output by its estimated complex gain, fits the
    postdistorter (basis of normalized output -> transmitted signal) by
    regularized least squares, and copies the coefficients to the
    predistorter.

    Args:
        pa: anything exposing apply(IqSignal) -> IqSignal (e.g. SimulatedPa).
        shape: the predistorter's structure.
        x_train: training signal; must be at least 10 samples per coefficient.
        n_iterations: ILA iterations; 0 returns the identity model without
            touching ``pa``.

    Returns:
        (model, residuals): the final model and the relative LS residual
        ||A theta - b|| / ||b|| of each iteration.
    """
    _require_integer("n_iterations", n_iterations)
    if n_iterations < 0:
        raise ConfigurationError(f"n_iterations must be >= 0, got {n_iterations}")
    n_cols = shape.n_basis_columns
    if n_iterations and len(x_train) < 10 * n_cols:
        raise ConfigurationError(
            f"training signal has {len(x_train)} samples; "
            f"need at least {10 * n_cols} for {n_cols} coefficients"
        )
    model = MemoryPolyModel.identity(shape)
    residuals: list[float] = []
    for _ in range(n_iterations):
        x_hat = poly_predistort(model, x_train)
        y = pa.apply(x_hat)
        g = estimate_gain(x_hat, y)
        fill = functools.partial(build_basis, y.samples / g, shape)
        b = x_hat.samples
        theta = solve_regularized_ls(fill, n_cols, b)
        # the solve's stack is gone; the residual rebuilds A rather than keep
        # a second basis alive beside it
        A = fill()
        residuals.append(float(np.linalg.norm(A @ theta - b) / np.linalg.norm(b)))
        del A  # the next iteration's predistort builds a basis of its own
        model = MemoryPolyModel.from_coefficients(shape, theta)
    return model, residuals


def _poly_keys(shape: PolyShape) -> list[str]:
    """A model file's row keys, in coefficient_vector order."""
    keys = [f"main,{p},{m}" for p in range(1, shape.p_max + 1, 2) for m in range(shape.main_taps)]
    keys += [f"conj,{q},{l}" for q in range(1, shape.q_max + 1, 2) for l in range(shape.conj_taps)]
    return keys + ["dc"] * shape.include_dc


def save_poly_model(model: MemoryPolyModel, path: str) -> None:
    """Write a model as a shape header plus a `key,re,im` row per key of _poly_keys.

    Keys are `main,p,tap` and `conj,q,tap` rows, then `dc` if the shape has it.
    """
    s = model.shape
    header = (
        f"shape: p_max={s.p_max} main_taps={s.main_taps} "
        f"q_max={s.q_max} conj_taps={s.conj_taps} include_dc={int(s.include_dc)}"
    )
    values = model.coefficient_vector().view(np.float64).reshape(-1, 2)
    _write_rows(path, [header], _poly_keys(s), values)


def _parse_shape_header(lineno: int, line: str, path: str) -> PolyShape:
    if not line.startswith("shape:"):
        raise FormatError(f"{path}:{lineno}: expected shape header, got {line!r}")
    try:
        fields = dict(item.split("=", 1) for item in line[len("shape:") :].split())
        if fields["include_dc"] not in ("0", "1"):
            raise ValueError(f"include_dc must be 0 or 1, got {fields['include_dc']!r}")
        return PolyShape(
            p_max=int(fields["p_max"]),
            main_taps=int(fields["main_taps"]),
            q_max=int(fields["q_max"]),
            conj_taps=int(fields["conj_taps"]),
            include_dc=fields["include_dc"] == "1",
        )
    except (KeyError, ValueError, ConfigurationError) as exc:
        raise FormatError(f"{path}:{lineno}: bad shape header: {exc}") from exc


def load_poly_model(path: str) -> MemoryPolyModel:
    """Read a model written by save_poly_model; blank and `#` lines are skipped.

    Raises:
        FormatError: on a malformed header or row, naming the line number;
            every coefficient must appear exactly once with finite parts. A
            missing row names its key.
    """
    with open(path) as fh:
        lines = _content_lines(fh.read())
    if not lines:
        raise FormatError(f"{path}: empty model file")
    shape = _parse_shape_header(*lines[0], path)
    values = _read_rows(path, lines[1:], _poly_keys(shape), 2)
    return MemoryPolyModel.from_coefficients(shape, values.view(np.complex128).ravel())
