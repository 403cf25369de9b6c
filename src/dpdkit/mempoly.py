"""Memory polynomial model: basis construction, predistortion, ILA fitting.

The model is the odd-order memory polynomial with an optional conjugate
branch and optional DC term:

    x_hat(n) = sum_{p odd <= P} sum_{m=0}^{M-1} alpha[p,m] * x(n-m) |x(n-m)|^(p-1)
             + sum_{q odd <= Q} sum_{l=0}^{L-1} beta[q,l] * conj(x(n-l)) |x(n-l)|^(q-1)
             + dc

M and L count taps (delays 0..M-1), and samples before the start of the
record are taken as zero.  The basis matrix orders columns canonically:
main branch with p ascending outer and tap inner, then the conjugate branch
the same way, then the DC column: the order of a model's coefficient vector.
"""

from __future__ import annotations

import functools
import importlib.util
import mmap
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import (
    ConditioningError, ConfigurationError, FormatError, InputRangeError, _require_integer,
    _require_real
)
from .signals import (
    IqSignal, _content_lines, _read_rows, _read_text, _require_finite, _write_rows, estimate_gain
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
        _require_integer("p_max", self.p_max, 1)
        if self.p_max % 2 == 0:
            raise ConfigurationError(f"p_max must be odd, got {self.p_max}", "p_max")
        _require_integer("main_taps", self.main_taps, 1)
        _require_integer("q_max", self.q_max, 0)
        if self.q_max % 2 == 0 and self.q_max:
            raise ConfigurationError(f"q_max must be 0 or odd, got {self.q_max}", "q_max")
        _require_integer("conj_taps", self.conj_taps, 0)
        if (self.q_max == 0) != (self.conj_taps == 0):
            raise ConfigurationError(f"conj_taps must be set exactly when q_max is (got q_max="
                                     f"{self.q_max}, conj_taps={self.conj_taps})", "conj_taps")

    @property
    def branches(self) -> list[tuple[str, int, int]]:
        """(kind, order, taps) per branch in basis column order: odd "main" orders up, then "conj"."""
        return ([("main", p, self.main_taps) for p in range(1, self.p_max + 1, 2)]
                + [("conj", q, self.conj_taps) for q in range(1, self.q_max + 1, 2)])

    @property
    def n_complex_coeffs(self) -> int:
        """Branch coefficient count, DC excluded (the headline count)."""
        return sum(taps for _, _, taps in self.branches)

    @property
    def n_basis_columns(self) -> int:
        return self.n_complex_coeffs + (1 if self.include_dc else 0)


@dataclass(frozen=True)
class MemoryPolyModel:
    """A memory polynomial with concrete coefficients.

    ``theta`` holds them in basis column order: the taps of each of ``shape.branches``,
    then dc if the shape has it. The constructor copies it into a contiguous complex128
    vector of its own, which is written in place, never rebound.
    """

    shape: PolyShape
    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=np.complex128, order="C")
        n = self.shape.n_basis_columns
        if theta.shape != (n,):
            raise ConfigurationError(f"theta must be a vector of {n} coefficients, "
                                     f"got shape {theta.shape}", "theta")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def identity(cls, shape: PolyShape) -> "MemoryPolyModel":
        """The passthrough model: the p=1, m=0 coefficient 1, everything else 0."""
        return cls(shape, np.eye(1, shape.n_basis_columns)[0])

    def branch_taps(self) -> list[np.ndarray]:
        """The tap coefficients of each of shape.branches, in its order, as views of theta."""
        ends = np.cumsum([taps for _, _, taps in self.shape.branches])
        return np.split(self.theta[: ends[-1]], ends[:-1])


#: Rows per block of the basis. Each block is built from the order columns of
#: its own rows and the taps - 1 rows before them, so scratch stays
#: cache-sized whatever the frame length. Outputs of the model are computed
#: one block at a time too, and their bits depend on this size: BLAS picks its
#: kernels by matrix height, so a short last block can round a sample a few
#: ulp away from a whole-basis product (at 4097 or 8193 samples, say). Bytes
#: are defined blockwise.
BASIS_BLOCK = 4096


def _write_basis_block(x: np.ndarray, shape: PolyShape, start: int, stop: int,
                       block: np.ndarray) -> None:
    """Write rows start..stop-1 of the basis of x into ``block``.

    ``block`` is any (n_basis_columns, stop - start) complex128 array or
    view: its row j receives basis column j over those rows. Each order's
    column is computed for those rows and the taps - 1 rows before them
    only; the column for tap m is that column delayed by m samples, with
    +0+0j before the record start.
    """
    branches = shape.branches
    reach = max(taps for _, _, taps in branches) - 1
    lo = max(start - reach, 0)  # the order columns below cover rows lo..stop-1
    seg = x[lo:stop]
    # |z|^(p-1) as an integer power of re^2 + im^2 — no square root,
    # matching how a datapath with only multipliers would build it
    r2 = seg.real**2 + seg.imag**2
    segc = None
    j = 0
    for kind, order, taps in branches:
        if kind == "conj" and segc is None:
            segc = np.conj(seg)
        col = (seg if kind == "main" else segc) * r2 ** ((order - 1) // 2)
        for m in range(taps):
            pad = min(max(m - start, 0), stop - start)  # rows before the record start
            block[j, :pad] = 0
            block[j, pad:] = col[start + pad - m - lo : stop - m - lo]
            j += 1
    if shape.include_dc:
        block[j] = 1


def build_basis(x: np.ndarray, shape: PolyShape, out: np.ndarray | None = None) -> np.ndarray:
    """Basis matrix (len(x) rows, shape.n_basis_columns columns), canonical order.

    ``out``, if given, is any (len(x), n_basis_columns) complex128 array, in
    either memory order, and receives the same bytes; it is returned. Each
    BASIS_BLOCK of rows is written straight into ``out``, so a column-major
    ``out`` (the solve's stack) is filled one contiguous column run at a time.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    if out is None:
        out = np.empty((n, shape.n_basis_columns), dtype=np.complex128)
    elif out.shape != (n, shape.n_basis_columns) or out.dtype != np.complex128:
        raise ValueError(
            f"out must be complex128 of shape {(n, shape.n_basis_columns)}, "
            f"got {out.dtype} {out.shape}"
        )
    for start in range(0, n, BASIS_BLOCK):
        stop = min(start + BASIS_BLOCK, n)
        _write_basis_block(x, shape, start, stop, out[start:stop].T)
    return out


def _apply(model: MemoryPolyModel, x: np.ndarray) -> np.ndarray:
    """The model's output on x: build_basis(x, model.shape) @ theta, one BASIS_BLOCK at a time.

    Each block of basis rows is written into a scratch block, copied to
    row-major, the whole basis's layout, and multiplied by the coefficient
    vector into its rows of the output, so no full-length basis is built.
    Written straight into the row-major rows, every column write strides,
    and a P=11 M=4 model on 81,920 samples took ~9% longer on a 2-vCPU x86
    host. The bits are the whole-basis product's when
    len(x) is a multiple of BASIS_BLOCK; otherwise they are defined
    blockwise (see BASIS_BLOCK).
    """
    x = np.asarray(x, dtype=np.complex128)
    theta = model.theta
    y = np.empty(x.size, dtype=np.complex128)
    scratch = np.empty((theta.size, min(x.size, BASIS_BLOCK)), dtype=np.complex128)
    rows = np.empty((min(x.size, BASIS_BLOCK), theta.size), dtype=np.complex128)
    for start in range(0, x.size, BASIS_BLOCK):
        stop = min(start + BASIS_BLOCK, x.size)
        block = scratch[:, : stop - start]
        _write_basis_block(x, model.shape, start, stop, block)
        a = rows[: stop - start]
        a[...] = block.T
        np.matmul(a, theta, out=y[start:stop])
    return y


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
    _require_real("gain", gain, positive=True)
    gain = float(gain)
    s = model.shape
    scaled = MemoryPolyModel(s, model.theta)
    try:
        for taps, (_, order, _) in zip(scaled.branch_taps(), s.branches):
            taps *= gain**order
    except OverflowError:  # a Python float power raises where numpy would give inf
        raise ConfigurationError(
            f"gain {gain!r} raised to the power {max(s.p_max, s.q_max)} overflows float64", "gain"
        ) from None
    return scaled


def _fill_stack(stack: np.ndarray, fill, n: int) -> None:
    """Write [A; 0] into the column-major (n + p, p) ``stack``, with ``fill`` writing A."""
    fill(stack[:n])
    stack[n:] = 0


def _mapped_stack(rows: int, cols: int) -> np.ndarray:
    """A column-major complex128 (rows, cols) array in an anonymous mapping of its own.

    The mapping is returned to the system when the array's last view goes.
    A fit's solve stack is its one full-size buffer; mapped outside the
    malloc heap, it neither lands in nor leaves a hole there. Where mmap
    takes no flags (Windows), the stack is an ordinary numpy array.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty((rows, cols), dtype=np.complex128, order="F")
    # private, and populated in one call where the platform can: the solve
    # writes every page at once, and a fault per page costs more than that
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    buf = mmap.mmap(-1, rows * cols * np.dtype(np.complex128).itemsize, flags=flags)
    return np.ndarray((rows, cols), dtype=np.complex128, buffer=buf, order="F")


def _mean_column_energy(basis: np.ndarray, runs=None) -> float:
    """mean_j sum_i |basis[i, j]|^2, rounded as np.sum(axis=0) rounds it over a row-major basis.

    np.sum(axis=0) adds the rows of a row-major array one after another, but
    sums a column-major one pairwise, which rounds differently. So each
    column, contiguous in the solve's column-major stack, is summed in row
    order by a cumulative sum into one reused buffer. ``runs`` splits the
    columns into runs, in order, in which column m of a run is its first
    column delayed by m rows of +0+0j, as one branch's taps are. Adding
    those zeros first changes no bit, so column m's row-order total is the
    first column's cumulative sum at row n - 1 - m, and each run takes one
    cumulative sum. By default each column is a run of its own. numpy sums
    a lone column pairwise whatever its layout, so a one-column basis is
    reduced as numpy reduces it.
    """
    n, n_cols = basis.shape
    if n == 0 or n_cols == 1:
        return float(np.mean(np.sum(np.square(np.abs(basis)), axis=0)))
    energy = np.empty(n)
    total = np.zeros(n_cols)
    j = 0
    for taps in (1,) * n_cols if runs is None else runs:
        np.square(np.abs(basis[:, j], out=energy), out=energy)
        totals = np.cumsum(energy, out=energy)[::-1][:taps]  # a delay past row n - 1 sums to 0
        total[j : j + totals.size] = totals
        j += taps
    return float(np.mean(total))


@functools.cache
def _zgelsy():
    """LAPACK's (zgelsy, zgelsy_lwork), loaded without the scipy.linalg package.

    They are the compiled routines scipy.linalg.get_lapack_funcs returns for
    complex128, from scipy's scipy.linalg._flapack module. Only the top-level
    scipy package is imported, whose __init__ sets up the load path of the
    libraries scipy bundles; the scipy.linalg package would load some 300
    modules more. If scipy.linalg is already imported, its module is used.
    Otherwise the module is in sys.modules only while it initializes, so a
    later import of scipy.linalg builds its own module object, from
    CPython's cache of the loaded extension, with the same routines.
    """
    import scipy

    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        flapack = importlib.util.module_from_spec(spec)
        sys.modules[name] = flapack
        spec.loader.exec_module(flapack)
        sys.modules.pop(name, None)
    return flapack.zgelsy, flapack.zgelsy_lwork


def solve_regularized_ls(fill, n_cols: int, b: np.ndarray, *, stack: np.ndarray,
                         runs=None) -> np.ndarray:
    """Solve min ||A theta - b||^2 + lam ||theta||^2 by QR on the stacked matrix.

    A is the (len(b), n_cols) complex basis that ``fill(out)`` writes into
    ``out``, e.g. ``functools.partial(build_basis, x, shape)``. lam is 1e-8
    times the mean column energy of A. ``runs``, if given, lists the lengths
    of A's runs of delayed columns (see _mean_column_energy), such as a
    basis's taps per branch then 1 for dc; by default each column is a run
    of its own, which is right for any A. The stacked system
    [A; sqrt(lam) I] theta = [b; 0] is laid out column-major, ``fill``
    writes A straight into its top rows, and LAPACK gelsy (complete
    orthogonal factorization) overwrites it in place, so the solve holds one
    copy of the basis and the caller need hold none. ``stack`` is the
    column-major complex128 (len(b) + n_cols, n_cols) array the solve
    writes its stack into, so repeated solves share one buffer. The call repeats
    scipy.linalg.lstsq(..., lapack_driver="gelsy") argument for argument, and
    its work-size check, so theta has the same bits; lstsq would copy the
    stack once more, because it never lets gelsy overwrite its input. gelsy
    comes from scipy's compiled LAPACK module (_zgelsy), loaded at the first
    solve without the scipy.linalg package, so a fit imports only scipy's
    top-level package and a process that fits no polynomial loads no scipy.

    Raises:
        ValueError: if ``stack`` is not complex128, if A or b holds NaN/inf
            (checked before LAPACK runs), or if gelsy asks for a work array
            beyond 32-bit LAPACK's reach.
        ConditioningError: if rank deficiency survives the regularization;
            it carries the condition number of the stacked matrix, which
            ``fill`` writes a second time because gelsy overwrote the first.
    """
    if stack.dtype != np.complex128:
        raise ValueError(f"stack must be complex128, got {stack.dtype}")
    n = len(b)
    _fill_stack(stack, fill, n)
    lam = 1e-8 * _mean_column_energy(stack[:n], runs)
    # lam is finite exactly when every entry of [A; sqrt(lam) I] is
    if not (np.isfinite(lam) and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    root_lam = np.sqrt(lam)
    np.fill_diagonal(stack[n:], root_lam)
    rhs = np.zeros(n + n_cols, dtype=stack.dtype)
    rhs[:n] = b
    gelsy, gelsy_lwork = _zgelsy()
    cond = np.finfo(np.complex128).eps
    work, info = gelsy_lwork(n + n_cols, n_cols, 1, cond)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork = int(work.real)
    if not 0 <= lwork <= np.iinfo(np.int32).max:
        raise ValueError("Too large work array required -- computation cannot be performed "
                         "with standard 32-bit LAPACK.")
    jptv = np.zeros((n_cols, 1), dtype=np.int32)
    _, x, _, rank, info = gelsy(stack, rhs, jptv, cond, lwork, overwrite_a=True, overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gelsy")
    if rank < n_cols:
        _fill_stack(stack, fill, n)  # factored in place; the estimate needs the matrix itself
        np.fill_diagonal(stack[n:], root_lam)
        raise ConditioningError(
            f"basis is rank deficient (rank {rank} < {n_cols})",
            condition_number=float(np.linalg.cond(stack)),
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

    The fit maps one solve stack (_mapped_stack) and reuses it in every
    iteration; it is the only full-length basis the fit holds, and it is
    unmapped when the fit returns. The predistorter outputs and the
    residuals stream the basis one BASIS_BLOCK at a time (_apply).

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
    _require_integer("n_iterations", n_iterations, 0)
    n_cols = shape.n_basis_columns
    if n_iterations and len(x_train) < 10 * n_cols:
        raise ConfigurationError(
            f"training signal has {len(x_train)} samples; "
            f"need at least {10 * n_cols} for {n_cols} coefficients"
        )
    model = MemoryPolyModel.identity(shape)
    residuals: list[float] = []
    stack = _mapped_stack(len(x_train) + n_cols, n_cols) if n_iterations else None
    runs = [taps for _, _, taps in shape.branches] + [1] * shape.include_dc
    for _ in range(n_iterations):
        x_hat = poly_predistort(model, x_train)
        y = pa.apply(x_hat)
        y_norm = y.samples / estimate_gain(x_hat, y)
        del y  # the fit reads only its normalized copy
        b = x_hat.samples
        fill = functools.partial(build_basis, y_norm, shape)
        theta = solve_regularized_ls(fill, n_cols, b, stack=stack, runs=runs)
        model = MemoryPolyModel(shape, theta)
        # A @ theta is the postdistorter's output on y_norm
        residuals.append(float(np.linalg.norm(_apply(model, y_norm) - b) / np.linalg.norm(b)))
        # the next iteration drives the amplifier beside the stack alone
        del x_hat, y_norm, b, fill
    return model, residuals


def _poly_keys(shape: PolyShape) -> list[str]:
    """A model file's row keys, one per entry of a model's theta, in its order."""
    return ([f"{kind},{order},{m}" for kind, order, taps in shape.branches for m in range(taps)]
            + ["dc"] * shape.include_dc)


def save_poly_model(model: MemoryPolyModel, path: str) -> None:
    """Write a model as a shape header plus a `key,re,im` row per key of _poly_keys.

    Keys are `main,p,tap` and `conj,q,tap` rows, then `dc` if the shape has it.
    """
    s = model.shape
    header = (
        f"shape: p_max={s.p_max} main_taps={s.main_taps} "
        f"q_max={s.q_max} conj_taps={s.conj_taps} include_dc={int(s.include_dc)}"
    )
    values = model.theta.view(np.float64).reshape(-1, 2)
    _write_rows(path, [header], _poly_keys(s), values)


def _parse_shape_header(lineno: int, line: str, path: str) -> PolyShape:
    if not line.startswith("shape:"):
        raise FormatError(f"{path}:{lineno}: expected shape header, got {line!r}")
    try:
        fields = {}
        for item in line[len("shape:") :].split():
            key, value = item.split("=", 1)
            if key in fields or key not in PolyShape.__dataclass_fields__:
                raise ValueError(f"{'repeated' if key in fields else 'unknown'} field {key!r}")
            fields[key] = value
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
    lines = _content_lines(_read_text(path))
    if not lines:
        raise FormatError(f"{path}: empty model file")
    shape = _parse_shape_header(*lines[0], path)
    values = _read_rows(path, lines[1:], _poly_keys(shape), 2)
    return MemoryPolyModel(shape, values.view(np.complex128).ravel())
