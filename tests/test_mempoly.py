"""Tests for the memory-polynomial model, basis, LS solver, and ILA fit."""

import dataclasses
import json
import math
import mmap
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdkit import IqSignal
from dpdkit import mempoly
from dpdkit.errors import ConditioningError, ConfigurationError, FormatError
from dpdkit.mempoly import (
    BASIS_BLOCK,
    MemoryPolyModel,
    PolyShape,
    build_basis,
    fit_ila,
    load_poly_model,
    poly_predistort,
    rescale_cascade_gain,
    save_poly_model,
    solve_regularized_ls,
    _mean_column_energy,
    _poly_keys,
)
from dpdkit.pa import SimulatedPa, load_default_pa
from row_edits import check_row_edits

RATE = 61.44e6

POLY_SHAPES = st.tuples(
    st.integers(0, 6).map(lambda i: 2 * i + 1),
    st.integers(1, 4),
    st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(0, 3).map(lambda i: 2 * i + 1), st.integers(1, 3)),
    ),
    st.booleans(),
).map(lambda t: PolyShape(t[0], t[1], *t[2], include_dc=t[3]))


def seeded_model(shape: PolyShape, seed: int) -> MemoryPolyModel:
    rng = np.random.default_rng(seed)
    n = shape.n_basis_columns
    return MemoryPolyModel(shape, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_signal(n, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return IqSignal(x, RATE)


class TestPolyShape:
    def test_counts_main_only(self):
        shape = PolyShape(p_max=7, main_taps=1)
        assert shape.n_complex_coeffs == 4
        assert shape.n_basis_columns == 4

    def test_counts_with_conjugate_and_dc(self):
        shape = PolyShape(p_max=5, main_taps=2, q_max=3, conj_taps=2, include_dc=True)
        assert shape.n_complex_coeffs == 3 * 2 + 2 * 2
        assert shape.n_basis_columns == shape.n_complex_coeffs + 1

    def test_branches_and_keys_in_basis_column_order(self):
        shape = PolyShape(9, 3, 5, 2, True)
        assert shape.branches == [
            ("main", 1, 3), ("main", 3, 3), ("main", 5, 3), ("main", 7, 3), ("main", 9, 3),
            ("conj", 1, 2), ("conj", 3, 2), ("conj", 5, 2),
        ]
        assert _poly_keys(shape) == [
            "main,1,0", "main,1,1", "main,1,2", "main,3,0", "main,3,1", "main,3,2",
            "main,5,0", "main,5,1", "main,5,2", "main,7,0", "main,7,1", "main,7,2",
            "main,9,0", "main,9,1", "main,9,2",
            "conj,1,0", "conj,1,1", "conj,3,0", "conj,3,1", "conj,5,0", "conj,5,1",
            "dc",
        ]

    def test_even_order_rejected(self):
        with pytest.raises(ConfigurationError):
            PolyShape(p_max=4, main_taps=1)

    def test_conjugate_consistency(self):
        with pytest.raises(ConfigurationError):
            PolyShape(p_max=3, main_taps=1, q_max=3, conj_taps=0)
        with pytest.raises(ConfigurationError):
            PolyShape(p_max=3, main_taps=1, q_max=0, conj_taps=1)


class TestBasis:
    def test_matches_nested_loop_oracle(self):
        shape = PolyShape(p_max=7, main_taps=3, q_max=3, conj_taps=2, include_dc=True)
        x = random_signal(257, seed=11).samples
        a = build_basis(x, shape)

        cols = []
        for p in range(1, shape.p_max + 1, 2):
            for m in range(shape.main_taps):
                col = np.zeros_like(x)
                for n in range(len(x)):
                    if n - m >= 0:
                        col[n] = x[n - m] * abs(x[n - m]) ** (p - 1)
                cols.append(col)
        for q in range(1, shape.q_max + 1, 2):
            for l in range(shape.conj_taps):
                col = np.zeros_like(x)
                for n in range(len(x)):
                    if n - l >= 0:
                        col[n] = np.conj(x[n - l]) * abs(x[n - l]) ** (q - 1)
                cols.append(col)
        cols.append(np.ones_like(x))
        oracle = np.stack(cols, axis=1)

        assert a.shape == oracle.shape
        np.testing.assert_allclose(a, oracle, rtol=1e-12, atol=1e-15)

    def test_column_order_is_order_major(self):
        shape = PolyShape(p_max=5, main_taps=2)
        x = random_signal(64, seed=3).samples
        a = build_basis(x, shape)
        # column 0: linear, tap 0; column 1: linear, tap 1; column 2: cubic, tap 0
        np.testing.assert_array_equal(a[:, 0], x)
        np.testing.assert_array_equal(a[1:, 1], x[:-1])
        np.testing.assert_allclose(a[:, 2], x * np.abs(x) ** 2, rtol=1e-12)

    def test_delayed_columns_zero_padded(self):
        shape = PolyShape(p_max=1, main_taps=3)
        x = random_signal(16, seed=5).samples
        a = build_basis(x, shape)
        assert a[0, 1] == 0
        assert a[0, 2] == 0 and a[1, 2] == 0


def _delayed_reference(x, m):
    if m == 0:
        return x
    out = np.zeros_like(x)
    out[m:] = x[:-m]
    return out


def stacked_basis_reference(x, shape):
    """The column-by-column basis: every (order, tap) column from its delayed signal."""
    x = np.asarray(x, dtype=np.complex128)
    cols = []
    for p in range(1, shape.p_max + 1, 2):
        for m in range(shape.main_taps):
            z = _delayed_reference(x, m)
            cols.append(z * (z.real**2 + z.imag**2) ** ((p - 1) // 2))
    for q in range(1, shape.q_max + 1, 2):
        for l in range(shape.conj_taps):
            z = _delayed_reference(x, l)
            cols.append(np.conj(z) * (z.real**2 + z.imag**2) ** ((q - 1) // 2))
    if shape.include_dc:
        cols.append(np.ones_like(x))
    return np.stack(cols, axis=1)


def raw_samples(n, seed):
    # IqSignal needs one sample at least; the basis builder takes empty arrays too
    rng = np.random.default_rng(seed)
    return 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def basis_into_stack(x, shape):
    """build_basis written into the top rows of a column-major (n + p, p)
    stack, as the solver lays it out; the p rows below must stay untouched."""
    n, n_cols = len(x), shape.n_basis_columns
    stack = np.full((n + n_cols, n_cols), 7 - 7j, order="F")
    top = stack[:n]
    assert build_basis(x, shape, out=top) is top
    assert stack.flags.f_contiguous
    assert (stack[n:] == 7 - 7j).all()
    return top.copy(order="C")


BUILDERS = {"fresh": build_basis, "into_stack": basis_into_stack}


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == np.complex128
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# the benchmark's polynomial grid, the amplifier core, the linear model and a
# shape with conjugate and DC columns; at lengths 0-2, M=4 and L=2 reach past
# the start of the signal
ORACLE_SHAPES = [
    PolyShape(5, 2),
    PolyShape(7, 3),
    PolyShape(9, 2),
    PolyShape(11, 4),
    PolyShape(13, 3),
    PolyShape(9, 3, q_max=5, conj_taps=2),
    PolyShape(1, 1),
    PolyShape(5, 2, q_max=3, conj_taps=1, include_dc=True),
]


class TestBasisMatchesStackedColumns:
    """build_basis gives the column-by-column formula's bytes at every length."""

    @pytest.mark.parametrize("n", [
        0, 1, 2, BASIS_BLOCK - 1, BASIS_BLOCK, BASIS_BLOCK + 1, 40_960, 81_920,
    ])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    @pytest.mark.parametrize("build", BUILDERS)
    def test_lengths(self, build, shape, n):
        x = raw_samples(n, seed=n)
        assert_same_bytes(BUILDERS[build](x, shape), stacked_basis_reference(x, shape))

    @pytest.mark.parametrize("build", BUILDERS)
    def test_strided_input(self, build):
        x = raw_samples(2 * BASIS_BLOCK + 6, seed=12)[::2]
        shape = ORACLE_SHAPES[-1]
        assert_same_bytes(BUILDERS[build](x, shape), stacked_basis_reference(x, shape))

    def test_out_of_the_wrong_shape_or_dtype_is_refused(self):
        x = raw_samples(10, seed=3)
        shape = PolyShape(5, 2)
        for out in (np.empty((10, 5), complex), np.empty((9, 6), complex), np.empty((10, 6))):
            with pytest.raises(ValueError, match="^out must be complex128 of shape"):
                build_basis(x, shape, out=out)

    def test_python_list(self):
        x = [0.3 - 0.1j, -0.0 + 0.2j, 0j, -0.5 - 0.0j, 0.25]
        for shape in ORACLE_SHAPES:
            assert_same_bytes(build_basis(x, shape), stacked_basis_reference(x, shape))

    @settings(max_examples=60, deadline=None)
    @given(
        shape=POLY_SHAPES,
        x=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                   max_size=40),
    )
    def test_drawn_signals(self, shape, x):
        assert_same_bytes(build_basis(x, shape), stacked_basis_reference(x, shape))


class TestModel:
    def test_identity_is_passthrough(self):
        model = MemoryPolyModel.identity(PolyShape(p_max=7, main_taps=3))
        sig = random_signal(300, seed=1)
        out = poly_predistort(model, sig)
        np.testing.assert_array_equal(out.samples, sig.samples)
        assert out.sample_rate_hz == sig.sample_rate_hz

    @given(shape=POLY_SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_branch_taps_are_views_of_theta_in_branch_order(self, shape, seed):
        model = seeded_model(shape, seed)
        taps = model.branch_taps()
        assert [t.size for t in taps] == [n for _, _, n in shape.branches]
        assert model.theta.shape == (shape.n_complex_coeffs + shape.include_dc,)
        dc = model.theta[-1]
        for i, t in enumerate(taps):
            t[...] = i + 1  # each write reaches theta
        labels = [i + 1 for i, (_, _, n) in enumerate(shape.branches) for _ in range(n)]
        np.testing.assert_array_equal(model.theta[: shape.n_complex_coeffs], labels)
        # dc is theta's last entry exactly when the shape has it; else that is the last tap
        assert model.theta[-1] == (dc if shape.include_dc else len(taps))
        if shape.include_dc:
            model.theta[:-1] = 0
            out = poly_predistort(model, random_signal(8, seed=seed % 100)).samples
            assert np.all(out == dc)

    def test_model_is_frozen_and_owns_a_checked_theta(self):
        shape = PolyShape(5, 2, 3, 1, include_dc=True)  # 3 * 2 + 2 * 1 taps and dc
        model = MemoryPolyModel.identity(shape)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.theta = np.zeros(9, dtype=np.complex128)
        for bad in (np.zeros(8), np.zeros(10), np.zeros((9, 1)), np.zeros((3, 3))):
            with pytest.raises(ConfigurationError,
                               match=r"^theta must be a vector of 9 coefficients, got shape") as info:
                MemoryPolyModel(shape, bad)
            assert info.value.field == "theta"
        # the constructor copies into a contiguous complex128 vector of its own
        given_theta = np.arange(18.0)[::2]
        model = MemoryPolyModel(shape, given_theta)
        given_theta[0] = -1.0
        assert model.theta[0] == 0.0
        assert model.theta.dtype == np.complex128 and model.theta.flags.c_contiguous
        assert model.theta.flags.owndata

    @given(shape=POLY_SHAPES, seed=st.integers(0, 2**32 - 1), gain=st.floats(0.05, 20.0))
    def test_rescale_is_the_model_on_the_scaled_input(self, shape, seed, gain):
        # the defining contract D'(x) = D(gain * x); dc does not scale
        model = seeded_model(shape, seed)
        scaled = rescale_cascade_gain(model, gain)
        x = random_signal(64, seed=seed)
        want = poly_predistort(model, IqSignal(gain * x.samples, RATE)).samples
        np.testing.assert_allclose(poly_predistort(scaled, x).samples, want, rtol=1e-12, atol=0)
        if shape.include_dc:
            assert scaled.theta[-1] == model.theta[-1]

    def test_predistort_matches_direct_summation(self):
        shape = PolyShape(p_max=5, main_taps=2, q_max=1, conj_taps=1, include_dc=True)
        rng = np.random.default_rng(19)
        n_cols = shape.n_basis_columns
        theta = 0.1 * (rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols))
        theta[0] = 1.0
        model = MemoryPolyModel(shape, theta)
        sig = random_signal(200, seed=23)
        out = poly_predistort(model, sig)

        x = sig.samples
        expect = np.zeros_like(x)
        idx = 0
        for p in range(1, shape.p_max + 1, 2):
            for m in range(shape.main_taps):
                shifted = np.concatenate([np.zeros(m, dtype=complex), x[: len(x) - m]])
                expect += theta[idx] * shifted * np.abs(shifted) ** (p - 1)
                idx += 1
        for q in range(1, shape.q_max + 1, 2):
            for l in range(shape.conj_taps):
                shifted = np.concatenate([np.zeros(l, dtype=complex), x[: len(x) - l]])
                expect += theta[idx] * np.conj(shifted) * np.abs(shifted) ** (q - 1)
                idx += 1
        expect += theta[idx]
        np.testing.assert_allclose(out.samples, expect, rtol=1e-12, atol=1e-15)

    @given(
        shape=POLY_SHAPES,
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.05, 20.0),
        b=st.floats(0.05, 20.0),
    )
    def test_rescale_composes_multiplicatively(self, shape, seed, a, b):
        model = seeded_model(shape, seed)
        twice = rescale_cascade_gain(rescale_cascade_gain(model, a), b)
        once = rescale_cascade_gain(model, a * b)
        np.testing.assert_allclose(twice.theta, once.theta, rtol=1e-12, atol=0)

    def test_rescale_rejects_nonfinite_bool_and_nonpositive_gains(self):
        model = seeded_model(PolyShape(5, 2), 0)
        for gain in (np.inf, -np.inf, np.nan, True, False, 0.0, -0.5, "0.9", 0.9 + 0j):
            with pytest.raises(ConfigurationError, match="^gain "):
                rescale_cascade_gain(model, gain)
        # finite, but gain**5 overflows float64
        with pytest.raises(ConfigurationError, match=r"^gain 1e\+200 raised to the power 5 overflows") as info:
            rescale_cascade_gain(model, 1e200)
        assert info.value.field == "gain"


def reference_product(a, theta):
    """The model output the basis ``a`` and coefficients ``theta`` define.

    At a multiple of BASIS_BLOCK rows this is the whole-basis product
    ``a @ theta``; at other lengths the bytes are defined blockwise, one
    product per BASIS_BLOCK rows.
    """
    if len(a) % BASIS_BLOCK == 0:
        return a @ theta
    return np.concatenate([a[start : start + BASIS_BLOCK] @ theta
                           for start in range(0, len(a), BASIS_BLOCK)])


class TestStreamedBasisProduct:
    """The model's outputs stream the basis one BASIS_BLOCK of rows at a time;
    they must keep the bytes of the product with the whole basis."""

    # the whole-basis product's bytes, then the blockwise product's
    LENGTHS = [40_960, 81_920, 1, BASIS_BLOCK - 1, BASIS_BLOCK + 1, 2 * BASIS_BLOCK + 1, 12_345]

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_pa_apply_and_poly_predistort(self, shape, n):
        x = IqSignal(0.5 * raw_samples(n, seed=n), RATE)
        model = seeded_model(shape, seed=n + shape.n_basis_columns)
        want = reference_product(build_basis(x.samples, shape), model.theta)
        bare_pa = SimulatedPa(model, saturation_output_limit=math.inf, noise_stddev=0.0)
        assert bare_pa.apply(x).samples.tobytes() == want.tobytes()
        assert poly_predistort(model, x).samples.tobytes() == want.tobytes()

    # a fit needs 10 samples per coefficient, so no one-sample frame here
    @pytest.mark.parametrize("n", LENGTHS[:2] + LENGTHS[3:])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_fit_ila_residuals(self, monkeypatch, shape, n):
        solves = []

        def recording_solve(fill, n_cols, b, **kwargs):
            theta = solve_regularized_ls(fill, n_cols, b, **kwargs)
            solves.append((fill(), b, theta))
            return theta

        monkeypatch.setattr(mempoly, "solve_regularized_ls", recording_solve)
        x = IqSignal(0.5 * raw_samples(n, seed=n), RATE)
        _, residuals = fit_ila(load_default_pa(), shape, x, 2)
        assert residuals == [
            float(np.linalg.norm(reference_product(a, theta) - b) / np.linalg.norm(b))
            for a, b, theta in solves
        ]


def solve(a, b):
    """solve_regularized_ls on a basis the caller already holds, into a stack of its own."""
    n, n_cols = a.shape
    stack = np.empty((n + n_cols, n_cols), dtype=np.complex128, order="F")
    return solve_regularized_ls(lambda out: np.copyto(out, a), n_cols, b, stack=stack)


class TestSolver:
    @staticmethod
    def ridge(a):
        return 1e-8 * np.mean(np.sum(np.abs(a) ** 2, axis=0))

    def test_unregularized_residual_orthogonal_to_columns(self):
        # the plain residual is orthogonal to the columns up to the ridge term
        rng = np.random.default_rng(2)
        a = rng.standard_normal((120, 5)) + 1j * rng.standard_normal((120, 5))
        b = rng.standard_normal(120) + 1j * rng.standard_normal(120)
        theta = solve(a, b)
        grad = a.conj().T @ (a @ theta - b) + self.ridge(a) * theta
        assert np.max(np.abs(grad)) < 1e-10

    def test_consistent_system_recovered_exactly(self):
        # the ridge solution of a consistent system, in closed form
        rng = np.random.default_rng(4)
        a = rng.standard_normal((80, 4)) + 1j * rng.standard_normal((80, 4))
        truth = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        gram = a.conj().T @ a
        expected = np.linalg.solve(gram + self.ridge(a) * np.eye(4), gram @ truth)
        theta = solve(a, a @ truth)
        np.testing.assert_allclose(theta, expected, rtol=1e-10)

    def test_default_regularization_barely_perturbs(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        truth = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        theta = solve(a, a @ truth)
        np.testing.assert_allclose(theta, truth, rtol=1e-6)

    def test_duplicate_columns_raise_conditioning_error(self):
        # the ridge scales with column energy, so two empty columns get none
        a = np.zeros((50, 2), dtype=np.complex128)
        b = np.ones(50, dtype=np.complex128)
        with pytest.raises(ConditioningError) as info:
            solve(a, b)
        assert info.value.condition_number > 1e12


def lstsq_oracle(a, b):
    """The ridge solve as scipy.linalg.lstsq computes it on a row-major stack."""
    import scipy.linalg

    n_cols = a.shape[1]
    lam = 1e-8 * float(np.mean(np.sum(np.abs(a) ** 2, axis=0)))
    stacked = np.vstack([a, np.sqrt(lam) * np.eye(n_cols, dtype=a.dtype)])
    rhs = np.concatenate([b, np.zeros(n_cols, dtype=b.dtype)])
    return scipy.linalg.lstsq(stacked, rhs, lapack_driver="gelsy")[0], stacked


def distorted_fit_problem(shape, n, seed):
    """A basis of a mildly compressed random signal, and that signal as target."""
    x = random_signal(n, seed).samples
    y = x * (1 - 0.1 * np.abs(x) ** 2) + 0.02 * np.roll(x, 1)
    return build_basis(y, shape), x


#: the poly_grid benchmark's six shapes and the default sweep's two
SOLVER_SHAPES = [
    PolyShape(5, 2),
    PolyShape(7, 3),
    PolyShape(9, 2),
    PolyShape(11, 4),
    PolyShape(13, 3),
    PolyShape(9, 3, 5, 2),
    PolyShape(7, 1),
    PolyShape(11, 2),
]


def loop_mean_column_energy(basis):
    """_mean_column_energy as one cumulative sum per column, the way it was first written."""
    n, n_cols = basis.shape
    if n == 0 or n_cols == 1:
        return float(np.mean(np.sum(np.square(np.abs(basis)), axis=0)))
    energy = np.empty(n)
    total = np.empty(n_cols)
    for j, column in enumerate(basis.T):
        np.square(np.abs(column, out=energy), out=energy)
        total[j] = np.cumsum(energy, out=energy)[-1]
    return float(np.mean(total))


def tap_runs(shape):
    """The basis's runs of delayed columns: each branch's taps, then 1 for dc."""
    return [taps for _, _, taps in shape.branches] + [1] * shape.include_dc


#: the solver's shapes, a +dc shape, conjugate taps outnumbering the main
#: ones, and the one-column basis that numpy sums pairwise
RUN_SHAPES = SOLVER_SHAPES + [
    PolyShape(5, 2, q_max=3, conj_taps=1, include_dc=True),
    PolyShape(3, 2, q_max=1, conj_taps=3),
    PolyShape(1, 1),
]


class TestRidgeEnergyRuns:
    """One cumulative sum per run of delayed columns must give the per-column loop's bits."""

    @pytest.mark.parametrize("n", [BASIS_BLOCK, BASIS_BLOCK + 1, 3 * BASIS_BLOCK + 5])
    @pytest.mark.parametrize("shape", RUN_SHAPES, ids=str)
    def test_fit_ila_lambda_has_the_per_column_bits(self, monkeypatch, shape, n):
        seen = []

        def checked(basis, runs=None):
            got = mean_column_energy(basis, runs)
            seen.append((runs, got, loop_mean_column_energy(basis)))
            return got

        mean_column_energy = mempoly._mean_column_energy
        monkeypatch.setattr(mempoly, "_mean_column_energy", checked)
        fit_ila(load_default_pa(), shape, IqSignal(0.5 * raw_samples(n, seed=n), RATE), 2)
        assert len(seen) == 2
        for runs, got, want in seen:
            assert runs == tap_runs(shape)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [PolyShape(11, 4), PolyShape(3, 2, q_max=1, conj_taps=3),
                                       PolyShape(5, 4, include_dc=True)], ids=str)
    def test_taps_delayed_past_the_last_row(self, shape, n):
        # a tap delayed by n rows or more is all +0+0j, and sums to 0
        stack = np.empty((n + shape.n_basis_columns, shape.n_basis_columns), complex, order="F")
        basis = build_basis(raw_samples(n, seed=n), shape, out=stack[:n])
        got = _mean_column_energy(basis, tap_runs(shape))
        assert np.float64(got).tobytes() == np.float64(loop_mean_column_energy(basis)).tobytes()


class TestSolverOracle:
    """solve_regularized_ls factors its own column-major stack in place; it
    must return lstsq's bytes and keep lstsq's checks."""

    # one, two and four BASIS_BLOCKs of rows: lam's row-ordered sum must
    # carry from block to block
    @pytest.mark.parametrize("n", [4096, 4099, 3 * BASIS_BLOCK + 5])
    @pytest.mark.parametrize("shape", SOLVER_SHAPES, ids=str)
    def test_same_bytes_as_lstsq(self, shape, n):
        a, b = distorted_fit_problem(shape, n, seed=shape.n_basis_columns + n)
        expected, _ = lstsq_oracle(a, b)
        a_before = a.copy()
        theta = solve(a, b)
        assert theta.dtype == expected.dtype and theta.shape == expected.shape
        assert theta.tobytes() == expected.tobytes()
        assert a.tobytes() == a_before.tobytes()  # the caller's basis is not overwritten

    def test_one_mapped_stack_serves_repeated_solves(self):
        shape = PolyShape(9, 3, 5, 2)
        n, n_cols = 2 * BASIS_BLOCK + 3, shape.n_basis_columns
        stack = mempoly._mapped_stack(n + n_cols, n_cols)
        for seed in (1, 2):
            a, b = distorted_fit_problem(shape, n, seed=seed)
            theta = solve_regularized_ls(lambda out: np.copyto(out, a), n_cols, b, stack=stack)
            assert theta.tobytes() == lstsq_oracle(a, b)[0].tobytes()

    @pytest.mark.parametrize("n", [0, 1, BASIS_BLOCK, BASIS_BLOCK + 1, 3 * BASIS_BLOCK + 5])
    @pytest.mark.parametrize("n_cols", [1, 2, 24])
    def test_ridge_energy_of_the_stack_has_the_row_major_bits(self, n_cols, n):
        # numpy sums a row-major basis row after row, but one column pairwise
        rng = np.random.default_rng(n + n_cols)
        a = rng.standard_normal((n, n_cols)) * np.exp(rng.uniform(-5, 5, (n, 1))) + 1j
        stacked = np.zeros((n + n_cols, n_cols), dtype=np.complex128, order="F")
        stacked[:n] = a
        got = _mean_column_energy(stacked[:n])
        assert got == float(np.mean(np.sum(np.abs(a) ** 2, axis=0)))

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_lapack(self, monkeypatch, where, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK reached with a non-finite input")

        monkeypatch.setattr(mempoly, "_zgelsy", no_lapack)
        a, b = distorted_fit_problem(PolyShape(5, 2), 200, seed=8)
        if where == "A":
            a[17, 3] = bad
        else:
            b[17] = complex(0.0, bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(a, b)

    @pytest.mark.parametrize("lwork", [2.0**31, -1.0])
    def test_work_size_beyond_32_bit_lapack_is_refused(self, monkeypatch, lwork):
        # lstsq's check (scipy.linalg.lapack._check_work_float), before gelsy runs
        _, gelsy_lwork = mempoly._zgelsy()

        def no_gelsy(*args, **kwargs):
            raise AssertionError("gelsy ran with an unusable work size")

        def reporting_lwork(*args):
            _, info = gelsy_lwork(*args)
            return complex(lwork), info

        monkeypatch.setattr(mempoly, "_zgelsy", lambda: (no_gelsy, reporting_lwork))
        a, b = distorted_fit_problem(PolyShape(5, 2), 200, seed=8)
        with pytest.raises(ValueError, match="Too large work array required -- computation "
                                             "cannot be performed with standard 32-bit LAPACK"):
            solve(a, b)

    def test_stack_that_is_not_complex128_is_refused(self):
        a, b = distorted_fit_problem(PolyShape(5, 2), 200, seed=8)
        stack = np.empty((200 + a.shape[1], a.shape[1]), dtype=np.complex64, order="F")
        with pytest.raises(ValueError, match="stack must be complex128, got complex64"):
            solve_regularized_ls(lambda out: np.copyto(out, a), a.shape[1], b, stack=stack)

    @pytest.mark.parametrize("order", ["fit first", "scipy.linalg first"])
    def test_load_order_does_not_matter(self, order):
        # the fit loads scipy's compiled LAPACK module without its package;
        # scipy.linalg imported before or after must still own that module
        script = """
import json, sys
from test_mempoly import PolyShape, distorted_fit_problem, lstsq_oracle, solve

linalg_first = sys.argv[1] == "scipy.linalg first"
if linalg_first:
    import scipy.linalg
assert ("scipy.linalg" in sys.modules) == linalg_first
a, b = distorted_fit_problem(PolyShape(9, 3, 5, 2), 5000, seed=3)
theta = solve(a, b)
import scipy.linalg
flapack = sys.modules["scipy.linalg._flapack"]
print(json.dumps([theta.tobytes() == lstsq_oracle(a, b)[0].tobytes(),
                  getattr(scipy.linalg, "_flapack", None) is flapack,
                  scipy.linalg.lapack._flapack is flapack]))
"""
        dirs = [str(Path(mempoly.__file__).parents[1]), str(Path(__file__).parent),
                os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, dirs))}
        out = subprocess.run([sys.executable, "-c", script, order], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert json.loads(out.splitlines()[-1]) == [True, True, True]

    def test_zero_column_reports_condition_of_the_unfactored_stack(self):
        # column energy ~1e-340 underflows, so lam = 0 and the zero column
        # survives the ridge; the estimate must come from [A; 0], not from
        # the QR factors LAPACK left in its buffer
        rng = np.random.default_rng(0)
        c = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        d = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        a = 1e-170 * np.stack([c, np.zeros(60), d], axis=1)
        _, stacked = lstsq_oracle(a, d)
        with pytest.raises(ConditioningError, match="rank 2 < 3") as info:
            solve(a, d)
        assert info.value.condition_number == float(np.linalg.cond(stacked))
        assert np.isfinite(info.value.condition_number)


class TestSolverMemory:
    """The solve holds one stacked copy of the basis, fit_ila one basis in
    all, and the model's outputs none; tracemalloc sees numpy's buffers."""

    @staticmethod
    def traced_peak(fn, *args):
        mempoly._zgelsy()  # loading LAPACK would count as the solve's

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base, result

    def test_solve_peak_is_one_basis_copy(self):
        a, b = distorted_fit_problem(PolyShape(11, 4), 81_920, seed=5)
        assert a.shape == (81_920, 24)
        peak, _ = self.traced_peak(solve, a, b)
        # the stack is A.nbytes plus 24 rows; a row-major stack copied into
        # column order, as lstsq does it, reads ~2.08
        assert peak < 1.25 * a.nbytes

    def test_fit_ila_holds_one_basis(self, monkeypatch):
        from dpdkit.ofdm import OfdmConfig, generate_ofdm

        # tracemalloc cannot see a mapping, so the fit's stack comes from the heap here
        monkeypatch.setattr(mempoly, "_mapped_stack",
                            lambda rows, cols: np.empty((rows, cols), dtype=complex, order="F"))
        shape = PolyShape(11, 4)
        _, x = generate_ofdm(OfdmConfig(n_symbols=20, seed=1))
        one_basis = len(x) * shape.n_basis_columns * 16
        peak, (_, residuals) = self.traced_peak(fit_ila, load_default_pa(), shape, x, 2)
        assert len(residuals) == 2
        # the basis is built straight into the solve's stack, and the
        # predistorter outputs and residuals stream it block by block: the
        # stack plus the frame's signals reads ~1.23; building each order's
        # full column for the stack and a whole basis for the residual read ~1.45
        assert peak < 1.3 * one_basis

    @pytest.mark.parametrize("run", ["pa.apply", "poly_predistort"])
    def test_model_output_holds_no_basis(self, run):
        x = IqSignal(0.5 * raw_samples(81_920, seed=4), RATE)
        model = seeded_model(PolyShape(13, 3), seed=4)
        fn = {"pa.apply": load_default_pa().apply,
              "poly_predistort": lambda s: poly_predistort(model, s)}[run]
        peak, _ = self.traced_peak(fn, x)
        # the output, the clip and noise temporaries and one BASIS_BLOCK of
        # rows twice over read 3.7 and 3.3; a whole basis beside its order
        # columns read 17.1 and 29.6
        assert peak < 5 * x.samples.nbytes

    def test_stack_without_mmap_flags_is_a_numpy_array(self, monkeypatch):
        shape = PolyShape(9, 3, 5, 2)
        x = IqSignal(0.5 * raw_samples(2 * BASIS_BLOCK + 3, seed=7), RATE)
        mapped_fit = fit_ila(load_default_pa(), shape, x, 2)
        # mmap has no MAP_PRIVATE on Windows, whose mmap takes no flags
        monkeypatch.delattr(mmap, "MAP_PRIVATE")
        stack = mempoly._mapped_stack(5, 3)
        assert stack.shape == (5, 3) and stack.dtype == np.complex128
        assert stack.flags.f_contiguous and stack.flags.owndata
        model, residuals = fit_ila(load_default_pa(), shape, x, 2)
        assert model.theta.tobytes() == mapped_fit[0].theta.tobytes()
        assert residuals == mapped_fit[1]

    def test_fit_maps_its_stack_once(self, monkeypatch):
        mapped = []

        def counting_stack(rows, cols):
            mapped.append((rows, cols))
            return mapped_stack(rows, cols)

        mapped_stack = mempoly._mapped_stack
        monkeypatch.setattr(mempoly, "_mapped_stack", counting_stack)
        shape = PolyShape(5, 2)
        x = IqSignal(0.5 * raw_samples(1000, seed=6), RATE)
        fit_ila(load_default_pa(), shape, x, 3)
        assert mapped == [(1000 + shape.n_basis_columns, shape.n_basis_columns)]
        fit_ila(UntouchablePa(), shape, x, 0)
        assert len(mapped) == 1


class PureGainPa:
    def __init__(self, gain):
        self.gain = gain

    def apply(self, signal):
        return IqSignal(self.gain * signal.samples, signal.sample_rate_hz)


_STUB_C3 = 0.10 + 0.05j


class InverseOfCubicPa:
    """Numerical inverse of u -> u(1 + c|u|^2); its postinverse is exactly in-class.

    The forward map has a strictly increasing radial part for this c, so the
    inverse is computed per sample by bisection on the magnitude and an exact
    phase correction.
    """

    def apply(self, signal):
        rho = np.abs(signal.samples)
        lo = np.zeros_like(rho)
        hi = rho + 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_big = mid * np.abs(1.0 + _STUB_C3 * mid**2) > rho
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        r = 0.5 * (lo + hi)
        phase = np.angle(signal.samples) - np.angle(1.0 + _STUB_C3 * r**2)
        out = r * np.exp(1j * phase)
        out[rho == 0] = 0
        return IqSignal(out, signal.sample_rate_hz)


class UntouchablePa:
    def apply(self, signal):
        raise AssertionError("the amplifier must not be driven")


class TestIla:
    def test_pure_gain_pa_yields_identity(self):
        sig = random_signal(2000, seed=31)
        model, residuals = fit_ila(PureGainPa(1.7 - 0.4j), PolyShape(p_max=7, main_taps=2), sig, 2)
        theta = model.theta
        assert abs(theta[0] - 1.0) < 1e-6
        assert np.max(np.abs(theta[1:])) < 1e-6
        assert residuals[-1] < 1e-7

    def test_in_class_postinverse_reached_in_two_iterations(self):
        sig = random_signal(4000, seed=3, scale=0.25)
        sig = IqSignal(sig.samples * (0.9 / np.abs(sig.samples).max()), RATE)
        _, residuals = fit_ila(InverseOfCubicPa(), PolyShape(p_max=7, main_taps=1), sig, 2)
        assert len(residuals) == 2
        assert residuals[-1] < 1e-6

    def test_zero_iterations_return_identity_without_touching_pa(self):
        shape = PolyShape(p_max=7, main_taps=2)
        # a signal far shorter than the fit needs: no fit runs, so no length check
        model, residuals = fit_ila(UntouchablePa(), shape, random_signal(3, seed=4), 0)
        assert residuals == []
        np.testing.assert_array_equal(model.theta, MemoryPolyModel.identity(shape).theta)

    @pytest.mark.parametrize("bad", [-1, 2.0])
    def test_bad_iteration_count_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="n_iterations"):
            fit_ila(UntouchablePa(), PolyShape(p_max=3, main_taps=1), random_signal(300, seed=4), bad)

    def test_short_training_signal_rejected(self):
        sig = random_signal(30, seed=2)
        with pytest.raises(ConfigurationError):
            fit_ila(PureGainPa(1.0), PolyShape(p_max=7, main_taps=1), sig, 1)


class TestModelIo:
    def test_round_trip_bitwise(self, tmp_path):
        shape = PolyShape(p_max=5, main_taps=2, q_max=3, conj_taps=1, include_dc=True)
        rng = np.random.default_rng(13)
        n = shape.n_basis_columns
        theta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        model = MemoryPolyModel(shape, theta)
        path = tmp_path / "model.txt"
        save_poly_model(model, path)
        back = load_poly_model(path)
        assert back.shape == shape
        for got, want in zip(back.branch_taps(), model.branch_taps(), strict=True):
            np.testing.assert_array_equal(got, want)
        assert back.theta[-1] == model.theta[-1]  # dc

    @given(shape=POLY_SHAPES, data=st.data())
    def test_round_trip_bitwise_over_shapes(self, shape, data):
        parts = st.floats(allow_nan=False, allow_infinity=False)
        theta = [complex(data.draw(parts), data.draw(parts)) for _ in range(shape.n_basis_columns)]
        model = MemoryPolyModel(shape, theta)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.txt")
            save_poly_model(model, path)
            back = load_poly_model(path)
        assert back.shape == shape
        np.testing.assert_array_equal(back.theta, model.theta)

    @given(shape=POLY_SHAPES, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_row_exactly_once(self, shape, seed, data):
        model = seeded_model(shape, seed)
        check_row_edits(data, model, save_poly_model, load_poly_model, n_header=1, n_values=2)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        # a coefficient must be finite too: NaN would reach the forward unnoticed
        for row in ("main,3,0,not_a_number,0.0", "main,1,0,nan,0", "main,3,0,0.5,-inf",
                    "dc,1e400,0.0"):
            path.write_text(
                "shape: p_max=3 main_taps=1 q_max=0 conj_taps=0 include_dc=1\n"
                "main,1,0,1.0,0.0\n"
                f"{row}\n"
            )
            with pytest.raises(FormatError, match=r"bad\.txt:3:"):
                load_poly_model(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.txt"
        path.write_text("main,1,0,1.0,0.0\n")
        with pytest.raises(FormatError):
            load_poly_model(path)
        # a malformed or out-of-range header is a format error at line 1 too
        for header in (
            "shape: p_max",
            "shape: p_max=-1 main_taps=1 q_max=0 conj_taps=0 include_dc=0",
            "shape: p_max=3 main_taps=1 q_max=0 conj_taps=0 include_dc=2",
        ):
            path.write_text(header + "\nmain,1,0,1.0,0.0\n")
            with pytest.raises(FormatError, match="headerless.txt:1:"):
                load_poly_model(path)
        # a repeated or unknown field is an error, not a last-one-wins or an ignored key
        for header, problem in (
            ("shape: p_max=5 p_max=3 main_taps=1 q_max=0 conj_taps=0 include_dc=0", "repeated"),
            ("shape: p_max=3 main_taps=1 q_max=0 conj_taps=0 include_dc=0 foo=1", "unknown"),
        ):
            path.write_text(header + "\nmain,1,0,1.0,0.0\nmain,3,0,0.0,0.0\n")
            with pytest.raises(FormatError, match=f"headerless.txt:1: .*{problem} field"):
                load_poly_model(path)
