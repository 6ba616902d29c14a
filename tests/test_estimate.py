import dataclasses
import warnings

import numpy as np
import pytest

from ummimo import estimate
from ummimo.errors import ConfigError, ContractError, DomainError
from ummimo.channel import (SpatialCorrelation, correlation_matrix,
                            gaussian_cluster_profile, isotropic_profile,
                            sample_rayleigh)
from ummimo.estimate import (Dictionary, PilotMatrix, build_ff_dictionary,
                             isotropic_subspace, ls_estimate, mmse_estimate,
                             mmse_pilot_design, nmse_sweep, omp_estimate,
                             orthogonal_pilot, received_pilot, rsls_estimate,
                             rsls_pilot, _sparse_sampler)
from ummimo.geometry import build_ula, build_upa
from ummimo.numerics import RngStream, complex_gaussian

LAM = 0.01


def _batch(tau, trials, seed):
    """tau x trials matrix of CN(0, 1) received pilots, one per column."""
    return np.stack([complex_gaussian(tau, RngStream(seed, t)) for t in range(trials)],
                    axis=1)


def _assert_columnwise(estimator, y):
    """estimator(y) equals estimator(y_t) in every column t, to float rounding."""
    est = estimator(y)
    assert est.shape[1] == y.shape[1]
    for t in range(y.shape[1]):
        col = estimator(np.ascontiguousarray(y[:, t]))
        assert np.linalg.norm(est[:, t] - col) <= 1e-12 * np.linalg.norm(col)


def _rand_psd(m, seed, rank=None):
    rng = np.random.default_rng(seed)
    r = rank or m
    B = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    R = B @ B.conj().T / r
    return 0.5 * (R + R.conj().T)


def _cn(g, *shape):
    """Complex standard normal draws from the numpy generator g."""
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _three_branch_pilot(m, tau, stream):
    """Reference builder: a DFT stack, the thin QR for tau <= m, or a stack of
    the full m x m QR for tau > m."""
    if stream is None:
        n = np.arange(m)
        F = np.exp(-2j * np.pi * np.outer(n, n) / m) / np.sqrt(m)
        return np.vstack([F] * (tau // m + 1))[:tau]
    g = stream.generator()
    G = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    if tau <= m:
        Q, _ = np.linalg.qr(G[:, :tau])
        return Q.conj().T
    F = np.linalg.qr(G)[0].conj().T
    return np.vstack([F] * (tau // m + 1))[:tau]


class TestPilotMatrix:
    def test_trace_normalization_enforced(self):
        with pytest.raises(ContractError):
            PilotMatrix(2.0 * np.eye(4), 1.0, 1.0)

    def test_nan_rejected(self):
        # a NaN energy or power must fail the checks, not slip past them
        with pytest.raises(ContractError, match="trace"):
            PilotMatrix(np.full((4, 4), np.nan), 1.0, 0.1)
        with pytest.raises(DomainError, match="power"):
            PilotMatrix(np.eye(4), np.nan, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["power", "noise_power"])
    def test_nonfinite_powers_rejected(self, name, bad):
        # as in the other layers: non-finite input is a DomainError naming it
        powers = {"power": 1.0, "noise_power": 0.1, name: bad}
        with pytest.raises(DomainError, match=f"^{name} must be finite and"):
            orthogonal_pilot(4, 4, powers["power"], powers["noise_power"])

    @pytest.mark.parametrize("stream", [None, RngStream(5)], ids=["dft", "seeded"])
    @pytest.mark.parametrize("m, tau", [(64, 4), (64, 64), (64, 100), (8, 3), (1, 5)])
    def test_orthogonal_pilot_equals_three_branch_builder(self, m, tau, stream):
        pilot = orthogonal_pilot(m, tau, 1.0, 0.1, stream)
        assert np.array_equal(pilot.phi, _three_branch_pilot(m, tau, stream))

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 33, 64])
    def test_leading_rows_equal_thin_qr(self, m):
        # the pilots of one stream are nested: tau_p rows of the full QR are
        # the thin QR of the first tau_p columns, bit for bit at m <= 64
        for tau in sorted({1, (m + 1) // 2, m - 1, m} - {0}):
            stream = RngStream(40 + m)
            g = stream.generator()
            G = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
            thin = np.linalg.qr(G[:, :tau])[0].conj().T
            assert np.array_equal(orthogonal_pilot(m, tau, 1.0, 0.1, stream).phi, thin)

    def test_leading_rows_near_thin_qr_past_64(self):
        m, stream = 100, RngStream(41)
        g = stream.generator()
        G = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
        for tau in (1, 37, 64, 99):
            thin = np.linalg.qr(G[:, :tau])[0].conj().T
            assert np.max(np.abs(orthogonal_pilot(m, tau, 1.0, 0.1, stream).phi - thin)) <= 1e-13

    def test_leading_child_takes_rows_of_its_basis(self):
        basis = orthogonal_pilot(8, 8, 2.0, 0.3, RngStream(42))
        for tau, rows in ((3, [0, 1, 2]), (8, list(range(8)))):
            child = basis._leading(tau)
            assert np.array_equal(child.phi, basis.phi[rows])
            assert (child.power, child.noise_power) == (2.0, 0.3)
            assert child._basis is basis
        for tau in (0, 9):
            with pytest.raises(ContractError, match=f"<= 8 basis rows, got {tau}"):
                basis._leading(tau)

    def test_empty_pilot_rejected(self):
        # tau_p = 0 passes the energy check (0 = tau_p), and the estimators
        # then failed with a raw IndexError from _pinv's largest singular value
        with pytest.raises(ContractError, match="tau_p >= 1"):
            PilotMatrix(np.zeros((0, 4)), 1.0, 0.1)
        for stream in (None, RngStream(1)):
            with pytest.raises(ContractError, match="tau_p >= 1"):
                orthogonal_pilot(4, 0, 1.0, 0.1, stream)
        for tau in (0, -1):
            with pytest.raises(ContractError, match="tau_p >= 1"):
                orthogonal_pilot(4, 4, 1.0, 0.1)._leading(tau)
        with pytest.raises(ContractError, match="m must be >= 1"):
            orthogonal_pilot(0, 4, 1.0, 0.1)

    def test_orthogonal_pilot_unitary(self):
        pilot = orthogonal_pilot(8, 8, 1.0, 0.1)
        assert np.allclose(pilot.phi @ pilot.phi.conj().T, np.eye(8), atol=1e-12)

    def test_one_unitary_per_stream(self, monkeypatch):
        # calls in a row with one (m, stream) draw and factor one unitary;
        # every pilot keeps the bits of a fresh draw
        monkeypatch.setattr(estimate, "_last_unitary", (None, None))
        draws, unitary = [], estimate._unitary
        monkeypatch.setattr(estimate, "_unitary",
                            lambda m, s: draws.append((m, s)) or unitary(m, s))
        a, b = RngStream(56), RngStream(57)
        calls = [(8, 8, a), (8, 5, a), (8, 12, a), (8, 8, b), (8, 3, a), (6, 6, a),
                 (6, 6, a), (8, 8, None), (8, 4, None)]
        pilots = [orthogonal_pilot(m, tau, 2.0, 0.1, s) for m, tau, s in calls]
        assert draws == [(8, a), (8, b), (8, a), (6, a), (8, None)]
        for (m, tau, s), pilot in zip(calls, pilots):
            assert _same_bits(pilot.phi, unitary(m, s)[np.arange(tau) % m])
        assert not estimate._last_unitary[1].flags.writeable

    def test_orthogonal_pilot_tall(self):
        pilot = orthogonal_pilot(4, 10, 1.0, 0.1)
        assert pilot.phi.shape == (10, 4)
        assert abs(np.sum(np.abs(pilot.phi) ** 2) - 10) < 1e-9


class TestReceivedPilot:
    def test_noiseless(self):
        pilot = orthogonal_pilot(4, 4, 2.0, 0.0)
        h = np.arange(4) + 1j
        y = received_pilot(pilot, h, RngStream(0))
        assert np.allclose(y, np.sqrt(2.0) * pilot.phi @ h, rtol=1e-14, atol=0.0)

    def test_pure_noise_variance(self):
        sigma2 = 0.3
        pilot = orthogonal_pilot(4, 4, 1.0, sigma2)
        trials = 25000  # 1e5 noise entries in total
        y = received_pilot(pilot, np.zeros((4, trials), dtype=complex), RngStream(5))
        assert abs(np.mean(np.abs(y) ** 2) - sigma2) < 0.02 * sigma2

    def test_deterministic(self):
        pilot = orthogonal_pilot(4, 6, 1.0, 0.5)
        h = complex_gaussian(4, RngStream(1))
        y1 = received_pilot(pilot, h, RngStream(2, 9))
        y2 = received_pilot(pilot, h, RngStream(2, 9))
        assert np.array_equal(y1, y2)

    def test_dimension_mismatch_rejected(self):
        pilot = orthogonal_pilot(4, 4, 1.0, 0.5)
        with pytest.raises(ContractError):
            received_pilot(pilot, np.zeros(5, dtype=complex), RngStream(0))
        for h in (np.zeros((5, 3)), np.zeros((4, 3, 2))):
            with pytest.raises(ContractError):
                received_pilot(pilot, h, RngStream(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_channel_rejected(self, bad):
        pilot = orthogonal_pilot(4, 4, 1.0, 0.5)
        for h in (np.ones(4, dtype=complex), np.ones((4, 3), dtype=complex)):
            h.flat[-2] = bad
            with pytest.raises(DomainError, match="^h must be finite"):
                received_pilot(pilot, h, RngStream(0))
        with pytest.raises(DomainError, match="^h must be finite"):
            received_pilot(pilot, np.array([0, 1j * bad, 0, 0]), RngStream(0))

    def test_batch_is_one_noise_block(self):
        p, sigma2 = 2.0, 0.7
        pilot = orthogonal_pilot(4, 6, p, sigma2, RngStream(1))
        H = complex_gaussian((4, 9), RngStream(2))
        s = RngStream(3, 8)
        want = np.sqrt(p) * (pilot.phi @ H) + np.sqrt(sigma2) * complex_gaussian((6, 9), s)
        assert np.array_equal(received_pilot(pilot, H, s), want)


class TestLsEstimate:
    def test_noiseless_recovery(self):
        pilot = orthogonal_pilot(6, 6, 3.0, 0.0)
        h = complex_gaussian(6, RngStream(3))
        y = received_pilot(pilot, h, RngStream(4))
        assert np.linalg.norm(ls_estimate(y, pilot) - h) < 1e-12

    def test_unitary_pilot_mse(self):
        # Monte-Carlo MSE against M sigma^2 / p within 3 standard errors
        m, p, sigma2, trials = 16, 2.0, 0.5, 10 ** 4
        pilot = orthogonal_pilot(m, m, p, sigma2)
        H = np.repeat(complex_gaussian(m, RngStream(10))[:, None], trials, axis=1)
        y = received_pilot(pilot, H, RngStream(11))
        errs = np.linalg.norm(ls_estimate(y, pilot) - H, axis=0) ** 2
        stderr = errs.std(ddof=1) / np.sqrt(trials)
        assert abs(errs.mean() - m * sigma2 / p) < 3 * stderr

    def test_nonunitary_pilot_mse(self):
        # MSE = (sigma^2/p) tr((phi^H phi)^{-1}) for any full-rank pilot
        m, p, sigma2, trials = 6, 1.0, 0.2, 2 * 10 ** 4
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        phi *= np.sqrt(m / np.sum(np.abs(phi) ** 2))
        pilot = PilotMatrix(phi, p, sigma2)
        expected = sigma2 / p * np.trace(
            np.linalg.inv(phi.conj().T @ phi)).real
        H = np.repeat(complex_gaussian(m, RngStream(12))[:, None], trials, axis=1)
        y = received_pilot(pilot, H, RngStream(13))
        errs = np.linalg.norm(ls_estimate(y, pilot) - H, axis=0) ** 2
        stderr = errs.std(ddof=1) / np.sqrt(trials)
        assert abs(errs.mean() - expected) < 3 * stderr

    def test_rank_deficient_warns(self, monkeypatch):
        phi = np.vstack([np.ones((1, 3)), np.ones((3, 3))]) / 2.0
        phi *= np.sqrt(4 / np.sum(np.abs(phi) ** 2))
        pilot = PilotMatrix(phi, 1.0, 0.1)
        with pytest.warns(RuntimeWarning):
            ls_estimate(np.zeros(4, dtype=complex), pilot)
        # through a sweep the check still runs, once per sweep point
        monkeypatch.setattr(estimate, "orthogonal_pilot", lambda *args: pilot)
        with pytest.warns(RuntimeWarning, match="rank-deficient") as record:
            nmse_sweep("ls", [4, 4], power=1.0, noise_power=0.1, trials=5,
                       stream=RngStream(0), corr=SpatialCorrelation(np.eye(3), 1.0))
        assert sum("rank-deficient" in str(w.message) for w in record) == 2

    def test_batch_equals_columnwise(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
        pilot = PilotMatrix(phi * np.sqrt(10 / np.sum(np.abs(phi) ** 2)), 2.0, 0.3)
        _assert_columnwise(lambda y: ls_estimate(y, pilot), _batch(10, 7, 9))

    @pytest.mark.parametrize("tau, m", [(10, 6), (6, 6), (4, 9)])
    def test_equals_numpy_pinv_bit_for_bit(self, tau, m):
        rng = np.random.default_rng(10 * tau + m)
        phi = rng.standard_normal((tau, m)) + 1j * rng.standard_normal((tau, m))
        pilot = PilotMatrix(phi * np.sqrt(tau / np.sum(np.abs(phi) ** 2)), 2.0, 0.3)
        y = _batch(tau, 5, 19)
        want = np.linalg.pinv(pilot.phi, rcond=1e-10) @ y / np.sqrt(2.0)
        assert np.array_equal(ls_estimate(y, pilot), want)


class TestOrthogonalGramPinv:
    """_pinv's closed form A^H D^-1 (D^-1 A^H) for orthogonal rows (columns),
    and the SVD path for every other input."""

    @staticmethod
    def _svd_calls(monkeypatch):
        calls = []
        svd = estimate.svd
        monkeypatch.setattr(estimate, "svd", lambda A: calls.append(A.shape) or svd(A))
        return calls

    @staticmethod
    def _rel(P, A):
        want = np.linalg.pinv(A, rcond=1e-10)
        return np.linalg.norm(P - want) / np.linalg.norm(want)

    @staticmethod
    def _pinv(A):
        """_pinv(A) and the messages of the warnings it raised."""
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            P = estimate._pinv(A)
        return P, [str(w.message) for w in record]

    @staticmethod
    def _operator_inputs():
        """The sweeps' three kinds of _pinv input at fig9-11's 8 x 8 array."""
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        corr = correlation_matrix(geom, gaussian_cluster_profile(
            [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], np.deg2rad(10.0)))
        sigma2 = float(np.trace(corr.R).real) / (64 * 10.0)
        U = isotropic_subspace(geom)
        basis = orthogonal_pilot(64, 64, 1.0, sigma2, RngStream(5))
        inputs = {f"nested-{tau}": basis._leading(tau).phi for tau in (4, 10, 33, 64)}
        for tau in (8, 48):
            phi = mmse_pilot_design(corr, 1.0, sigma2, tau).phi
            inputs[f"mmse-{tau}"] = phi @ corr.R @ phi.conj().T + sigma2 * np.eye(tau)
        for tau in (U.shape[1], 64):
            inputs[f"rsls-{tau}"] = rsls_pilot(U, tau, 1.0, sigma2).phi @ U
        return inputs

    def test_sweep_operators_take_the_closed_form(self, monkeypatch):
        calls = self._svd_calls(monkeypatch)
        for name, A in self._operator_inputs().items():
            P, warned = self._pinv(A)
            assert warned == []
            assert self._rel(P, A) <= 1e-12, name
        assert calls == []

    @pytest.mark.parametrize("shape", [(4, 9), (9, 4)])
    @pytest.mark.parametrize("eps, closed", [(2e-12, False), (5e-13, True)])
    def test_orthogonality_threshold(self, monkeypatch, shape, eps, closed):
        # two of the smaller side's vectors at normalised inner product eps
        g = RngStream(6).generator()
        Q = np.linalg.qr(_cn(g, 9, 9))[0]
        Q = Q[:, :4] * np.array([1.0, 2.0, 0.5, 3.0])
        Q[:, 1] = 2.0 * (np.sqrt(1 - eps ** 2) * Q[:, 1] / 2.0 + eps * Q[:, 0])
        A = Q if shape == (9, 4) else Q.T.copy()
        G = A.conj().T @ A if shape == (9, 4) else A @ A.conj().T
        assert abs(abs(G[0, 1]) / np.sqrt(G[0, 0].real * G[1, 1].real) - eps) <= 1e-15
        calls = self._svd_calls(monkeypatch)
        P, warned = self._pinv(A)
        assert warned == [] and len(calls) == (0 if closed else 1)
        if closed:
            assert self._rel(P, A) <= 1e-12
        else:
            assert np.array_equal(P, np.linalg.pinv(A, rcond=1e-10))

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_diagonal_at_the_cut(self, monkeypatch, shape, factor):
        # squared singular values 1, 1 and factor x the SVD's cut 1e-20: below
        # the cut the SVD path cuts it (and warns for a tall system), above it
        # the closed form keeps it, as the SVD would
        s = np.sqrt(factor) * 1e-10
        A = np.zeros(shape, dtype=complex)
        A[[0, 1, 2], [0, 1, 2]] = [1.0, -1j, s]
        calls = self._svd_calls(monkeypatch)
        P, warned = self._pinv(A)
        want = np.linalg.pinv(A, rcond=1e-10)
        if factor < 1:
            assert len(calls) == 1 and np.array_equal(P, want) and P[2, 2] == 0
            assert len(warned) == (shape[0] >= shape[1])
            if warned:
                assert "rank 2" in warned[0]
        else:
            assert calls == [] and warned == []
            assert self._rel(P, A) <= 1e-12 and abs(P[2, 2] * s - 1) <= 1e-15

    def test_real_input_left_unchanged(self):
        A = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
        kept = A.copy()
        P, warned = self._pinv(A)
        assert warned == [] and np.array_equal(A, kept)
        assert np.array_equal(P, [[1 / 3, 0.0], [0.0, 0.0], [0.0, -0.5]])

    def test_other_inputs_take_the_svd_path(self, monkeypatch):
        calls = self._svd_calls(monkeypatch)
        g = RngStream(7).generator()
        dense = _cn(g, 6, 6)
        cyclic = orthogonal_pilot(8, 12, 1.0, 0.1, RngStream(8)).phi  # tau_p > M
        deficient = np.zeros((4, 4), dtype=complex)
        deficient[[0, 1, 2, 3], [0, 2, 3, 0]] = 1.0
        zero = np.zeros((3, 3))
        for A, rank in ((dense, None), (cyclic, None), (deficient, 3), (zero, 0)):
            assert estimate._orthogonal_gram_pinv(A) is None
            P, warned = self._pinv(A)
            assert np.array_equal(P, np.linalg.pinv(A, rcond=1e-10))
            assert warned == ([] if rank is None else [
                f"rank-deficient {len(A)} x {len(A)} system (rank {rank}); using pseudo-inverse"])
        assert len(calls) == 4
        for bad in (np.nan, np.inf):
            A = np.eye(3, dtype=complex)
            A[1, 2] = bad
            assert estimate._orthogonal_gram_pinv(A) is None
            with pytest.raises(DomainError, match="finite"):
                estimate._pinv(A)


class TestMmseEstimate:
    def test_zero_prior_gives_zero(self):
        pilot = orthogonal_pilot(4, 4, 1.0, 0.5)
        hhat, mse = mmse_estimate(np.ones(4, dtype=complex), pilot, np.zeros((4, 4)))
        assert np.all(hhat == 0)
        assert mse == 0.0

    def test_noiseless_limit_is_ls(self):
        m = 8
        R = _rand_psd(m, 21)
        pilot = orthogonal_pilot(m, m, 1.0, 1e-12)
        h = sample_rayleigh(R, RngStream(22))
        y = received_pilot(pilot, h, RngStream(23))
        hhat, _ = mmse_estimate(y, pilot, R)
        assert np.linalg.norm(hhat - ls_estimate(y, pilot)) < 1e-6 * np.linalg.norm(h)

    def test_singular_inner_matrix_regularized(self):
        # sigma^2 = 0 with a rank-deficient phi R phi^H falls back to the
        # pseudo-inverse and flags it, at the caller
        R = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        pilot = orthogonal_pilot(4, 4, 1.0, 0.0)
        y = np.ones(4, dtype=complex)
        with pytest.warns(RuntimeWarning, match="rank-deficient") as record:
            hhat, _ = mmse_estimate(y, pilot, R)
        assert record[0].filename == __file__
        assert np.all(np.isfinite(hhat))
        # through a sweep the check still runs, once per sweep point: the
        # water-filled pilot leaves the second direction unsounded at tau_p = 2
        with pytest.warns(RuntimeWarning, match="rank-deficient") as record:
            nmse_sweep("mmse", [2, 2], power=1.0, noise_power=0.0, trials=5,
                       stream=RngStream(0), corr=SpatialCorrelation(R, 1.0))
        assert sum("rank-deficient" in str(w.message) for w in record) == 2

    @pytest.mark.parametrize("kind", ["waterfill", "dft", "seeded-short"])
    def test_equals_dense_solve(self, kind):
        # reference: W = sqrt(p) R phi^H A^{-1} by a dense solve
        m, p, sigma2 = 8, 1.3, 0.4
        R = _rand_psd(m, 26)
        pilot = {"waterfill": lambda: mmse_pilot_design(R, p, sigma2, 6),
                 "dft": lambda: orthogonal_pilot(m, m, p, sigma2),
                 "seeded-short": lambda: orthogonal_pilot(m, 5, p, sigma2, RngStream(27)),
                 }[kind]()
        phi = pilot.phi
        A = p * (phi @ R @ phi.conj().T) + sigma2 * np.eye(pilot.tau)
        W = np.linalg.solve(A.conj().T, np.sqrt(p) * (phi @ R)).conj().T
        mse_want = np.trace(R).real - np.sqrt(p) * np.trace(W @ phi @ R).real
        y = _batch(pilot.tau, 6, 28)
        hhat, mse = mmse_estimate(y, pilot, R)
        assert np.linalg.norm(hhat - W @ y) <= 1e-12 * np.linalg.norm(W @ y)
        assert abs(mse - mse_want) <= 1e-12 * mse_want

    @pytest.mark.parametrize("kind", ["waterfill", "seeded-short", "dense"])
    def test_mse_sum_equals_trace_of_product(self, kind):
        # the O(M tau) sum of W^T * (phi R) against tr(W phi R) of the M x M product
        m, p, sigma2 = 12, 1.3, 0.4
        R = _rand_psd(m, 29)
        g = np.random.default_rng(30)
        phi = g.standard_normal((7, m)) + 1j * g.standard_normal((7, m))
        pilot = {"waterfill": lambda: mmse_pilot_design(R, p, sigma2, 9),
                 "seeded-short": lambda: orthogonal_pilot(m, 5, p, sigma2, RngStream(31)),
                 "dense": lambda: PilotMatrix(phi * np.sqrt(7 / np.sum(np.abs(phi) ** 2)),
                                              p, sigma2),
                 }[kind]()
        W, mse = mmse_estimate(np.eye(pilot.tau), pilot, R)  # unit pilots return W
        want = float(np.trace(R).real - np.sqrt(p) * np.trace(W @ pilot.phi @ R).real)
        assert abs(mse - want) <= 1e-12 * want

    def test_batch_equals_columnwise(self):
        R = _rand_psd(8, 24)
        pilot = mmse_pilot_design(R, 1.0, 0.4, 6)
        y = _batch(6, 7, 25)
        _assert_columnwise(lambda y: mmse_estimate(y, pilot, R)[0], y)
        # the analytic MSE depends on the pilot alone
        assert mmse_estimate(y, pilot, R)[1] == mmse_estimate(y[:, 0], pilot, R)[1]

    def test_analytic_mse_matches_monte_carlo(self):
        m, p, sigma2, trials = 16, 1.0, 0.4, 10 ** 4
        R = _rand_psd(m, 31)
        pilot = mmse_pilot_design(R, p, sigma2, 10)
        base = RngStream(77)
        H = sample_rayleigh(R, base.split(0), trials)
        y = received_pilot(pilot, H, base.split(1))
        hhat, mse_analytic = mmse_estimate(y, pilot, R)
        errs = np.linalg.norm(hhat - H, axis=0) ** 2
        stderr = errs.std(ddof=1) / np.sqrt(trials)
        assert abs(errs.mean() - mse_analytic) < 3 * stderr

    def test_orthogonality_principle(self):
        # empirical estimate/error correlation shrinks as 1/sqrt(trials)
        m, trials = 8, 10 ** 4
        R = _rand_psd(m, 41)
        pilot = mmse_pilot_design(R, 1.0, 0.3, m)
        base = RngStream(88)
        H = sample_rayleigh(R, base.split(0), trials)
        hhat, _ = mmse_estimate(received_pilot(pilot, H, base.split(1)), pilot, R)
        err = H - hhat
        acc = np.sum(hhat.conj() * err)
        corr = abs(acc) / np.sqrt(np.linalg.norm(hhat) ** 2 * np.linalg.norm(err) ** 2)
        assert corr < 3 / np.sqrt(trials)


class TestWaterfilling:
    def test_power_sums_to_tau(self):
        R = _rand_psd(12, 51)
        for tau in (3, 7, 12):
            pilot = mmse_pilot_design(R, 1.0, 0.5, tau)
            assert abs(np.sum(np.abs(pilot.phi) ** 2) - tau) < 1e-9

    def test_equal_eigenvalues_equal_powers(self):
        pilot = mmse_pilot_design(2.5 * np.eye(6), 1.0, 0.5, 4)
        d2 = np.sum(np.abs(pilot.phi) ** 2, axis=1)
        assert np.allclose(d2, 1.0, atol=1e-9)

    def test_low_snr_concentrates_on_dominant_direction(self):
        # brute-force water-level oracle: scan mu on a fine grid and keep the
        # allocation whose powers sum closest to tau
        lam_ = np.array([10.0, 0.1, 0.05, 0.01])
        U = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4))
                         + 1j * np.random.default_rng(4).standard_normal((4, 4)))[0]
        R = (U * lam_) @ U.conj().T
        p, sigma2, tau = 1.0, 50.0, 4
        pilot = mmse_pilot_design(R, p, sigma2, tau)
        d2 = np.sum(np.abs(pilot.phi) ** 2, axis=1)
        floors = sigma2 / (p * lam_)
        grid = np.linspace(0, floors.max() + tau, 2_000_001)
        sums = np.sum(np.clip(grid[:, None] - floors[None, :4], 0, None), axis=1)
        mu = grid[np.argmin(np.abs(sums - tau))]
        oracle = np.clip(mu - floors, 0, None)
        assert np.allclose(d2, oracle, atol=5e-3)  # oracle grid resolution
        assert d2[0] > 0.99 * tau  # everything on the dominant direction

    def test_monotone_allocation(self):
        R = _rand_psd(10, 61)
        pilot = mmse_pilot_design(R, 1.0, 0.8, 8)
        d2 = np.sum(np.abs(pilot.phi) ** 2, axis=1)
        assert np.all(np.diff(d2) <= 1e-12)

    def test_zero_prior_rejected(self):
        with pytest.raises(ContractError):
            mmse_pilot_design(np.zeros((4, 4)), 1.0, 0.5, 2)

    def test_two_level_closed_form(self):
        # floors sigma^2 / (p lambda) = (0.5, 2); (mu - 0.5) + (mu - 2) = 2
        # gives mu = 2.25 and powers (1.75, 0.25)
        pilot = mmse_pilot_design(np.diag([4.0, 1.0]), 1.0, 2.0, 2)
        d2 = np.sum(np.abs(pilot.phi) ** 2, axis=1)
        assert np.allclose(d2, [1.75, 0.25], rtol=0, atol=1e-12)

    def test_zero_noise_splits_evenly_without_warning(self):
        # sigma^2 = 0: every direction with energy has infinite gain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pilot = mmse_pilot_design(np.diag([3.0, 2.0, 1.0, 0.0]), 1.0, 0.0, 4)
        d2 = np.sum(np.abs(pilot.phi) ** 2, axis=1)
        assert np.allclose(d2, [4 / 3, 4 / 3, 4 / 3, 0.0], rtol=0, atol=1e-12)

    def test_non_hermitian_rejected(self):
        R = _rand_psd(4, 71)
        R[0, 1] += 1e-3
        with pytest.raises(ContractError):
            mmse_pilot_design(R, 1.0, 0.5, 2)


class TestRsLs:
    def test_full_subspace_equals_ls(self):
        m = 6
        pilot = orthogonal_pilot(m, m, 1.0, 0.2)
        y = complex_gaussian(m, RngStream(71))
        full = np.eye(m, dtype=complex)
        assert np.linalg.norm(rsls_estimate(y, pilot, full)
                              - ls_estimate(y, pilot)) < 1e-10

    def test_optimal_pilot_mse(self):
        # MSE = rbar^2 sigma^2 / (tau p) within 3 standard errors
        m, p, sigma2, trials = 16, 1.5, 0.5, 10 ** 4
        geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        subspace = isotropic_subspace(geom)
        rbar = subspace.shape[1]
        tau = m
        pilot = rsls_pilot(subspace, tau, p, sigma2)
        expected = rbar ** 2 * sigma2 / (tau * p)
        R = correlation_matrix(geom, isotropic_profile()).R
        base = RngStream(99)
        H = sample_rayleigh(R, base.split(0), trials)
        # project H onto the subspace so the model-error term vanishes
        H = subspace @ (subspace.conj().T @ H)
        y = received_pilot(pilot, H, base.split(1))
        errs = np.linalg.norm(rsls_estimate(y, pilot, subspace) - H, axis=0) ** 2
        stderr = errs.std(ddof=1) / np.sqrt(trials)
        assert abs(errs.mean() - expected) < 3 * stderr

    def test_estimate_confined_to_subspace(self):
        m = 8
        geom = build_ula(m, LAM / 4, LAM)
        subspace = isotropic_subspace(geom)
        pilot = rsls_pilot(subspace, m, 1.0, 0.5)
        y = complex_gaussian(m, RngStream(101))
        est = rsls_estimate(y, pilot, subspace)
        outside = est - subspace @ (subspace.conj().T @ est)
        assert np.linalg.norm(outside) < 1e-10

    def test_batch_equals_columnwise(self):
        geom = build_ula(8, LAM / 4, LAM)
        subspace = isotropic_subspace(geom)
        pilot = rsls_pilot(subspace, 8, 1.0, 0.5)
        _assert_columnwise(lambda y: rsls_estimate(y, pilot, subspace), _batch(8, 7, 103))

    @pytest.mark.parametrize("tau", [None, 8, 12])
    def test_equals_normal_equations(self, tau):
        # reference: the normal equations U G^{-1} (phi U)^H y / sqrt(p),
        # G = (phi U)^H phi U
        geom = build_ula(8, LAM / 4, LAM)
        U = isotropic_subspace(geom)
        p = 1.7
        pilot = (rsls_pilot(U, U.shape[1], p, 0.5) if tau is None
                 else orthogonal_pilot(8, tau, p, 0.5, RngStream(104)))
        phiU = pilot.phi @ U
        y = _batch(pilot.tau, 6, 105)
        want = U @ np.linalg.solve(phiU.conj().T @ phiU, phiU.conj().T @ y) / np.sqrt(p)
        got = rsls_estimate(y, pilot, U)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rank_deficient_projection_warns(self):
        # phi never sounds element 1, so phi U loses a rank of U = e_0, e_1
        phi = np.zeros((4, 4), dtype=complex)
        phi[[0, 1, 2, 3], [0, 2, 3, 0]] = 1.0
        pilot = PilotMatrix(phi, 1.0, 0.1)
        U = np.eye(4, 2, dtype=complex)
        with pytest.warns(RuntimeWarning, match="rank-deficient") as record:
            est = rsls_estimate(complex_gaussian(4, RngStream(106)), pilot, U)
        assert record[0].filename == __file__  # reported at the caller
        assert np.all(np.isfinite(est))
        # the minimum-norm solution leaves the unsounded coefficient at zero
        assert np.all(est[2:] == 0) and abs(est[1]) <= 1e-12 * abs(est[0])

    def test_mixing_choice_immaterial(self):
        # the docstring's claim: any S with orthonormal columns in
        # sqrt(tau_p / r) S U^H gives the same MSE as the identity extension
        m, p, sigma2 = 8, 1.0, 0.5
        geom = build_ula(m, LAM / 4, LAM)
        subspace = isotropic_subspace(geom)
        rbar = subspace.shape[1]
        g = RngStream(102).generator()
        S2, _ = np.linalg.qr(g.standard_normal((m, rbar))
                             + 1j * g.standard_normal((m, rbar)))
        p_a = rsls_pilot(subspace, m, p, sigma2)
        phi_b = np.sqrt(m / rbar) * (S2 @ subspace.conj().T)
        # MSE depends only on subspace^H phi^H phi subspace, equal here
        ga = subspace.conj().T @ p_a.phi.conj().T @ p_a.phi @ subspace
        gb = subspace.conj().T @ phi_b.conj().T @ phi_b @ subspace
        assert np.allclose(ga, gb, atol=1e-10)

    def test_trace_exact(self):
        geom = build_ula(8, LAM / 4, LAM)
        subspace = isotropic_subspace(geom)
        pilot = rsls_pilot(subspace, 12, 1.0, 0.5)
        assert abs(np.sum(np.abs(pilot.phi) ** 2) - 12) < 1e-10

    def test_short_pilot_rejected(self):
        geom = build_ula(8, LAM / 4, LAM)
        subspace = isotropic_subspace(geom)
        with pytest.raises(ContractError):
            rsls_pilot(subspace, subspace.shape[1] - 1, 1.0, 0.5)


class TestDictionary:
    def test_coarse_lattice(self):
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 1)
        assert d.num_atoms == 5
        pairs = {tuple(p) for p in d.grid}
        assert pairs == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_reference_density_count(self):
        # closed-disk convention: 5025 lattice points at step 1/40 (the open
        # disk gives 5013, dropping the +-1 endpoints 5021)
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 40)
        assert d.num_atoms == 5025

    @pytest.mark.parametrize("density", [0.025, 7.5, 0, np.nan, -3])
    def test_non_integer_or_nonpositive_density_rejected(self, density):
        geom = build_upa(2, 2, LAM / 4, LAM / 4, LAM)
        with pytest.raises(DomainError, match="density"):
            build_ff_dictionary(geom, density)

    def test_atoms_bit_identical_to_gathered_product(self):
        # the row-by-row product in place equals the product of the two
        # gathered per-axis tables
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        n = 40
        d = build_ff_dictionary(geom, n)
        idx = np.arange(-n, n + 1)
        kappa = 2.0 * np.pi / LAM
        Ex, Ey = (np.exp(-1j * kappa * np.outer(geom.positions[:, a], idx / float(n)))
                  for a in (0, 1))
        i, j = (np.rint(d.grid * n).astype(int) + n).T
        assert np.array_equal(d.atoms, Ex[:, i] * Ey[:, j])

    def test_atom_norms_and_disk(self):
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 4)
        m = geom.num_elements
        assert np.allclose(np.abs(d.atoms), 1.0)
        assert np.allclose(np.linalg.norm(d.atoms, axis=0), np.sqrt(m))
        assert np.all(d.grid[:, 0] ** 2 + d.grid[:, 1] ** 2 <= 1.0 + 1e-12)

    def test_columns_equal_gathered_atoms(self):
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 40)
        atoms = d.atoms
        idx = RngStream(49).generator().integers(0, d.num_atoms, (25, 3))
        assert np.array_equal(d.columns(idx), atoms[:, idx])
        assert np.array_equal(d.columns(idx[0]), atoms[:, idx[0]])
        assert np.array_equal(d.columns(slice(100, 2148)), atoms[:, 100:2148])
        i, j = d.index[idx].transpose(2, 0, 1)
        assert np.array_equal(d.columns(idx), d.Ex[:, i] * d.Ey[:, j])
        assert d.columns(idx).flags.writeable  # a caller's own array

    def test_tables_only(self):
        # per-axis tables and lattice indices: O(M n + K), no M x K matrix
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 40)
        assert d.Ex.shape == d.Ey.shape == (64, 81)
        assert d.index.shape == d.grid.shape == (5025, 2)
        assert np.array_equal(d.grid, (d.index - 40) / 40.0)
        assert d.num_antennas == 64
        held = sum(t.nbytes for t in (d.Ex, d.Ey, d.index, d.grid))
        assert held < 64 * 5025 * 16 / 10

    @pytest.mark.parametrize("n_x, n_y, fx, fy", [(8, 8, 0.25, 0.25), (16, 12, 0.5, 0.4)])
    def test_factored_atoms_equal_direct_phases(self, n_x, n_y, fx, fy):
        geom = build_upa(n_x, n_y, fx * LAM, fy * LAM, LAM)
        d = build_ff_dictionary(geom, 40)
        x, y = geom.positions[:, 0], geom.positions[:, 1]
        kappa = 2 * np.pi / LAM
        direct = np.exp(-1j * kappa * (np.outer(x, d.grid[:, 0]) + np.outer(y, d.grid[:, 1])))
        assert np.max(np.abs(d.atoms - direct)) <= 1e-14
        norms = np.linalg.norm(d.atoms, axis=0)
        assert np.allclose(norms, np.sqrt(geom.num_elements), rtol=1e-14, atol=0)
        assert not d.atoms.flags.writeable and not d.grid.flags.writeable

    def test_grid_is_derived_from_the_index(self):
        # the lattice position is stated once: Dictionary(Ex, Ey, index)
        geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        for n in (1, 6):
            built = build_ff_dictionary(geom, n)
            d = Dictionary(built.Ex, built.Ey, np.array(built.index))
            for grid in (built.grid, d.grid):
                assert np.array_equal(grid, (d.index - n) / n) and not grid.flags.writeable
            assert d.grid is d.grid
        assert [f.name for f in dataclasses.fields(Dictionary)] == ["Ex", "Ey", "index"]


def _find_atom(d: Dictionary, psi, omega):
    return int(np.argmin((d.grid[:, 0] - psi) ** 2 + (d.grid[:, 1] - omega) ** 2))


class TestOmp:
    def setup_method(self):
        self.geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        self.m = self.geom.num_elements
        self.dict = build_ff_dictionary(self.geom, 40)

    def test_single_atom_exact_recovery(self):
        pilot = orthogonal_pilot(self.m, self.m, 10.0, 0.0)
        idx = _find_atom(self.dict, 0.4, -0.2)
        h = 1.3 * np.exp(0.7j) * self.dict.atoms[:, idx]
        y = received_pilot(pilot, h, RngStream(0))
        est, sel = omp_estimate(y, pilot, self.dict, 1)
        assert sel == [idx]
        assert np.linalg.norm(est - h) ** 2 < 1e-10 * np.linalg.norm(h) ** 2

    def test_three_path_recovery_full_pilot(self):
        # pairwise-orthogonal on-grid triple; at tau_p = M the projected Gram
        # is exact and the greedy recovers the support for every phase draw
        pilot = orthogonal_pilot(self.m, self.m, 10.0, 0.0,
                                 stream=RngStream(500))
        triple = [_find_atom(self.dict, -0.5, 0.0), _find_atom(self.dict, 0.0, -0.5),
                  _find_atom(self.dict, 0.5, 0.5)]
        rng = np.random.default_rng(3)
        for _ in range(25):
            gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            h = self.dict.atoms[:, triple] @ gains
            y = received_pilot(pilot, h, RngStream(1))
            est, sel = omp_estimate(y, pilot, self.dict, 3)
            oracle, *_ = np.linalg.lstsq(np.sqrt(10.0) * pilot.phi
                                         @ self.dict.atoms[:, triple], y, rcond=None)
            h_oracle = self.dict.atoms[:, triple] @ oracle
            assert sorted(sel) == sorted(triple)
            assert np.linalg.norm(est - h) ** 2 < 1e-6 * np.linalg.norm(h) ** 2
            assert np.linalg.norm(est - h_oracle) ** 2 < 1e-6 * np.linalg.norm(h) ** 2

    def test_outperforms_ls_at_moderate_pilot_lengths(self):
        # sparse channels, pilot SNR 10 dB: OMP beats plain LS from tau >= 16
        sigma2, p, trials = 1.0, 10.0, 60
        lim = np.sin(0.9 * np.pi / 2)
        ok = np.where((np.abs(self.dict.grid[:, 0]) <= lim)
                      & (np.abs(self.dict.grid[:, 1]) <= lim))[0]
        for tau in (16, 32):
            pilot = orthogonal_pilot(self.m, tau, p, sigma2, stream=RngStream(40))
            e_omp = e_ls = 0.0
            base = RngStream(41)
            for t in range(trials):
                g = base.split(3 * t).generator()
                idx = g.choice(ok, size=3, replace=False)
                gains = (g.standard_normal(3) + 1j * g.standard_normal(3)) / np.sqrt(6)
                h = self.dict.atoms[:, idx] @ gains
                y = received_pilot(pilot, h, base.split(3 * t + 1))
                est, _ = omp_estimate(y, pilot, self.dict, 3)
                e_omp += np.linalg.norm(est - h) ** 2
                e_ls += np.linalg.norm(ls_estimate(y, pilot) - h) ** 2
            assert e_omp < e_ls

    def test_batch_equals_single_calls(self):
        # column 0 is one atom, column 1 noise: both run all three selections
        pilot = orthogonal_pilot(self.m, 32, 10.0, 0.0, stream=RngStream(501))
        idx = _find_atom(self.dict, 0.3, 0.1)
        h = self.dict.atoms[:, idx]
        y = np.stack([received_pilot(pilot, h, RngStream(0)),
                      complex_gaussian(32, RngStream(502))], axis=1)
        est, sel = omp_estimate(y, pilot, self.dict, 3)
        assert est.shape == (self.m, 2)
        assert [len(s) for s in sel] == [3, 3] and sel[0][0] == idx
        for t in range(2):
            e1, s1 = omp_estimate(y[:, t], pilot, self.dict, 3)
            assert sel[t] == s1
            assert np.linalg.norm(est[:, t] - e1) <= 1e-12 * np.linalg.norm(e1)

    @pytest.mark.parametrize("tau", [4, 10, 64])
    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_block_equals_single_calls_on_fig11_channels(self, tau, small_blocks,
                                                         monkeypatch):
        # fig11's off-grid three-path channels at pilot SNR 10 dB, 50 columns
        # and one all-zero column; small blocks split them into blocks of 7
        # columns, the last one short
        if small_blocks:
            monkeypatch.setattr(estimate, "_OMP_BLOCK_ENTRIES", 7 * self.dict.num_atoms)
        sampler = _sparse_sampler(self.geom, self.dict, 3, False, 0.9 * np.pi / 2)
        pilot = orthogonal_pilot(self.m, tau, 10.0, 1.0, stream=RngStream(601))
        y = received_pilot(pilot, sampler(RngStream(602, tau), 50), RngStream(603, tau))
        y[:, 7] = 0.0
        est, sel = omp_estimate(y, pilot, self.dict, 3)
        assert {len(s) for s in sel} == {3}
        for t in range(y.shape[1]):
            e1, s1 = omp_estimate(y[:, t], pilot, self.dict, 3)
            assert sel[t] == s1
            assert np.linalg.norm(est[:, t] - e1) <= 1e-12 * np.linalg.norm(e1)
        # the zero column ties everywhere: the lowest free index, every time
        assert sel[7] == [0, 1, 2] and not np.any(est[:, 7])

    def test_sparsity_bounds_checked(self):
        pilot = orthogonal_pilot(self.m, 2, 1.0, 0.1)
        with pytest.raises(ContractError):
            omp_estimate(np.zeros(2, dtype=complex), pilot, self.dict, 3)
        pilot = orthogonal_pilot(self.m, self.m, 1.0, 0.1)
        with pytest.raises(ContractError):
            omp_estimate(np.zeros(self.m, dtype=complex), pilot, self.dict,
                         self.dict.num_atoms + 1)


def _omp_pinv_reference(A, norms, Y, sparsity):
    """The OMP greedy loop with the stacked-pinv refit at the lstsq(rcond=None)
    cut-off, run on all columns of Y for `sparsity` iterations."""
    T = Y.shape[1]
    selected = np.zeros((T, sparsity), dtype=np.intp)
    Yt = Y.T
    residual = Yt
    for k in range(sparsity):
        corr = np.abs(residual.conj() @ A) / norms
        corr[np.arange(T)[:, None], selected[:, :k]] = -1.0
        selected[:, k] = np.argmax(corr, axis=1)
        As = A[:, selected[:, :k + 1]].transpose(1, 0, 2)
        c = np.linalg.pinv(As, rcond=max(As.shape[1:]) * np.finfo(float).eps) @ Yt[:, :, None]
        residual = Yt - (As @ c)[..., 0]
    return selected, c[..., 0]


class TestOmpRefit:
    """OMP's refit by batched QR where a condition bound certifies it, the
    stacked pinv elsewhere."""

    @pytest.mark.parametrize("tau", [4, 8, 10, 16, 24, 32, 48, 64])
    def test_fig11_equals_pinv_loop(self, tau):
        # fig11's 64 x 5025 dictionary, its off-grid three-path channels at
        # pilot SNR 10 dB and its nested pilots, at every tau_p of its sweep
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        dictionary = build_ff_dictionary(geom, 40)
        sampler = _sparse_sampler(geom, dictionary, 3, False, 0.9 * np.pi / 2)
        pilot = orthogonal_pilot(64, 64, 10.0, 1.0, RngStream(801))._leading(tau)
        y = received_pilot(pilot, sampler(RngStream(802, tau), 40), RngStream(803, tau))
        est, sel = omp_estimate(y, pilot, dictionary, 3)
        A, norms = estimate._omp_operator(pilot, dictionary)
        want_sel, want_coef = _omp_pinv_reference(A, norms, y, 3)
        assert sel == want_sel.tolist()
        want = np.einsum("mtk,tk->mt", dictionary.atoms[:, want_sel], want_coef)
        assert np.all(np.linalg.norm(est - want, axis=0)
                      <= 1e-12 * np.linalg.norm(want, axis=0))

    @staticmethod
    def _pinv_stacks(monkeypatch):
        pinv, stacks = np.linalg.pinv, []
        monkeypatch.setattr(np.linalg, "pinv",
                            lambda M, rcond: stacks.append(len(M)) or pinv(M, rcond=rcond))
        return pinv, stacks

    def test_uncertified_matrices_take_the_pinv_refit(self, monkeypatch):
        # a stack of a well-conditioned matrix and two pairs of near-parallel
        # columns (condition numbers near 1e10 and 1e14): the last two are
        # refit by one stacked pinv, bit for bit the whole stack's
        g = RngStream(804).generator()
        a, b = _cn(g, 16), _cn(g, 16)
        As = np.stack([_cn(g, 16, 2),
                       np.stack([a, a + 1e-10 * b], axis=1),
                       np.stack([a, a + 1e-14 * b], axis=1)])
        y = _cn(g, 3, 16, 1)
        pinv, stacks = self._pinv_stacks(monkeypatch)
        c = estimate._refit(As, y)
        assert stacks == [2]
        want = pinv(As, rcond=16 * np.finfo(float).eps) @ y
        assert np.array_equal(c[1:], want[1:])
        assert np.linalg.norm(c[0] - want[0]) <= 1e-13 * np.linalg.norm(want[0])

    def test_exactly_singular_stack_takes_the_pinv_refit(self, monkeypatch):
        # a zero column puts a zero on R's diagonal: the whole stack is refit
        # by the stacked pinv, bit for bit, and nothing warns
        g = RngStream(805).generator()
        As = np.stack([_cn(g, 16, 2), np.stack([_cn(g, 16), np.zeros(16)], axis=1)])
        y = _cn(g, 2, 16, 1)
        pinv, stacks = self._pinv_stacks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = estimate._refit(As, y)
        assert stacks == [2]
        assert np.array_equal(c, pinv(As, rcond=16 * np.finfo(float).eps) @ y)


class TestPreparedOperators:
    """Operators formed on every call from the pilot and its statistics."""

    def setup_method(self):
        self.geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        self.m = self.geom.num_elements
        self.corr = correlation_matrix(
            self.geom, gaussian_cluster_profile([(0.0, 0.0), (0.6, 0.2)], np.deg2rad(15)))
        self.subspace = isotropic_subspace(self.geom)
        self.dict = build_ff_dictionary(self.geom, 6)
        self.y = _batch(self.m, 5, 700)

    def _all_estimates(self, pilot):
        return [ls_estimate(self.y, pilot), mmse_estimate(self.y, pilot, self.corr)[0],
                rsls_estimate(self.y, pilot, self.subspace),
                omp_estimate(self.y, pilot, self.dict, 2)[0]]

    def test_reused_pilot_bit_identical_to_fresh(self):
        pilot = orthogonal_pilot(self.m, self.m, 2.0, 0.3, stream=RngStream(701))
        first = self._all_estimates(pilot)
        again = self._all_estimates(pilot)
        fresh = self._all_estimates(PilotMatrix(pilot.phi, 2.0, 0.3))
        for a, b, c in zip(first, again, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_phi_is_a_read_only_copy(self):
        phi = orthogonal_pilot(self.m, self.m, 1.0, 0.1).phi.copy()
        pilot = PilotMatrix(phi, 1.0, 0.1)
        want = ls_estimate(self.y, pilot)
        phi[0] = 0.0
        assert not pilot.phi.flags.writeable
        assert np.array_equal(ls_estimate(self.y, pilot), want)

    def test_other_statistics_get_their_own_operator(self):
        pilot = orthogonal_pilot(self.m, 8, 1.0, 0.1, stream=RngStream(702))
        other = correlation_matrix(self.geom, isotropic_profile(2.0))
        mmse_estimate(self.y[:8], pilot, self.corr)
        got, mse = mmse_estimate(self.y[:8], pilot, other)
        want, want_mse = mmse_estimate(self.y[:8], PilotMatrix(pilot.phi, 1.0, 0.1), other)
        assert np.array_equal(got, want) and mse == want_mse
        assert not np.allclose(got, mmse_estimate(self.y[:8], pilot, self.corr)[0])

    def test_writeable_statistics_not_cached(self):
        pilot = orthogonal_pilot(self.m, self.m, 1.0, 0.1)
        U = np.array(self.subspace)  # writeable
        rsls_estimate(self.y, pilot, U)
        U[:] = np.eye(self.m, U.shape[1])  # another orthonormal basis, in place
        want = rsls_estimate(self.y, PilotMatrix(pilot.phi, 1.0, 0.1), U.copy())
        assert np.array_equal(rsls_estimate(self.y, pilot, U), want)
        # so does a correlation matrix changed in place
        R = np.array(self.corr.R)
        mmse_estimate(self.y, pilot, R)
        R[:] = _rand_psd(self.m, 703)
        got = mmse_estimate(self.y, pilot, SpatialCorrelation(R, 1.0))
        want = mmse_estimate(self.y, PilotMatrix(pilot.phi, 1.0, 0.1), R.copy())
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_rank_deficiency_warns_on_every_call(self):
        phi = np.zeros((4, 4), dtype=complex)
        phi[[0, 1, 2, 3], [0, 2, 3, 0]] = 1.0
        pilot = PilotMatrix(phi, 1.0, 0.1)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="rank-deficient") as record:
                ls_estimate(np.ones(4, dtype=complex), pilot)
            assert record[0].filename == __file__


class TestNestedPilotSensing:
    """OMP on a _leading child takes the leading rows of its basis's sensing
    matrix: the same bits as the child's own product at fig11's shapes."""

    def setup_method(self):
        self.geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        self.dict = build_ff_dictionary(self.geom, 40)  # 64 x 5025

    @pytest.mark.parametrize("tau", [4, 10, 33, 64])
    def test_child_sensing_equals_own_product(self, tau):
        p = 10.0
        basis = orthogonal_pilot(64, 64, p, 1.0, RngStream(43))
        child = basis._leading(tau)
        A, norms = estimate._omp_operator(child, self.dict)
        want = np.sqrt(p) * (child.phi @ self.dict.atoms)
        assert np.array_equal(A, want)
        assert np.array_equal(norms, np.linalg.norm(want, axis=0))
        assert basis._sensing_slot[0] is self.dict
        assert np.shares_memory(A, basis._sensing_slot[1])
        alone = estimate._omp_operator(PilotMatrix(child.phi, p, 1.0), self.dict)
        assert np.array_equal(alone[0], want) and np.array_equal(alone[1], norms)

    def test_omp_sweep_forms_the_basis_sensing_matrix_once(self, monkeypatch):
        calls, sensing = [], estimate._sensing
        monkeypatch.setattr(estimate, "_sensing",
                            lambda pilot, d: calls.append(pilot.tau) or sensing(pilot, d))
        sampler = _sparse_sampler(self.geom, self.dict, 3, False, 0.45 * np.pi)
        nmse_sweep("omp", [4, 8, 10, 16, 24, 32, 48, 64], power=10.0, noise_power=1.0,
                   trials=2, stream=RngStream(46), dictionary=self.dict, sparsity=3,
                   sampler=sampler, trace_r=64.0, pilot_stream=RngStream(47))
        assert calls == [64]

    @pytest.mark.parametrize("taus", [[4, 10, 16], [4, 64, 100, 80]], ids=["below-m", "above-m"])
    def test_omp_sweep_senses_only_its_widest_pilot(self, taus, monkeypatch):
        # the basis has the widest tau_p rows (rows i mod M past M), so the
        # one sensing matrix has those rows only; each point equals a fresh
        # pilot of its own rows with its own sensing matrix
        calls, sensing = [], estimate._sensing
        monkeypatch.setattr(estimate, "_sensing",
                            lambda pilot, d: calls.append(pilot.tau) or sensing(pilot, d))
        sampler = _sparse_sampler(self.geom, self.dict, 3, False, 0.45 * np.pi)
        stream, pilot_stream, p, trials = RngStream(52), RngStream(53), 10.0, 3
        res = nmse_sweep("omp", taus, power=p, noise_power=1.0, trials=trials, stream=stream,
                         dictionary=self.dict, sparsity=3, sampler=sampler, trace_r=64.0,
                         pilot_stream=pilot_stream)
        assert calls == [max(taus)]
        for i, (tau, r) in enumerate(zip(taus, res)):
            pilot = PilotMatrix(orthogonal_pilot(64, tau, p, 1.0, pilot_stream).phi, p, 1.0)
            H = sampler(stream.split(i).split(0), trials)
            Y = received_pilot(pilot, H, stream.split(i).split(1))
            errs = np.linalg.norm(omp_estimate(Y, pilot, self.dict, 3)[0] - H, axis=0) ** 2
            assert r.nmse == float(errs.mean() / 64.0)

    def test_read_only_tables_keep_the_slot(self):
        # a Dictionary takes read-only copies of its tables, so the caller's
        # arrays changed in place reach neither its atoms nor the slot, which
        # serves every dictionary
        geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        built = build_ff_dictionary(geom, 6)
        tables = [np.array(t) for t in (built.Ex, built.Ey, built.index)]
        d = Dictionary(*tables)  # from writeable arrays
        for t in (d.Ex, d.Ey, d.index, d.grid, d.atoms):
            assert not t.flags.writeable
        atoms = d.atoms
        assert np.array_equal(atoms, built.atoms)
        for t in tables:
            t[:] = t[::-1]
        assert np.array_equal(d.atoms, atoms)
        basis = orthogonal_pilot(16, 16, 2.0, 0.1, RngStream(48))
        first, _ = estimate._omp_operator(basis._leading(8), d)
        A, _ = estimate._omp_operator(basis._leading(8), d)
        assert basis._sensing_slot[0] is d
        assert np.shares_memory(A, basis._sensing_slot[1]) and np.shares_memory(A, first)
        assert np.array_equal(A, np.sqrt(2.0) * (basis._leading(8).phi @ atoms))

    @pytest.mark.parametrize("est", ["ls", "omp"])
    def test_sweep_equals_fresh_thin_qr_pilots(self, est):
        # oracle: per sweep point a fresh pilot from the thin QR, its own
        # sensing matrix and one batched estimator call
        taus, p, sigma2, trials = [4, 8, 10, 16, 24, 32, 48, 64], 10.0, 1.0, 6
        sampler = _sparse_sampler(self.geom, self.dict, 3, False, 0.45 * np.pi)
        stream, pilot_stream = RngStream(44), RngStream(45)
        res = nmse_sweep(est, taus, power=p, noise_power=sigma2, trials=trials,
                         stream=stream, dictionary=self.dict, sparsity=3, sampler=sampler,
                         trace_r=64.0, pilot_stream=pilot_stream)
        for i, (tau, r) in enumerate(zip(taus, res)):
            g = pilot_stream.generator()
            G = g.standard_normal((64, 64)) + 1j * g.standard_normal((64, 64))
            pilot = PilotMatrix(np.linalg.qr(G[:, :tau])[0].conj().T, p, sigma2)
            H = sampler(stream.split(i).split(0), trials)
            Y = received_pilot(pilot, H, stream.split(i).split(1))
            Hh = ls_estimate(Y, pilot) if est == "ls" else omp_estimate(Y, pilot, self.dict, 3)[0]
            errs = np.linalg.norm(Hh - H, axis=0) ** 2
            assert r.nmse == float(errs.mean() / 64.0)
            assert r.stderr == float(errs.std(ddof=1) / np.sqrt(trials) / 64.0)


class TestSensingBlocks:
    """_sensing fills sqrt(p) phi atoms in column blocks gathered from the
    per-axis tables: the same bits as the one dense product."""

    @pytest.mark.parametrize("tau", [1, 4, 25, 64])
    def test_fig11_shape_equals_dense_product(self, tau):
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 40)  # 64 x 5025, three blocks
        pilot = PilotMatrix(orthogonal_pilot(64, 64, 10.0, 1.0, RngStream(50)).phi[:tau],
                            10.0, 1.0)
        assert _same_bits(estimate._sensing(pilot, d), np.sqrt(10.0) * (pilot.phi @ d.atoms))

    @pytest.mark.parametrize("num_atoms", [65, 129, 130, 5025])
    def test_short_last_block_equals_dense_product(self, num_atoms, monkeypatch):
        # 64-column blocks: K = 5025 leaves 33 columns, K = 130 two, and
        # K = 65 and 129 a lone column, which joins the block before it
        monkeypatch.setattr(estimate, "_SENSING_BLOCK_COLUMNS", 64)
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        full = build_ff_dictionary(geom, 40)
        d = Dictionary(full.Ex, full.Ey, full.index[:num_atoms])
        for tau in (1, 2, 25, 64):
            pilot = PilotMatrix(orthogonal_pilot(64, 64, 3.0, 1.0, RngStream(51)).phi[:tau],
                                3.0, 1.0)
            assert _same_bits(estimate._sensing(pilot, d), np.sqrt(3.0) * (pilot.phi @ d.atoms))

    def test_large_array_small_density_equals_dense_product(self):
        # 1024 x 797: three full blocks and one of 29 columns
        geom = build_upa(32, 32, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 16)
        assert d.num_atoms == 797
        basis = orthogonal_pilot(1024, 1024, 2.0, 1.0)
        for pilot in (basis, PilotMatrix(basis.phi[:100], 2.0, 1.0)):
            assert _same_bits(estimate._sensing(pilot, d), np.sqrt(2.0) * (pilot.phi @ d.atoms))

    def test_omp_sweep_peak_memory(self):
        # the dictionary keeps per-axis tables only, and an OMP sweep holds the
        # basis's sensing matrix (M K 16 bytes) and one T x K product and
        # magnitude buffer (T K 24 bytes), plus 2 MiB: no M x K atom matrix
        import tracemalloc
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        m, trials = 64, 25
        tracemalloc.start()
        try:
            d = build_ff_dictionary(geom, 40)
            kept = tracemalloc.get_traced_memory()[0]
            sampler = _sparse_sampler(geom, d, 3, False, 0.45 * np.pi)
            nmse_sweep("omp", [4, 8, 10, 16, 24, 32, 48, 64], power=10.0, noise_power=1.0,
                       trials=trials, stream=RngStream(52), dictionary=d, sparsity=3,
                       sampler=sampler, trace_r=float(m), pilot_stream=RngStream(53))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = d.num_atoms
        assert kept < 1 << 20
        assert peak <= m * k * 16 + trials * k * 24 + (2 << 20)


class TestSparseSampler:
    def test_too_few_atoms_on_grid_rejected(self):
        # density 1 puts 1 of its 5 atoms, the broadside one, inside the box
        geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 1)
        with pytest.raises(ConfigError, match=r"paths = 3 .*grid_density = 1 puts 1 there"):
            _sparse_sampler(geom, d, 3, True, 0.45 * np.pi)
        h = _sparse_sampler(geom, d, 1, True, 0.45 * np.pi)(RngStream(54), 4)
        assert np.array_equal(h, np.broadcast_to(h[0], h.shape))  # the broadside atom
        assert _sparse_sampler(geom, d, 3, False, 0.45 * np.pi)(RngStream(54), 4).shape == (16, 4)

    def test_on_grid_paths_are_dictionary_columns(self):
        geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        d = build_ff_dictionary(geom, 6)
        lim = np.sin(0.45 * np.pi)
        ok = np.where((np.abs(d.grid[:, 0]) <= lim) & (np.abs(d.grid[:, 1]) <= lim))[0]
        H = _sparse_sampler(geom, d, 3, True, 0.45 * np.pi)(RngStream(55), 6)
        g = RngStream(55).generator()
        gains = (g.standard_normal((6, 3)) + 1j * g.standard_normal((6, 3))) / np.sqrt(6.0)
        pick = np.argpartition(g.random((6, ok.size)), 2, axis=1)[:, :3]
        want = np.einsum("mts,ts->mt", d.atoms[:, ok[pick]], gains)
        assert _same_bits(H, want)


class TestNmseSweep:
    def setup_method(self):
        self.geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        self.corr = correlation_matrix(self.geom, isotropic_profile())
        self.m = 16

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            nmse_sweep("kalman", [4], power=1.0, noise_power=0.1, trials=2,
                       stream=RngStream(0), corr=self.corr)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_rejected(self, trials):
        # one trial has no sample standard deviation: stderr would be nan
        with pytest.raises(ConfigError, match="trials"):
            nmse_sweep("ls", [4], power=1.0, noise_power=0.1, trials=trials,
                       stream=RngStream(0), corr=self.corr)

    @pytest.mark.parametrize("est", ["ls", "mmse", "rs-ls", "omp"])
    def test_batched_matches_per_trial_loop(self, est):
        # oracle: the sweep point's two blocks, channels from
        # stream.split(i).split(0) and pilot noise from stream.split(i).split(1),
        # then the single-vector estimators per column
        p, sigma2, trials = 1.0, 0.3, 30
        subspace = isotropic_subspace(self.geom)
        dictionary = build_ff_dictionary(self.geom, 8)
        taus = [subspace.shape[1], self.m] if est == "rs-ls" else [4, self.m]
        pilot_stream = RngStream(7)
        stream = RngStream(15)
        res = nmse_sweep(est, taus, power=p, noise_power=sigma2, trials=trials,
                         stream=stream, corr=self.corr, subspace=subspace,
                         dictionary=dictionary, sparsity=2, pilot_stream=pilot_stream)
        tr = float(np.trace(self.corr.R).real)
        for i, (tau, r) in enumerate(zip(taus, res)):
            if est == "mmse":
                pilot = mmse_pilot_design(self.corr, p, sigma2, tau)
            elif est == "rs-ls":
                pilot = rsls_pilot(subspace, tau, p, sigma2)
            else:
                pilot = orthogonal_pilot(self.m, tau, p, sigma2, pilot_stream)
            H = sample_rayleigh(self.corr, stream.split(i).split(0), trials)
            Y = received_pilot(pilot, H, stream.split(i).split(1))
            errs = np.empty(trials)
            for t, (h, y) in enumerate(zip(H.T, Y.T)):
                if est == "ls":
                    hh = ls_estimate(y, pilot)
                elif est == "mmse":
                    hh, _ = mmse_estimate(y, pilot, self.corr)
                elif est == "rs-ls":
                    hh = rsls_estimate(y, pilot, subspace)
                else:
                    hh, _ = omp_estimate(y, pilot, dictionary, 2)
                errs[t] = np.linalg.norm(hh - h) ** 2
            nmse = errs.mean() / tr
            stderr = errs.std(ddof=1) / np.sqrt(trials) / tr
            assert (r.estimator, r.tau, r.trials) == (est, tau, trials)
            assert abs(r.nmse - nmse) <= 1e-12 * nmse
            assert abs(r.stderr - stderr) <= 1e-12 * stderr

    @pytest.mark.parametrize("est", ["ls", "mmse", "rs-ls", "omp"])
    def test_one_public_estimator_call_per_sweep_point(self, est, monkeypatch):
        # the sweep reaches each estimator through its module attribute, so a
        # wrapper bound there (as the benchmark's tracer binds one) sees every
        # call; a prepared operator must not route around it
        names = {"ls": "ls_estimate", "mmse": "mmse_estimate",
                 "rs-ls": "rsls_estimate", "omp": "omp_estimate"}
        calls = dict.fromkeys(names.values(), 0)
        for name in calls:
            def counting(*args, _name=name, _inner=getattr(estimate, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(estimate, name, counting)
        subspace = isotropic_subspace(self.geom)
        taus = [subspace.shape[1], self.m, self.m]
        nmse_sweep(est, taus, power=1.0, noise_power=0.3, trials=4, stream=RngStream(16),
                   corr=self.corr, subspace=subspace,
                   dictionary=build_ff_dictionary(self.geom, 4), sparsity=2)
        assert calls == {name: len(taus) if name == names[est] else 0 for name in calls}

    def test_ls_matches_analytic(self):
        p, snr = 1.0, 10.0
        tr = float(np.trace(self.corr.R).real)
        sigma2 = p * tr / (self.m * snr)
        res = nmse_sweep("ls", [self.m], power=p, noise_power=sigma2,
                         trials=4000, stream=RngStream(5), corr=self.corr)[0]
        expected = sigma2 * self.m / (p * tr)
        assert abs(res.nmse - expected) < 3 * res.stderr

    def test_mmse_matches_analytic_mse(self):
        # stream-independent oracle: the Monte-Carlo MSE of the MMSE sweep
        # against mmse_estimate's analytic MSE, within 3 standard errors
        p, sigma2 = 1.0, 0.2
        tr = float(np.trace(self.corr.R).real)
        taus = [4, 8, self.m]
        res = nmse_sweep("mmse", taus, power=p, noise_power=sigma2, trials=4000,
                         stream=RngStream(16), corr=self.corr)
        for tau, r in zip(taus, res):
            pilot = mmse_pilot_design(self.corr, p, sigma2, tau)
            _, mse = mmse_estimate(np.zeros(tau), pilot, self.corr)
            assert abs(r.nmse * tr - mse) <= 3 * r.stderr * tr

    def test_mmse_beats_ls_and_improves_with_tau(self):
        sigma2 = 0.5
        res_ls = nmse_sweep("ls", [self.m], power=1.0, noise_power=sigma2,
                            trials=800, stream=RngStream(6), corr=self.corr)[0]
        res_mmse = nmse_sweep("mmse", [4, 8, self.m], power=1.0, noise_power=sigma2,
                              trials=800, stream=RngStream(6), corr=self.corr)
        nmses = [r.nmse for r in res_mmse]
        assert nmses[-1] <= res_ls.nmse
        assert np.all(np.diff(nmses) <= 1e-12)

    def test_deterministic(self):
        a = nmse_sweep("ls", [8], power=1.0, noise_power=0.3, trials=50,
                       stream=RngStream(9), corr=self.corr)[0]
        b = nmse_sweep("ls", [8], power=1.0, noise_power=0.3, trials=50,
                       stream=RngStream(9), corr=self.corr)[0]
        assert a.nmse == b.nmse and a.stderr == b.stderr

    def test_pilot_energy_is_the_only_gain_beyond_rank(self):
        # clustered low-rank channel: past tau_p = rank(R) the MMSE pilots
        # explore no new dimensions, so the NMSE improvement from rank to M
        # tracks the pilot-energy ratio M/rank instead of opening new terms
        geom = build_upa(8, 8, LAM / 4, LAM / 4, LAM)
        profile = gaussian_cluster_profile(
            [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], np.deg2rad(10))
        corr = correlation_matrix(geom, profile)
        m = 64
        w = np.linalg.eigvalsh(corr.R)
        rank = int(np.sum(w > 1e-6 * w.max()))
        assert rank < m
        sigma2 = float(np.trace(corr.R).real) / (m * 10.0)
        res = nmse_sweep("mmse", [rank, m], power=1.0, noise_power=sigma2,
                         trials=1500, stream=RngStream(33), corr=corr)
        ratio = res[0].nmse / res[1].nmse
        energy_ratio = m / rank
        assert ratio < 1.6 * energy_ratio

    def test_stderr_shrinks_with_trials(self):
        kw = dict(power=1.0, noise_power=0.3, corr=self.corr)
        small = nmse_sweep("ls", [8], trials=200, stream=RngStream(14), **kw)[0]
        large = nmse_sweep("ls", [8], trials=3200, stream=RngStream(14), **kw)[0]
        ratio = small.stderr / large.stderr
        assert 2.0 < ratio < 8.0  # expected factor 4 = sqrt(3200/200)

    def test_global_phase_invariance(self):
        # rotating the pilot by a common phase leaves every NMSE unchanged
        p, sigma2 = 1.0, 0.4
        pilot = orthogonal_pilot(self.m, self.m, p, sigma2)
        rotated = PilotMatrix(np.exp(0.73j) * pilot.phi, p, sigma2)
        h = sample_rayleigh(self.corr, RngStream(50))
        noise = np.sqrt(sigma2) * complex_gaussian(self.m, RngStream(51))
        for est in ("ls", "mmse", "rs-ls"):
            subspace = isotropic_subspace(self.geom)
            for pl, rot in ((pilot, 1.0), (rotated, np.exp(0.73j))):
                y = np.sqrt(p) * (pl.phi @ h) + rot * noise
                if est == "ls":
                    e = ls_estimate(y, pl)
                elif est == "mmse":
                    e, _ = mmse_estimate(y, pl, self.corr)
                else:
                    e = rsls_estimate(y, pl, subspace)
                if rot == 1.0:
                    ref = e
            assert np.linalg.norm(e - ref) < 1e-9 * np.linalg.norm(ref)


class TestNonFiniteDataPassesThrough:
    """The estimators leave a NaN or inf in y unchecked, as their docstrings
    say: it reaches its own column of the estimate and no other."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_estimator(self, bad):
        geom = build_upa(4, 4, LAM / 4, LAM / 4, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        subspace = isotropic_subspace(geom)
        dictionary = build_ff_dictionary(geom, 4)
        pilot = orthogonal_pilot(16, 16, 2.0, 0.5, RngStream(70))
        estimators = {
            "ls": lambda y: ls_estimate(y, pilot),
            "mmse": lambda y: mmse_estimate(y, pilot, corr)[0],
            "rs-ls": lambda y: rsls_estimate(y, pilot, subspace),
            "omp": lambda y: omp_estimate(y, pilot, dictionary, 2)[0],
        }
        clean = _batch(16, 4, 71)
        y = clean.copy()
        y[3, 1] = bad
        for name, estimator in estimators.items():
            with np.errstate(invalid="ignore"):
                got = estimator(y)
            assert not np.all(np.isfinite(got[:, 1])), name
            keep = [0, 2, 3]
            assert np.array_equal(got[:, keep], estimator(clean)[:, keep]), name
