"""Certifier tests: probe selection, structural checks, end-to-end verdicts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm import certifier, kernels, spectral
from specnorm.certifier import (
    CertifyConfig,
    EigspaceCluster,
    build_orthonormal_eigenbasis,
    certificate_to_dict,
    certify,
    commutator_normality_oracle,
    criterion_holds,
    cross_orthogonality_check,
    eigenspace_basis,
    left_eigvec_check,
    matrix_hash,
    recheck_certificate,
    recheck_witness,
    select_probes,
    semisimple_check,
)
from specnorm.errors import IndeterminateError, NonFiniteError
from specnorm.generators import KINDS, generate_matrix
from specnorm.kernels import frob, schur
from specnorm.spectral import cluster_spectrum, spectrum_of

J2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def count_kernel_calls(monkeypatch):
    """Count calls of kernels.svd and kernels.schur; the returned dict grows."""
    calls = {"svd": 0, "schur": 0}
    for name in calls:
        original = getattr(kernels, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def stack_spy(monkeypatch):
    """Record each spectral.shifted_smallest result certify receives."""
    results = []
    original = spectral.shifted_smallest

    def spied(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(spectral, "shifted_smallest", spied)
    return results


def assert_witness_rechecks(a, cert):
    """recheck_witness matches the witness's s and proves the failure."""
    residual = recheck_witness(a, cert)
    assert residual == cert.witness.s
    assert residual < cert.witness.d - cert.config_echo["tol_eq"]


UPPER = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
PHI_MINUS = (np.sqrt(5.0) - 1.0) / 2.0


class TestSelectProbes:
    def test_two_eigenvalues_strict_nearest(self):
        s = cluster_spectrum([1.0, 5.0], scale=5.0, cluster_tol=1e-8)
        ps = select_probes(s)
        reps = s.representatives
        assert len(ps) == 2
        for probe in ps:
            own = abs(probe.z - reps[probe.cluster_index])
            other = min(
                abs(probe.z - reps[j]) for j in range(2) if j != probe.cluster_index
            )
            assert own < other
            assert probe.radius == pytest.approx((1 - 1e-3) * 2.0)

    def test_single_eigenvalue_radius(self):
        s = spectrum_of(np.zeros((3, 3)))
        ps = select_probes(s)
        assert len(ps) == 1
        assert ps[0].radius == pytest.approx(0.5)
        # Jordan block J_3(0): scale sqrt(2) > 1 gives radius sqrt(2)/2
        j3 = np.zeros((3, 3), dtype=complex)
        j3[0, 1] = j3[1, 2] = 1.0
        s3 = spectrum_of(j3)
        ps3 = select_probes(s3)
        assert ps3[0].radius == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_a_probe_nearer_another_eigenvalue_is_refused(self, monkeypatch):
        # the strict-nearest guard: a negative tie margin puts each probe
        # three quarters of the way to the next eigenvalue, 4 apart
        s = cluster_spectrum([1.0, 5.0, 9.0], scale=10.0, cluster_tol=1e-8)
        monkeypatch.setattr(certifier, "TIE_MARGIN", -0.5)
        with pytest.raises(IndeterminateError, match=r"probe \(4\+0j\) is not strictly nearest"):
            select_probes(s)

    def test_angled_probes(self):
        s = cluster_spectrum([0.0, 2.0j], scale=2.0, cluster_tol=1e-8)
        ps = select_probes(s, angle=np.pi / 2.0)
        reps = s.representatives
        for probe in ps:
            lam = reps[probe.cluster_index]
            direction = (probe.z - lam) / abs(probe.z - lam)
            assert direction == pytest.approx(1j, abs=1e-12)
            own = abs(probe.z - lam)
            other = min(
                abs(probe.z - reps[j]) for j in range(2) if j != probe.cluster_index
            )
            assert own < other


class TestCriterionHolds:
    def test_diagonal_passes(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        ev = criterion_holds(a, (1.4, 1.0), 1e-8)
        assert ev.d == pytest.approx(0.4)
        assert ev.s == pytest.approx(0.4, abs=1e-12)
        assert ev.passed

    def test_jordan_fails(self):
        # criterion_holds passes no witness bound: its s is the converged
        # sigma_n(zI - A), the value criterion 4 pins
        ev = criterion_holds(J2, (1.0, 0.0), 1e-8)
        assert ev.d == pytest.approx(1.0)
        assert ev.s == pytest.approx(PHI_MINUS, abs=1e-12)
        assert ev.s == kernels.svd(1.0 * np.eye(2) - J2).sigma[-1]
        assert ev.gap == pytest.approx(1.0 - PHI_MINUS, abs=1e-12)
        assert ev.converged and not ev.passed

    def test_rotated_normal_passes(self):
        q = generate_matrix("unitary", 2, 17)
        a = q @ np.diag([1.0, 2.0]) @ q.conj().T
        ev = criterion_holds(a, (1.4, 1.0), 1e-8 * max(1.0, frob(a)))
        assert ev.passed


class TestLeftEigvecCheck:
    def test_diagonal_true(self):
        assert left_eigvec_check(
            np.diag([1.0, 2.0]).astype(complex), 1.0, [1.0, 0.0], 1e-7
        )

    def test_defective_direction_false(self):
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert not left_eigvec_check(UPPER, 2.0, x, 1e-7)

    def test_hermitian_true(self):
        h = generate_matrix("hermitian", 4, 5)
        sch = schur(h)
        assert left_eigvec_check(h, sch.eigenvalues[0], sch.q[:, 0], 1e-7)


class TestSemisimpleCheck:
    def test_diagonal_multiplicity_two(self):
        a = np.diag([1.0, 1.0, 2.0]).astype(complex)
        assert semisimple_check(a, 1.0, 1e-7) == (True, 2, 2)

    def test_jordan_block(self):
        assert semisimple_check(J2, 0.0, 1e-7) == (False, 2, 1)

    def test_jordan_plus_diagonal(self):
        a = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]], dtype=complex
        )
        assert semisimple_check(a, 0.0, 1e-7) == (False, 2, 1)


class TestCrossOrthogonality:
    def _clusters(self, a):
        spect = spectrum_of(a)
        out = []
        for k, (lam, m) in enumerate(spect.clusters):
            _, _, s_k = semisimple_check(a, lam, 1e-7, multiplicity=m)
            out.append(EigspaceCluster(lam, m, s_k, eigenspace_basis(a, lam, s_k)))
        return out

    def test_diagonal_true(self):
        assert cross_orthogonality_check(
            self._clusters(np.diag([1.0, 2.0]).astype(complex)), 1e-7
        )

    def test_defective_pair_false(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        clusters = [
            EigspaceCluster(1.0, 1, 1, [e1]),
            EigspaceCluster(2.0, 1, 1, [v]),
        ]
        assert not cross_orthogonality_check(clusters, 1e-7)

    def test_hermitian_true(self):
        assert cross_orthogonality_check(
            self._clusters(generate_matrix("hermitian", 5, 9)), 1e-7
        )


class TestBuildEigenbasis:
    def test_scalar_matrix_any_basis(self):
        a = np.diag([2.0, 2.0]).astype(complex)
        b1 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        b2 = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        u = build_orthonormal_eigenbasis(a, [EigspaceCluster(2.0, 2, 2, [b1, b2])])
        d = u.conj().T @ a @ u
        assert np.allclose(d, np.diag([2.0, 2.0]), atol=1e-12)

    def test_symmetric_exchange(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        clusters = [
            EigspaceCluster(1.0, 1, 1, [np.array([1.0, 1.0]) / np.sqrt(2.0)]),
            EigspaceCluster(-1.0, 1, 1, [np.array([1.0, -1.0]) / np.sqrt(2.0)]),
        ]
        u = build_orthonormal_eigenbasis(a, clusters)
        d = u.conj().T @ a @ u
        assert np.allclose(np.diag(d), [1.0, -1.0], atol=1e-12)
        assert abs(d[0, 1]) < 1e-12

    def test_identity(self):
        a = np.eye(3, dtype=complex)
        basis = [np.eye(3)[:, i].astype(complex) for i in range(3)]
        u = build_orthonormal_eigenbasis(a, [EigspaceCluster(1.0, 3, 3, basis)])
        assert np.allclose(u, np.eye(3))

    def test_dimension_deficit_raises(self):
        with pytest.raises(IndeterminateError):
            build_orthonormal_eigenbasis(
                J2, [EigspaceCluster(0.0, 2, 1, [np.array([1.0, 0.0])])]
            )


class TestCommutatorOracle:
    def test_hermitian_zero(self):
        h = generate_matrix("hermitian", 5, 1)
        assert commutator_normality_oracle(h) <= 1e-12 * frob(h) ** 2

    def test_jordan_sqrt2(self):
        assert commutator_normality_oracle(J2) == pytest.approx(np.sqrt(2.0))

    def test_unitary_zero(self):
        q = generate_matrix("unitary", 6, 2)
        assert commutator_normality_oracle(q) <= 1e-12 * frob(q) ** 2


class TestCertify:
    def test_diagonal_normal(self):
        cert = certify(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert cert.verdict == "Normal"
        assert cert.residuals.unitarity <= 1e-10
        assert cert.residuals.diagonalization <= 1e-10
        assert cert.residuals.commutator <= 1e-12
        # U is a permutation/identity up to phases
        assert np.allclose(np.abs(cert.eigenbasis) > 0.5, np.eye(3, dtype=bool))

    def test_jordan_nonnormal_with_witness(self):
        cert = certify(J2)
        assert cert.verdict == "Nonnormal"
        assert cert.witness is not None
        assert cert.eigenbasis is None

    def test_jordan_explicit_witness_gap(self):
        # probe at z=1 against the lone eigenvalue 0
        ev = criterion_holds(J2, (1.0, 0.0), 1e-8)
        assert ev.gap == pytest.approx(1.0 - PHI_MINUS, abs=1e-10)

    def test_circulant_shift_normal(self):
        n = 5
        c = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            c[i, i + 1] = 1.0
        c[n - 1, 0] = 1.0
        assert certify(c).verdict == "Normal"

    def test_scalar_matrix_normal(self):
        cert = certify((2.0 - 1.0j) * np.eye(4))
        assert cert.verdict == "Normal"

    def test_indeterminate_on_forced_probe_pass(self):
        # huge tol_eq forces the Jordan probes through; the constructive
        # stage must refuse rather than certify
        with pytest.raises(IndeterminateError):
            certify(J2, CertifyConfig(tol_eq=10.0))

    @pytest.mark.parametrize("config", [
        CertifyConfig(tol_eq=float("nan")),
        CertifyConfig(tol_eq=-1.0),
        CertifyConfig(tol_eq=float("inf")),
        CertifyConfig(cluster_tol=float("inf")),
        CertifyConfig(cluster_tol=-1e-3),
        CertifyConfig(cluster_tol=float("nan")),
        CertifyConfig(probe_angle=float("nan")),
        CertifyConfig(probe_angle=float("-inf")),
    ], ids=["tol_eq-nan", "tol_eq-negative", "tol_eq-inf", "cluster_tol-inf",
            "cluster_tol-negative", "cluster_tol-nan", "probe_angle-nan", "probe_angle-inf"])
    def test_rejects_malformed_config(self, config):
        with pytest.raises(ValueError, match="must be finite"):
            certify(generate_matrix("normal", 3, 1), config)

    def test_accepts_zero_tolerances(self):
        cert = certify(np.diag([1.0, 2.0]), CertifyConfig(tol_eq=0.0, cluster_tol=0.0))
        assert cert.config_echo["tol_eq"] == 0.0
        assert cert.config_echo["cluster_tol"] == 0.0

    def test_default_tolerances_read_analysis_scale(self, monkeypatch):
        # ||A||_F = 0.01*sqrt(2), so a floor applied anywhere but the scale
        # would give cluster_tol 1e-7 and radius 0.5
        monkeypatch.setattr(spectral.Analysis, "scale", property(lambda an: 7.0))
        j3 = np.zeros((3, 3), dtype=complex)
        j3[0, 1] = j3[1, 2] = 0.01
        cert = certify(j3)
        assert cert.config_echo["tol_eq"] == pytest.approx(7e-8, rel=1e-15)
        assert cert.config_echo["cluster_tol"] == pytest.approx(7e-7, rel=1e-15)
        assert [e.d for e in cert.evidence] == [3.5]

    @pytest.mark.parametrize("a", [
        J2 * 1e155,
        generate_matrix("ginibre", 4, 1) * 5e153,
        generate_matrix("jordan", 4, 1) * 1e154,
        # |a_00| overflows, so the eigenvalues' distance does too
        np.array([[1.5e308 + 1.5e308j, 1.0], [1.0, 0.0]]),
    ], ids=["J2", "ginibre", "jordan", "modulus"])
    @pytest.mark.parametrize("config", [None, CertifyConfig(cluster_tol=1.0)],
                             ids=["default", "cluster_tol"])
    def test_overflowing_norm_raises_nonfinite(self, a, config):
        # finite entries and a converged Schur form, but ||A||_F is inf
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError, match=r"\|\|A\|\|_F overflows"):
                certify(a, config)

    @pytest.mark.parametrize("angle", [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    def test_probe_angle_invariance(self, angle):
        a = generate_matrix("normal", 5, 23)
        assert certify(a, CertifyConfig(probe_angle=angle)).verdict == "Normal"
        g = generate_matrix("ginibre", 5, 23)
        assert certify(g, CertifyConfig(probe_angle=angle)).verdict == "Nonnormal"

    def test_certificate_soundness_recheck(self):
        a = generate_matrix("normal", 6, 31)
        cert = certify(a)
        assert cert.verdict == "Normal"
        unit, diag = recheck_certificate(a, cert)
        assert unit <= 1e-8 * 6
        assert diag <= 1e-8 * frob(a)

    def test_normal_runs_one_schur_and_no_svd(self, monkeypatch):
        # the Schur form's own residuals pass all 8 probes, so no probe
        # Jacobi runs
        a = generate_matrix("normal", 8, 0)
        assert len(spectrum_of(a).clusters) == 8
        calls = count_kernel_calls(monkeypatch)
        assert certify(a).verdict == "Normal"
        assert calls == {"svd": 0, "schur": 1}

    @pytest.mark.parametrize("kind, n, param", [
        ("ginibre", 8, None), ("jordan", 8, None), ("near_normal", 8, 1e-6),
    ])
    def test_every_verdict_runs_one_schur_and_one_stacked_svd(self, kind, n, param, monkeypatch):
        # perfbench's ceiling replays the first kernels.svd call of a traced
        # run: a Nonnormal witness comes from the stack's own least column,
        # and the band matrix (probes pass, the off-diagonal gate refuses)
        # makes the same one call
        a = generate_matrix(kind, n, 0, param)
        calls = count_kernel_calls(monkeypatch)
        if kind == "near_normal":
            with pytest.raises(IndeterminateError, match="off-diagonal"):
                certify(a)
        else:
            assert certify(a).verdict == "Nonnormal"
        assert calls == {"svd": 1, "schur": 1}

    def test_unconverged_probe_message(self, monkeypatch):
        # every probe passes at eps = 2e-4 here, so no column norm falls
        # below its witness bound and one sweep leaves the stack unconverged;
        # the commutator is above the floor's cost filter, so the stack runs
        # its Jacobi, and the residual is that of the first probe's
        # Schur-rotated columns zQ - AQ after that sweep
        a = generate_matrix("near_normal", 6, 2, 2e-4)
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        with pytest.raises(IndeterminateError) as exc:
            certify(a)
        assert str(exc.value) == (
            "kernel did not converge: Jacobi SVD did not converge after 1 sweeps "
            "(off-diagonal ratio 3.852e-06)"
        )

    def test_jordan_8_is_decided_after_one_sweep(self):
        a = np.eye(8, k=1, dtype=complex)
        cert = certify(a)
        assert cert.verdict == "Nonnormal" and cert.jacobi_sweeps == 1
        assert not cert.witness.converged
        assert recheck_witness(a, cert) < cert.witness.d - cert.config_echo["tol_eq"]

    def test_one_sweep_decides_ginibre(self, monkeypatch):
        # a witness shows after the first sweep, so a one-sweep budget that
        # leaves the probe stack unconverged still decides the verdict
        a = generate_matrix("ginibre", 6, 1)
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        cert = certify(a)
        assert cert.verdict == "Nonnormal" and cert.jacobi_sweeps == 1
        assert not cert.witness.converged
        assert abs(recheck_witness(a, cert) - cert.witness.s) <= 1e-12 * frob(a)

    @pytest.mark.parametrize("kind, n", [("normal", 16), ("hermitian", 32)])
    def test_normal_probes_need_two_sweeps(self, kind, n, monkeypatch):
        # the probe columns zQ - AQ of a normal matrix start out nearly
        # orthogonal; the plain columns of zI - A needed 8 and 9 sweeps here.
        # certify settles these probes from the Schur form, so the probe
        # stack runs here directly
        an = spectral.analyze(generate_matrix(kind, n, 1))
        zs = np.array([p.z for p in select_probes(spectrum_of(an))])
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 2)
        assert (spectral.shifted_smallest(an, zs).status == kernels.OK).all()

    def test_normal_eigenbasis_is_the_schur_factor(self):
        a = generate_matrix("normal", 7, 3)
        cert = certify(a)
        assert cert.verdict == "Normal"
        assert np.array_equal(cert.eigenbasis, schur(a).q)

    def test_near_normal_passing_probes_fail_the_offdiagonal_gate(self):
        # eps = 1e-6 is below the probes' resolution, so every probe passes;
        # the Schur factor's departure from normality is what refuses it
        a = generate_matrix("near_normal", 8, 0, 1e-6)
        spect = spectrum_of(a)
        reps = spect.representatives
        tol_eq = certifier.TOL_EQ * max(1.0, frob(a))
        for p in select_probes(spect):
            assert criterion_holds(a, (p.z, reps[p.cluster_index]), tol_eq).passed
        with pytest.raises(IndeterminateError) as exc:
            certify(a)
        bound = certifier.TOL_CERT * max(1.0, frob(a))
        assert "off-diagonal residual" in str(exc.value)
        assert f"bound {bound:.3e}" in str(exc.value)

    def test_non_unitary_schur_factor_fails_the_unitarity_gate(self, monkeypatch):
        # a Schur factor off by 1e-6 in scale misses the unitarity bound, so
        # the Schur bound declines, every probe runs on zI - A and passes,
        # and the unitarity gate refuses it before the off-diagonal residual
        # needs AQ
        original = kernels.schur

        def stretched(a):
            res = original(a)
            res.q = res.q * (1.0 + 1e-6)
            return res

        monkeypatch.setattr(kernels, "schur", stretched)
        results = stack_spy(monkeypatch)
        with pytest.raises(IndeterminateError) as exc:
            certify(generate_matrix("normal", 4, 1))
        assert "unitarity residual" in str(exc.value)
        assert f"bound {certifier.TOL_CERT * 4:.3e}" in str(exc.value)
        [stack] = results
        assert len(stack.s) == 4 and stack.sweeps.max() > 0

    def test_structural_consequences_on_pass_path(self):
        a = generate_matrix("normal", 5, 37)
        spect = spectrum_of(a)
        for lam, m in spect.clusters:
            is_ss, m_k, s_k = semisimple_check(a, lam, 1e-7, multiplicity=m)
            assert is_ss and m_k == s_k
            for x in eigenspace_basis(a, lam, s_k):
                assert left_eigvec_check(a, lam, x, 1e-7)


class TestWitnessVector:
    @pytest.mark.parametrize("a", [
        J2,
        generate_matrix("ginibre", 5, 1),
        # the probe of -10 passes and the probe of the Jordan block's 0 fails,
        # so the witness is the second probe
        np.array([[-10.0, 0.0, 0.0], [0.0, 0.0, 0.01], [0.0, 0.0, 0.0]], dtype=complex),
    ], ids=["J2", "ginibre5", "second_probe"])
    def test_witness_vector_is_checkable(self, a):
        # E = (zI - A)x x* puts z in the spectrum of A + E, with
        # ||E||_2 = ||(zI - A)x|| = s(z) < d(z)
        cert = certify(a)
        assert cert.verdict == "Nonnormal"
        x = cert.witness_vector
        z = cert.witness.z
        scale = max(1.0, frob(a))
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        residual = recheck_witness(a, cert)
        assert abs(residual - cert.witness.s) <= 1e-12 * scale
        assert cert.witness.d - residual > cert.config_echo["tol_eq"]
        e = np.outer((z * np.eye(len(a)) - a) @ x, x.conj())
        assert np.linalg.norm((a + e) @ x - z * x) <= 1e-12 * scale
        doc = certificate_to_dict(cert, a)
        assert doc["witness_vector"] == [[v.real, v.imag] for v in x]

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("kind", ["ginibre", "jordan"])
    def test_witness_from_schur_columns_rechecks_against_a(self, kind, n):
        # x = Qv from the rotated probe columns, checked against A itself
        a = generate_matrix(kind, n, 3)
        cert = certify(a)
        assert cert.verdict == "Nonnormal"
        residual = recheck_witness(a, cert)
        assert abs(residual - cert.witness.s) <= 1e-12 * max(1.0, frob(a))
        assert residual < cert.witness.d - cert.config_echo["tol_eq"]

    def test_witness_is_the_lowest_index_failing_probe(self):
        # the document keeps every probe; an unconverged probe's s is an upper
        # bound, so only a failing one can be the witness
        a = generate_matrix("ginibre", 8, 4)
        cert = certify(a)
        failing = [k for k, e in enumerate(cert.evidence) if not e.passed]
        assert cert.witness is cert.evidence[failing[0]]
        assert len(cert.evidence) == len(spectrum_of(a).clusters)
        exact = spectral.shifted_smallest_singular(a, [e.z for e in cert.evidence])
        assert not all(e.converged for e in cert.evidence)
        for e, s in zip(cert.evidence, exact):
            assert e.s >= s - 1e-13 * frob(a)

    def test_normal_certificate_has_no_witness_vector(self):
        a = generate_matrix("normal", 4, 2)
        cert = certify(a)
        assert cert.verdict == "Normal" and cert.witness_vector is None
        assert "witness_vector" not in certificate_to_dict(cert, a)
        with pytest.raises(ValueError):
            recheck_witness(a, cert)

    def test_non_unitary_schur_factor_gives_a_schur_witness(self, monkeypatch):
        # Q off by 1e-6 in scale misses the unitarity bound, so the probe
        # stack runs on zI - A (B = I); the back substitution against T
        # still gives the witness, and no second svd call runs
        original = kernels.schur

        def stretched(a):
            res = original(a)
            res.q = res.q * (1.0 + 1e-6)
            return res

        monkeypatch.setattr(kernels, "schur", stretched)
        a = generate_matrix("ginibre", 5, 1)
        calls = count_kernel_calls(monkeypatch)
        cert = certify(a)
        assert cert.verdict == "Nonnormal"
        assert calls == {"svd": 1, "schur": 1}
        assert_witness_rechecks(a, cert)

    def test_missed_recheck_takes_the_fallback(self, monkeypatch):
        # a vector whose residual misses the witness bound is refined by
        # every inverse-iteration step, at every failing probe in turn; when
        # none meets its bound, certify names the first failing probe and
        # decides nothing
        a = generate_matrix("ginibre", 6, 2)
        failing = [e.z for e in certify(a).evidence if not e.passed]
        misses = []

        def missing(a, z, x):
            misses.append(z)
            return np.inf

        monkeypatch.setattr(certifier, "_witness_residual", missing)
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(IndeterminateError) as exc:
            certify(a)
        assert str(exc.value) == (
            f"probe {failing[0]} fails, but no failing probe's vector meets its bound"
        )
        assert misses == [z for z in failing for _ in range(certifier.WITNESS_STEPS + 1)]
        assert calls["svd"] == 1

    def test_zero_pivot_gives_no_back_substituted_witness(self):
        # z on T's diagonal leaves zI - T singular: no x
        an = spectral.analyze(generate_matrix("ginibre", 5, 1))
        z = complex(an.schur.t[2, 2])
        w = np.ones(5, dtype=complex)
        assert certifier._schur_witness(an, z, w, np.inf) is None
        x, r, steps = certifier._schur_witness(an, z + 1.0, w, np.inf)
        assert abs(frob(x) - 1.0) <= 1e-15 and steps == 0
        assert r == certifier._witness_residual(an.a, z + 1.0, x)

    @staticmethod
    def certify_rotated(i, monkeypatch):
        """Certify corpus matrix i under UAU*, as TestInvariance rotates it.

        Returns (the rotated matrix, its certificate, the steps of each
        _schur_witness call, the probe stack, the svd call count).
        """
        from test_acceptance import corpus_matrix

        a, _, n = corpus_matrix(i, max_n=8)
        u = generate_matrix("unitary", n, 9000 + i)
        b = u @ a @ u.conj().T
        original = certifier._schur_witness
        steps = []

        def spied(*args):
            found = original(*args)
            steps.append(None if found is None else found[2])
            return found

        monkeypatch.setattr(certifier, "_schur_witness", spied)
        results = stack_spy(monkeypatch)
        calls = count_kernel_calls(monkeypatch)
        cert = certify(b)
        [stack] = results
        return b, cert, steps, stack, calls["svd"]

    def test_ill_conditioned_witness_takes_a_refinement_step(self, monkeypatch):
        # corpus 45, jordan n=5, under UAU*: cond(zI - T) is about 2e15, and
        # the back-substituted x misses its bound (4.871e-4 against 4.842e-4);
        # one inverse-iteration step on T gives the witness, with no second
        # svd call
        b, cert, steps, _, svd_calls = self.certify_rotated(45, monkeypatch)
        assert cert.verdict == "Nonnormal"
        assert steps == [1] and svd_calls == 1
        assert not cert.witness.converged
        assert_witness_rechecks(b, cert)

    def test_witness_s_is_its_own_vectors_residual(self, monkeypatch):
        # corpus 33, jordan n=7, under UAU*: the stack's stopped column
        # reads s = 1.940e-3, while the back-substituted x, which meets its
        # bound, has ||(zI - A)x|| = 1.354e-3; the certificate reports x's
        b, cert, steps, stack, svd_calls = self.certify_rotated(33, monkeypatch)
        assert cert.verdict == "Nonnormal" and steps == [0] and svd_calls == 1
        k = cert.evidence.index(cert.witness)
        assert recheck_witness(b, cert) == cert.witness.s < 0.7 * stack.s[k]
        assert cert.witness.gap == cert.witness.d - cert.witness.s


class TestSerialization:
    def test_certificate_dict_fields(self):
        a = generate_matrix("hermitian", 3, 8)
        cert = certify(a)
        doc = certificate_to_dict(cert, a)
        assert doc["verdict"] == "Normal"
        assert len(doc["probes"]) == len(cert.evidence)
        assert doc["matrix_hash"] == matrix_hash(a)
        assert doc["residuals"]["commutator"] == cert.residuals.commutator
        assert "eigenbasis" in doc
        assert doc["tolerances"]["tol_eq"] == cert.config_echo["tol_eq"]
        assert doc["jacobi_sweeps"] == cert.jacobi_sweeps
        assert [p["converged"] for p in doc["probes"]] == [True] * len(cert.evidence)
        listed = json.loads(json.dumps(doc))["eigenbasis"]
        listed = np.array([[complex(*z) for z in row] for row in listed])
        assert listed.tobytes() == cert.eigenbasis.tobytes()

    def test_nonnormal_document_marks_unconverged_probes(self):
        a = generate_matrix("jordan", 6, 1)
        cert = certify(a)
        doc = certificate_to_dict(cert, a)
        assert doc["verdict"] == "Nonnormal" and doc["jacobi_sweeps"] == 1
        assert [p["converged"] for p in doc["probes"]] == [e.converged for e in cert.evidence]
        assert doc["witness"]["converged"] is False

    def test_matrix_hash_sensitivity(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = a.copy()
        b[0, 0] += 1e-15
        assert matrix_hash(a) != matrix_hash(b)
        assert matrix_hash(a) == matrix_hash(a.copy())


@pytest.fixture(scope="module")
def corpus300():
    from test_acceptance import certified_corpus

    return certified_corpus()


def verdict(a) -> str:
    try:
        return certify(a).verdict
    except IndeterminateError:
        return "Indeterminate"


class TestInvariance:
    def test_transpose_adjoint_and_unitary_similarity_move_no_verdict(self, corpus300):
        # normality is invariant under A^T, A* and UAU*, and so is every
        # verdict here: corpus300 and near_normal n=6 across the band from
        # Normal to Nonnormal. -A is not among these maps: it rotates the
        # probes' fixed angle by pi and moves 3 of the band at eps 1e-4
        inputs = [(a, "Indeterminate" if cert is None else cert.verdict)
                  for a, _, _, _, cert in corpus300]
        for eps in (1e-8, 1e-6, 1e-4):
            for seed in range(20):
                a = generate_matrix("near_normal", 6, seed, eps)
                inputs.append((a, verdict(a)))
        moved = []
        for i, (a, expected) in enumerate(inputs):
            u = generate_matrix("unitary", len(a), 9000 + i)
            for name, b in (("A^T", a.T), ("A*", a.conj().T), ("UAU*", u @ a @ u.conj().T)):
                got = verdict(b)
                if got != expected:
                    moved.append((i, name, expected, got))
        assert moved == []

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        log_eps=st.floats(-10.0, -2.0),
        u_seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_matrices_keep_their_verdict(self, kind, n, seed, log_eps, u_seed):
        # the same maps on drawn matrices: any kind, order and seed, and for
        # near_normal any eps from 1e-10 to 1e-2, across the band
        a = generate_matrix(kind, n, seed, 10.0**log_eps if kind == "near_normal" else None)
        u = generate_matrix("unitary", n, u_seed)
        expected = verdict(a)
        for name, b in (("A^T", a.T), ("A*", a.conj().T), ("UAU*", u @ a @ u.conj().T)):
            assert verdict(b) == expected, name

    def test_every_certify_makes_at_most_one_svd_call(self, corpus300, monkeypatch):
        # every witness vector comes from the Schur triangle, so a certify
        # runs at most its one probe stack: also on the UAU* images, where
        # some witnesses need an inverse-iteration step
        calls = count_kernel_calls(monkeypatch)
        most = 0
        for i, (a, _, _, _, _) in enumerate(corpus300):
            u = generate_matrix("unitary", len(a), 9000 + i)
            for b in (a, u @ a @ u.conj().T):
                calls["svd"] = 0
                verdict(b)
                most = max(most, calls["svd"])
        assert most == 1


class TestEarlyWitness:
    def test_corpus_witnesses_recheck(self, corpus300):
        # each Nonnormal certificate's x, from a probe stack stopped early or
        # converged, rechecks to its reported s and stays below d - tol_eq
        nonnormal = 0
        for a, kind, n, _, cert in corpus300:
            if cert is None or cert.verdict != "Nonnormal":
                continue
            nonnormal += 1
            residual = recheck_witness(a, cert)
            assert residual == cert.witness.s, (kind, n)
            assert residual < cert.witness.d - cert.config_echo["tol_eq"], (kind, n)
        assert nonnormal > 100

    def test_probe_values_are_those_of_the_stack(self, corpus300):
        # where the probe Jacobi ran, every probe but the witness has the
        # probe stack's s and converged under the same bounds, and the
        # certificate its sweeps; the witness's s is its own vector's
        # residual, and here no witness needed a refinement step
        nonnormal = 0
        for a, kind, n, _, cert in corpus300:
            if cert is None or cert.evidence[0].source != "jacobi":
                continue
            nonnormal += cert.verdict == "Nonnormal"
            tol_eq = cert.config_echo["tol_eq"]
            zs = np.array([e.z for e in cert.evidence])
            bound = np.array([certifier.witness_bound(e.d, tol_eq) for e in cert.evidence])
            stack = spectral.shifted_smallest(spectral.analyze(a), zs, bound)
            s = stack.s.tolist()
            if cert.witness is not None:
                k = cert.evidence.index(cert.witness)
                s[k] = recheck_witness(a, cert)
            assert [e.s for e in cert.evidence] == s, (kind, n)
            converged = (stack.status == kernels.OK).tolist()
            assert [e.converged for e in cert.evidence] == converged, (kind, n)
            assert cert.jacobi_sweeps == stack.sweeps.max(), (kind, n)
        assert nonnormal > 100

    @pytest.mark.parametrize("kind", ["ginibre", "jordan", "near_normal"])
    def test_a_stop_carries_across_probe_stacks(self, kind, monkeypatch):
        # one probe per kernels.svd stack: once a stack stops at a witness,
        # every later probe stops before its first rotation; the verdict is
        # that of the one-stack certify, and the witness comes from a stack
        # no later than the first that stopped
        for seed in range(3):
            a = generate_matrix(kind, 8, seed, {"near_normal": 1e-3}.get(kind))
            whole = certify(a)
            with monkeypatch.context() as m:
                m.setattr(spectral, "STACK_ENTRIES", 8 * 8)
                stacks = stack_spy(m)
                chunked = certify(a)
            assert chunked.verdict == whole.verdict == "Nonnormal"
            assert_witness_rechecks(a, chunked)
            status = stacks[0].status.tolist()
            first = status.index(kernels.STOPPED)
            assert chunked.evidence.index(chunked.witness) <= first
            assert set(status[first:]) == {kernels.STOPPED}
            assert (stacks[0].sweeps[first + 1 :] == 1).all()

    def test_an_unconverged_probe_means_a_witness(self, corpus300):
        for _, kind, n, _, cert in corpus300:
            if cert is not None and not all(e.converged for e in cert.evidence):
                assert cert.verdict == "Nonnormal", (kind, n)

    def test_witness_bound_implies_a_failing_probe(self):
        # a probe whose s is just below its witness bound fails in
        # probe_evidence's own arithmetic, also where tol_eq is close to d
        rng = np.random.default_rng(5)
        d = np.concatenate([rng.uniform(1e-8, 2.0, 2000), [1.0 + 2.0 ** -52, 2e-8, 1.0]])
        for tol_eq in (1e-8, 1.0, 0.0, 1e-8 * (1.0 - 1e-15)):
            for d_k in d.tolist():
                b = certifier.witness_bound(d_k, tol_eq)
                if b <= 0.0:
                    assert d_k - tol_eq <= 8.0 * kernels.EPS * d_k
                    continue
                s = np.nextafter(b, 0.0)
                assert not certifier.probe_evidence(d_k, 0.0, s, tol_eq).passed


class TestSchurBound:
    def test_bound_is_sound(self, corpus300):
        # every probe the Schur bound settles has s at most the Jacobi's
        # s(z) and passes in probe_evidence's own arithmetic; the bound
        # settles every Normal certificate here and no other
        from test_benchmark_checks import SEED, workloads

        certs = [(a, cert) for a, _, _, _, cert in corpus300]
        for workload in ("certify_normal", "certify_nonnormal"):
            for spec in workloads.matrices(workload, SEED):
                a = generate_matrix(spec.kind, spec.n, spec.seed, spec.param)
                try:
                    certs.append((a, certify(a)))
                except IndeterminateError:
                    certs.append((a, None))
        settled = 0
        margin = np.inf
        for a, cert in certs:
            if cert is None:
                continue
            sources = {e.source for e in cert.evidence}
            if cert.verdict != "Normal":
                assert sources == {"jacobi"}
                continue
            assert sources == {"schur_bound"} and cert.jacobi_sweeps == 0
            settled += 1
            an = spectral.analyze(a)
            tol_eq = cert.config_echo["tol_eq"]
            for e in cert.evidence:
                assert e.s <= spectral.shifted_smallest(an, np.array([e.z])).s[0]
                assert e.converged and e.passed
                assert certifier.probe_evidence(e.z, e.lam, e.s, tol_eq).passed
                margin = min(margin, (tol_eq - (e.d - e.s)) / an.scale)
        assert settled > 150
        print(f"\nSchur bound: {settled} Normal certificates, smallest scaled margin {margin:.6e}")

    @pytest.mark.parametrize("a", [
        # two eigenvalues within cluster_tol: d reads their mean, the bound
        # the nearer raw one
        np.diag([0.0, 5e-8, 1.0]),
        # probes pass, the off-diagonal gate refuses, and the commutator is
        # above the floor's cost filter
        generate_matrix("near_normal", 6, 2, 2e-4),
    ], ids=["close_pair", "near_normal"])
    def test_bound_declines_where_it_cannot_prove(self, a, monkeypatch):
        results = stack_spy(monkeypatch)
        try:
            cert = certify(a)
        except IndeterminateError:
            cert = None
        [stack] = results
        assert len(stack.s) == len(spectrum_of(a).clusters) and stack.sweeps.max() > 0
        if cert is not None:
            assert {e.source for e in cert.evidence} == {"jacobi"}
            assert cert.jacobi_sweeps > 0

    def test_normal_probes_come_from_the_bound(self):
        a = generate_matrix("normal", 8, 0)
        cert = certify(a)
        assert cert.verdict == "Normal" and cert.jacobi_sweeps == 0
        assert [e.source for e in cert.evidence] == ["schur_bound"] * 8
        doc = certificate_to_dict(cert, a)
        assert [p["source"] for p in doc["probes"]] == ["schur_bound"] * 8
        assert doc["jacobi_sweeps"] == 0

    def test_pass_bound_implies_a_passing_probe(self):
        # an s at a probe's pass bound passes in exact arithmetic and in
        # probe_evidence's own, also where tol_eq is close to d or above it
        from fractions import Fraction

        rng = np.random.default_rng(7)
        d = np.concatenate([rng.uniform(1e-8, 2.0, 2000), [1.0 + 2.0 ** -52, 2e-8, 1.0]])
        for tol_eq in (1e-8, 1.0, 0.0, 1e-8 * (1.0 + 1e-15), 3.0):
            for d_k in d.tolist():
                s = certifier.pass_bound(d_k, tol_eq)
                assert s >= 0.0
                assert Fraction(d_k) - Fraction(s) <= Fraction(tol_eq)
                assert certifier.probe_evidence(d_k, 0.0, s, tol_eq).passed


def floor_spy(monkeypatch):
    """Record the floor of each spectral.shifted_smallest call and its result."""
    calls = []
    original = spectral.shifted_smallest

    def spied(*args, floor=None, **kwargs):
        calls.append((floor, original(*args, floor=floor, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(spectral, "shifted_smallest", spied)
    return calls


class TestFloor:
    def test_band_matrix_is_floored_in_its_one_svd_call(self, monkeypatch):
        # every probe passes and the off-diagonal gate refuses, as before;
        # the floor proves the probes inside the probe stack's one svd call,
        # before any sweep
        a = generate_matrix("near_normal", 8, 0, 1e-6)
        calls = count_kernel_calls(monkeypatch)
        spied = floor_spy(monkeypatch)
        with pytest.raises(IndeterminateError) as exc:
            certify(a)
        assert str(exc.value) == (
            "probes passed but the Schur eigenbasis off-diagonal residual 3.650e-06 "
            "exceeds its bound 4.060e-08"
        )
        assert calls == {"svd": 1, "schur": 1}
        [(floor, stack)] = spied
        assert floor is not None and (stack.status == kernels.FLOORED).all()
        assert (stack.sweeps == 0).all()

    def test_floor_is_sound(self, monkeypatch):
        # every band Indeterminate of the mix is floored, and each probe's
        # floor lies between its pass_bound and the converged s(z)
        from test_benchmark_checks import SEED, workloads

        spied = floor_spy(monkeypatch)
        floored = 0
        for spec in workloads.matrices("certify_normal", SEED):
            an = spectral.analyze(generate_matrix(spec.kind, spec.n, spec.seed, spec.param))
            spied.clear()
            try:
                certify(an)
            except IndeterminateError as exc:
                assert spec.expect == "band" and "off-diagonal" in str(exc)
                [(floor, stack)] = spied
                assert (stack.status == kernels.FLOORED).all() and (stack.sweeps == 0).all()
                spectrum = spectrum_of(an)
                probes = select_probes(spectrum)
                s = spectral.shifted_smallest(an, np.array([p.z for p in probes])).s
                tol_eq = certifier.TOL_EQ * an.scale
                for p, f, s_z in zip(probes, floor, s.tolist()):
                    d = abs(p.z - spectrum.clusters[p.cluster_index][0])
                    assert certifier.pass_bound(d, tol_eq) < f < s_z
                floored += 1
        assert floored == 27

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cost_filter_refuses_every_nonnormal_mix_input(self, seed, monkeypatch):
        # no certify_nonnormal input runs a Cholesky: the commutator is above
        # sqrt(tol_eq*scale)*scale on all of them
        from test_benchmark_checks import workloads

        spied = floor_spy(monkeypatch)
        for spec in workloads.matrices("certify_nonnormal", seed):
            a = generate_matrix(spec.kind, spec.n, spec.seed, spec.param)
            assert certify(a).verdict == "Nonnormal"
        assert len(spied) == 96
        assert all(floor is None for floor, _ in spied)
