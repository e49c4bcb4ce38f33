"""Generator, grid-scan, file-format, and CLI contract tests."""

import json
import os
import warnings

import numpy as np
import pytest

from specnorm import io as snio
from specnorm import kernels, spectral
from specnorm.certifier import commutator_normality_oracle
from specnorm.cli import build_parser, main
from specnorm.errors import ConvergenceError, NonFiniteError
from specnorm.generators import KINDS, _ginibre, _haar_unitary, generate_matrix
from specnorm.kernels import frob
from specnorm.scan import (
    FLAG_AT_EIGENVALUE,
    FLAG_FAILED,
    FLAG_OK,
    GridSample,
    GridScan,
    check_corollary,
    scan_grid,
)

J2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
PHI_MINUS = (np.sqrt(5.0) - 1.0) / 2.0


def unconverge_item(monkeypatch, item):
    """Make values-only kernels.svd stacks without a bound report one item unconverged.

    Those are the scan and corollary stacks; certify's probe stack, values
    only too, carries a bound and is left alone, and so is one matrix.
    """
    original = kernels.svd

    def patched(a, bound=None, vectors=True, floor=None):
        res = original(a, bound, vectors, floor)
        if not vectors and bound is None and res.status.ndim:
            res.status[item] = kernels.UNCONVERGED
        return res

    monkeypatch.setattr(kernels, "svd", patched)


def count_calls(monkeypatch, name):
    """Count calls of kernels.<name>; the returned dict's name entry grows."""
    original = getattr(kernels, name)
    calls = {name: 0}

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, name, counted)
    return calls


COMMANDS = {
    "certify": ["certify"],
    "scan": ["scan", "--grid", "5,5"],
    "weyl": ["weyl"],
    "check-corollary": ["check-corollary", "--samples", "40"],
}


def reference_corollary(a, n_samples, seed):
    """The per-sample loop over spectral.gap: (center, radius, max gap, worst z)."""
    spectrum = spectral.spectrum_of(a)
    center = complex(np.mean(spectrum.representatives))
    radius = 2.0 * max(frob(a), 1.0)
    rng = np.random.default_rng(seed)
    max_gap, worst = -1.0, center
    for _ in range(n_samples):
        r = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        z = center + r * np.exp(1j * theta)
        g = abs(spectral.gap(a, z, spectrum))
        if g > max_gap:
            max_gap, worst = g, z
    return center, radius, max_gap, worst


class TestGenerators:
    def test_jordan_explicit(self):
        assert np.array_equal(generate_matrix("jordan", 2, 0, param=0.0), J2)

    def test_hermitian_is_normal(self):
        h = generate_matrix("hermitian", 6, 12)
        assert commutator_normality_oracle(h) <= 1e-12 * frob(h) ** 2

    def test_unitary_is_unitary(self):
        q = generate_matrix("unitary", 5, 3)
        assert np.linalg.norm(q.conj().T @ q - np.eye(5)) < 1e-13

    def test_near_normal_eps_zero_matches_normal(self):
        a = generate_matrix("near_normal", 4, 7, param=0.0)
        b = generate_matrix("normal", 4, 7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic(self, kind):
        param = 1e-3 if kind == "near_normal" else None
        a = generate_matrix(kind, 5, 42, param)
        b = generate_matrix(kind, 5, 42, param)
        assert np.array_equal(a, b)

    def test_haar_phase_fix_moves_bits(self):
        # householder_qr leaves R's diagonal real only up to rounding, so the
        # phase fix is not a no-op: every normal, unitary and near_normal
        # input depends on it
        def bare(n, seed):
            return kernels.householder_qr(_ginibre(np.random.default_rng(seed), n))[0]

        moved = [
            (n, seed) for n in range(1, 17) for seed in range(4)
            if not np.array_equal(_haar_unitary(np.random.default_rng(seed), n), bare(n, seed))
        ]
        assert moved

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_matrix("sparse", 3, 0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_matrix("ginibre", 0, 0)


class TestScanGrid:
    def test_one_by_one_matrix(self):
        a = np.zeros((1, 1), dtype=complex)
        scan = scan_grid(a, (-1.0, 1.0, -1.0, 1.0), 3, 3)
        assert len(scan.samples) == 9
        flagged = [s for s in scan.samples if s.flag == FLAG_AT_EIGENVALUE]
        assert len(flagged) == 1
        assert flagged[0].z == 0.0
        for s in scan.samples:
            assert s.s == pytest.approx(abs(s.z), abs=1e-14)
            assert s.d == pytest.approx(abs(s.z), abs=1e-14)
            assert s.ratio == pytest.approx(1.0, abs=1e-12)

    def test_jordan_sample_ratio(self):
        scan = scan_grid(J2, (1.0, 1.0, 0.0, 0.0), 1, 1)
        s = scan.samples[0]
        assert s.s == pytest.approx(PHI_MINUS, abs=1e-12)
        assert s.d == pytest.approx(1.0)
        assert s.ratio == pytest.approx(PHI_MINUS, abs=1e-12)
        assert s.flag == FLAG_OK

    def test_normal_ratio_near_one(self):
        a = generate_matrix("normal", 4, 2)
        scan = scan_grid(a, (-2.0, 2.0, -2.0, 2.0), 7, 7)
        ok = [s.ratio for s in scan.samples if s.flag == FLAG_OK]
        assert min(ok) >= 1.0 - 1e-6
        assert max(ok) <= 1.0 + 1e-9

    def test_ratio_bounds_nonnormal(self):
        g = generate_matrix("ginibre", 5, 4)
        scan = scan_grid(g, (-3.0, 3.0, -3.0, 3.0), 6, 6)
        for s in scan.samples:
            if s.flag == FLAG_OK:
                assert 0.0 <= s.ratio <= 1.0 + 1e-9

    def test_distance_column_is_dist_to_spectrum(self):
        g = generate_matrix("ginibre", 5, 4)
        spectrum = spectral.spectrum_of(g)
        scan = scan_grid(g, (-3.0, 3.0, -3.0, 3.0), 21, 21)
        for s in scan.samples:
            assert s.d == spectral.dist_to_spectrum(s.z, spectrum)[0]

    def test_stack_chunks_match_one_stack(self, monkeypatch):
        g = generate_matrix("ginibre", 4, 2)
        whole = scan_grid(g, (-3.0, 3.0, -3.0, 3.0), 7, 5)
        # 3 shifted 4x4 matrices per kernel call, the last call gets 2
        monkeypatch.setattr(spectral, "STACK_ENTRIES", 3 * 16)
        chunked = scan_grid(g, (-3.0, 3.0, -3.0, 3.0), 7, 5)
        assert chunked.samples == whole.samples

    def test_normal_scan_needs_two_sweeps(self, monkeypatch):
        # the scan's columns zQ - AQ of a normal matrix start out nearly
        # orthogonal; the plain columns of zI - A needed 6 sweeps here
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 2)
        scan = scan_grid(generate_matrix("normal", 6, 1), (-2.0, 2.0, -2.0, 2.0), 21, 21)
        assert scan.failures == 0

    def test_unconverged_node_fails_and_scan_continues(self, monkeypatch):
        unconverge_item(monkeypatch, 4)
        g = generate_matrix("ginibre", 4, 2)
        scan = scan_grid(g, (-3.0, 3.0, -3.0, 3.0), 3, 3)
        assert scan.failures == 1
        failed = scan.samples[4]
        assert failed.flag == FLAG_FAILED
        assert np.isnan(failed.s) and np.isnan(failed.ratio)
        assert failed.d > 0.0
        others = scan.samples[:4] + scan.samples[5:]
        assert all(s.flag == FLAG_OK for s in others)

    def test_out_of_range_matrix_fails_every_node_instead_of_nan_ok(self):
        # entries of 1e-150 drive the Jacobi couplings of the plain columns of
        # zI - A subnormal: every s(z) is NaN
        unit = generate_matrix("normal", 4, 1)
        a = unit * 1e-150
        nodes = np.array([x + 1j * y for y in (-1, 0, 1) for x in (-1, 0, 1)])
        region = (-1e-150, 1e-150, -1e-150, 1e-150)
        with np.errstate(all="ignore"):
            res = spectral.shifted_smallest(a, nodes * 1e-150)
            assert (res.status != kernels.OK).all() and np.isnan(res.s).all()
            scan = scan_grid(a, region, 3, 3)
        # the scan's columns zQ - AQ start out nearly orthogonal and never
        # reach the overflowing division: every node is right
        plain = spectral.shifted_smallest(unit, nodes).s
        assert scan.failures == 0
        got = np.array([smp.s for smp in scan.samples])
        assert np.all(np.abs(got / (1e-150 * plain) - 1.0) <= 1e-14)
        # columns that still overflow give nine `failed` nodes, not NaN `ok` ones
        with np.errstate(all="ignore"):
            scan = scan_grid(generate_matrix("ginibre", 4, 1) * 1e-150, region, 3, 3)
        assert scan.failures == 9
        assert not any(smp.flag == FLAG_OK for smp in scan.samples)

    def test_at_eigenvalue_bound_scales_with_frobenius_norm(self):
        # ||A||_F = sqrt(300) exceeds sigma_1 = 10, so a node 1.2e-14 from the
        # eigenvalue 0 lies between n*EPS*sigma_1 and n*EPS*||A||_F
        a = np.diag([0.0, 10.0, 10.0j, -10.0])
        n = a.shape[0]
        sigma1 = float(kernels.svd(a).sigma[0])
        scan = scan_grid(a, (1.2e-14, 1.2e-14, 0.0, 0.0), 1, 1)
        node = scan.samples[0]
        assert n * kernels.EPS * sigma1 < node.d <= n * kernels.EPS * frob(a)
        assert node.flag == FLAG_AT_EIGENVALUE
        assert node.ratio == 1.0

    def test_row_major_order(self):
        scan = scan_grid(J2, (0.0, 1.0, 0.0, 1.0), 2, 2)
        zs = [s.z for s in scan.samples]
        assert zs == [0.0, 1.0, 1.0j, 1.0 + 1.0j]


class TestCheckCorollary:
    def test_normal_small_gap(self):
        a = generate_matrix("normal", 4, 9)
        rep = check_corollary(a, n_samples=50, seed=1)
        assert rep.max_abs_gap <= 1e-8 * max(1.0, frob(a))

    def test_jordan_large_gap(self):
        rep = check_corollary(J2, n_samples=50, seed=1)
        assert rep.max_abs_gap > 1e-3

    @pytest.mark.parametrize("name", ["J2", "ginibre5"])
    def test_matches_per_sample_loop(self, name):
        # normal matrices are left out: their gaps are round-off noise, so
        # the worst z is not determined by the matrix
        a = J2 if name == "J2" else generate_matrix("ginibre", 5, 4)
        rep = check_corollary(a, n_samples=200, seed=3)
        center, radius, max_gap, worst = reference_corollary(a, 200, 3)
        assert rep.center == center
        assert rep.radius == radius
        assert rep.worst_z == worst
        assert abs(rep.max_abs_gap - max_gap) <= 1e-14 * max(1.0, frob(a))

    def test_zero_samples(self):
        rep = check_corollary(J2, n_samples=0)
        assert rep.max_abs_gap == -1.0
        assert rep.worst_z == rep.center
        with pytest.raises(ValueError):
            check_corollary(J2, n_samples=-1)

    def test_unconverged_shift_raises(self, monkeypatch):
        unconverge_item(monkeypatch, 7)
        with pytest.raises(ConvergenceError):
            check_corollary(generate_matrix("ginibre", 4, 2), n_samples=20)

    def test_unconverged_shifts_report_their_largest_residual(self, monkeypatch):
        # a one-sweep budget leaves shifts of a ginibre matrix unconverged;
        # the error carries the largest coupling left among them
        a = generate_matrix("ginibre", 6, 2)
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        seen = []
        original = spectral.shifted_smallest

        def spied(*args, **kwargs):
            seen.append(original(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(spectral, "shifted_smallest", spied)
        with pytest.raises(ConvergenceError) as info:
            check_corollary(a, n_samples=20)
        unconverged = seen[0].status == kernels.UNCONVERGED
        assert unconverged.any()
        assert set(seen[0].status.tolist()) <= {kernels.OK, kernels.UNCONVERGED}
        assert info.value.residual == seen[0].residual[unconverged].max() > 0.0
        assert info.value.iterations == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_shift_raises_nonfinite(self):
        # ||A||_F overflows, so the disc radius and every sampled z are not finite
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            check_corollary(J2 * 1e200, n_samples=5)

    def test_overflowing_s_raises_nonfinite(self):
        # every entry of zI - A is finite, but the kernel's squared column
        # norms overflow at some shifts, so s(z) is not finite there
        a = generate_matrix("ginibre", 4, 1) * 3e153
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError, match=r"s\(z\) is not finite"):
                check_corollary(a, n_samples=20)


class TestMatrixIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "m.json"
        snio.write_matrix(path, a, meta={"kind": "ginibre", "seed": 6})
        b = snio.read_matrix(path)
        assert np.array_equal(a, b)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]]] * 3}
        path.write_text(json.dumps(doc))
        with pytest.raises(snio.MatrixFormatError, match="rows"):
            snio.read_matrix(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(snio.MatrixFormatError):
            snio.read_matrix(path)

    def test_scan_csv_shape(self, tmp_path):
        scan = scan_grid(np.diag([1.0, 2.0]).astype(complex), (0, 1, 0, 1), 2, 2)
        path = tmp_path / "scan.csv"
        path.write_text(snio.scan_csv(scan))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "re,im,s,d,ratio,flag"
        assert len(lines) == 5


def reference_scan_json(scan: GridScan) -> str:
    """The scan document through the json module, as the CLI once wrote it."""
    doc = {
        "region": [scan.re_min, scan.re_max, scan.im_min, scan.im_max],
        "nx": scan.nx,
        "ny": scan.ny,
        "failures": scan.failures,
        "samples": [
            {"z": [s.z.real, s.z.imag], "s": s.s, "d": s.d, "ratio": s.ratio, "flag": s.flag}
            for s in scan.samples
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_scan_csv(scan: GridScan) -> str:
    """The scan CSV, one format string per sample, as the CLI once wrote it."""
    lines = ["re,im,s,d,ratio,flag"] + [
        f"{s.z.real!r},{s.z.imag!r},{s.s!r},{s.d!r},{s.ratio!r},{s.flag}" for s in scan.samples
    ]
    return "\n".join(lines) + "\n"


class TestScanCsv:
    def test_full_grid(self):
        scan = scan_grid(generate_matrix("ginibre", 4, 3), (-2.0, 2.0, -2.0, 2.0), 21, 21)
        assert snio.scan_csv(scan) == reference_scan_csv(scan)

    def test_failed_nan_node(self, monkeypatch):
        unconverge_item(monkeypatch, 4)
        scan = scan_grid(generate_matrix("ginibre", 4, 2), (-3.0, 3.0, -3.0, 3.0), 3, 3)
        assert scan.samples[4].flag == FLAG_FAILED
        text = snio.scan_csv(scan)
        row = text.splitlines()[5].split(",")
        assert row[2] == row[4] == "nan" and row[5] == FLAG_FAILED
        assert text == reference_scan_csv(scan)

    def test_samples_off_the_grid(self):
        # a scan whose samples are not the nodes of its grid, signed zeros
        # and infinities included, is written sample by sample
        inf = float("inf")
        samples = [
            GridSample(complex(inf, -inf), inf, -inf, float("nan"), FLAG_FAILED),
            GridSample(complex(-0.0, 1e-300), 0.0, 5e-324, 1.0, FLAG_AT_EIGENVALUE),
            GridSample(complex(0.0, 1e-300), 0.0, 5e-324, 1.0, FLAG_AT_EIGENVALUE),
            GridSample(complex(-0.0, 1e-300), 0.0, 5e-324, 1.0, FLAG_AT_EIGENVALUE),
        ]
        for nx, ny, chosen in ((2, 1, samples[:2]), (2, 2, samples), (1, 2, samples[2:])):
            scan = GridScan(-1.0, 1.0, -1.0, 1.0, nx, ny, chosen, 1)
            assert snio.scan_csv(scan) == reference_scan_csv(scan)
            assert snio.scan_json(scan) == reference_scan_json(scan)

    def test_no_samples(self):
        scan = GridScan(0.0, 0.0, 0.0, 0.0, 0, 0, [], 0)
        assert snio.scan_csv(scan) == reference_scan_csv(scan) == "re,im,s,d,ratio,flag\n"


class TestScanJson:
    def test_full_grid(self):
        scan = scan_grid(generate_matrix("ginibre", 4, 3), (-2.0, 2.0, -2.0, 2.0), 21, 21)
        assert snio.scan_json(scan) == reference_scan_json(scan)

    def test_one_by_one_grid(self):
        scan = scan_grid(J2, (1.0, 1.0, 0.0, 0.0), 1, 1)
        assert snio.scan_json(scan) == reference_scan_json(scan)

    def test_at_eigenvalue_nodes(self):
        scan = scan_grid(J2, (-1.0, 1.0, -1.0, 1.0), 21, 21)
        assert any(s.flag == FLAG_AT_EIGENVALUE for s in scan.samples)
        assert snio.scan_json(scan) == reference_scan_json(scan)

    def test_failed_nan_node(self, monkeypatch):
        unconverge_item(monkeypatch, 4)
        scan = scan_grid(generate_matrix("ginibre", 4, 2), (-3.0, 3.0, -3.0, 3.0), 3, 3)
        assert scan.samples[4].flag == FLAG_FAILED
        text = snio.scan_json(scan)
        assert '"s": NaN' in text
        assert text == reference_scan_json(scan)

    def test_infinities(self):
        inf = float("inf")
        samples = [
            GridSample(complex(inf, -inf), inf, -inf, float("nan"), FLAG_FAILED),
            GridSample(complex(-0.0, 1e-300), 0.0, 5e-324, 1.0, FLAG_AT_EIGENVALUE),
        ]
        scan = GridScan(-inf, inf, -1.5, 1e300, 2, 1, samples, 1)
        text = snio.scan_json(scan)
        assert "-Infinity" in text
        assert text == reference_scan_json(scan)

    def test_no_samples(self):
        scan = GridScan(0.0, 0.0, 0.0, 0.0, 0, 0, [], 0)
        assert snio.scan_json(scan) == reference_scan_json(scan)

    def test_cli_json_output(self, tmp_path):
        mpath = tmp_path / "m.json"
        snio.write_matrix(mpath, generate_matrix("normal", 3, 5))
        spath = tmp_path / "scan.json"
        assert main([
            "scan", "--input", str(mpath), "--region=-1,1,-1,1", "--grid", "4,3",
            "--format", "json", "--output", str(spath),
        ]) == 0
        scan = scan_grid(snio.read_matrix(mpath), (-1.0, 1.0, -1.0, 1.0), 4, 3)
        assert spath.read_text() == reference_scan_json(scan)


class TestCli:
    def test_certify_normal_exit_zero(self, capsys):
        code = main(["certify", "--kind", "hermitian", "--n", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "Normal"

    def test_certify_jordan_exit_one(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = main([
            "certify", "--kind", "jordan", "--n", "2", "--seed", "0",
            "--eps", "0.0", "--output", str(cert_path),
        ])
        assert code == 1
        doc = json.loads(cert_path.read_text())
        assert doc["verdict"] == "Nonnormal"
        assert doc["witness"]["gap"] > 0.29

    def test_indeterminate_exit_two(self, capsys):
        # forcing probes through on a defective matrix trips the
        # constructive-stage contradiction
        code = main([
            "certify", "--kind", "jordan", "--n", "2", "--seed", "0",
            "--eps", "0.0", "--tol-eq", "10.0",
        ])
        assert code == 2
        assert "indeterminate" in capsys.readouterr().err

    def test_usage_error_exit_three(self, capsys):
        assert main(["certify"]) == 3
        assert main(["certify", "--input", "/nonexistent/m.json"]) == 3

    @pytest.mark.parametrize("doc", [
        {"n": 2, "entries": 5},
        {"n": 1, "entries": [5]},
        {"n": 1, "entries": [[[None, 0.0]]]},
        {"n": 1, "entries": [[["x", 0.0]]]},
        {"n": 1.9, "entries": [[[1.0, 0.0]]]},
        {"n": True, "entries": [[[1.0, 0.0]]]},
        {"n": "2", "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    ])
    def test_malformed_matrix_file_exit_three(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        # a format message that names the row, not a bare conversion error
        assert err.startswith("error: ") and "row" in err

    @pytest.mark.parametrize("region", ["nan,1,-1,1", "-inf,inf,-1,1"])
    def test_nonfinite_region_exit_three(self, region, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["scan", "--kind", "normal", "--n", "3", f"--region={region}"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: region bounds must be finite\n"

    @pytest.mark.parametrize("command, line", [
        ("weyl", "error: Jacobi SVD produced a non-finite singular value "
         "(entries outside about 1e-145..1e154)"),
        ("certify", "indeterminate: kernel did not converge: shifted QR did not "
         "converge after 120 iterations (trailing subdiagonal nan)"),
        ("check-corollary", "indeterminate: kernel did not converge: shifted QR did "
         "not converge after 120 iterations (trailing subdiagonal nan)"),
        ("scan", "error: shifted QR did not converge after 120 iterations "
         "(trailing subdiagonal nan)"),
    ], ids=["weyl", "certify", "check-corollary", "scan"])
    def test_out_of_range_matrix_prints_one_line(self, command, line, tmp_path, capsys):
        # the kernels overflow on the way to their refusal; numpy's warnings
        # about it must not reach the user, only the refusal itself
        path = tmp_path / "big.json"
        snio.write_matrix(path, generate_matrix("ginibre", 4, 1) * 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(COMMANDS[command] + ["--input", str(path)])
        assert code == (2 if line.startswith("indeterminate") else 3)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    @pytest.mark.parametrize("argv", [
        ["certify"], ["certify", "--cluster-tol", "1"], ["check-corollary"],
    ], ids=["certify", "certify-cluster-tol", "check-corollary"])
    def test_overflowing_norm_prints_one_line(self, argv, tmp_path, capsys):
        # the Schur form converges but ||A||_F overflows: the message names
        # the overflow, not a tolerance the user did not pass
        path = tmp_path / "big.json"
        snio.write_matrix(path, J2 * 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--input", str(path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ||A||_F overflows float64, so the tolerances scaled by it "
            "are not finite\n"
        )

    @pytest.mark.parametrize("command", ["certify", "check-corollary"])
    @pytest.mark.parametrize(
        "option", ["--tol-eq=nan", "--tol-eq=-1", "--cluster-tol=inf", "--probe-angle=nan"]
    )
    def test_malformed_tolerance_exit_three(self, command, option, capsys):
        code = main([command, "--kind", "normal", "--n", "3", "--seed", "1", option])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        name = option[2:].split("=")[0].replace("-", "_")
        assert captured.err.startswith(f"error: {name} must be finite")

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        argv = ["scan", "--kind", "ginibre", "--n", "3", "--seed", "1", "--grid", "3,3"]
        build_parser.cache_clear()
        assert main(argv) == 0
        alone = capsys.readouterr().out
        assert main(["scan", "--grid"]) == 3
        assert main(["certify", "--no-such-flag"]) == 3
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == alone
        assert build_parser() is build_parser()

    def test_gen_scan_weyl_pipeline(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        assert main([
            "gen", "--kind", "normal", "--n", "3", "--seed", "5",
            "--output", str(mpath),
        ]) == 0
        spath = tmp_path / "scan.csv"
        assert main([
            "scan", "--input", str(mpath), "--region=-1,1,-1,1",
            "--grid", "3,3", "--output", str(spath),
        ]) == 0
        lines = spath.read_text().strip().split("\n")
        assert len(lines) == 10
        assert main(["weyl", "--input", str(mpath)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["upper_ok"] and doc["lower_ok"]

    def test_check_corollary_normal(self, capsys):
        code = main([
            "check-corollary", "--kind", "normal", "--n", "3", "--seed", "2",
            "--samples", "40",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistent"]
        assert doc["verdict"] == "Normal"

    def test_check_corollary_nonnormal_consistent(self, capsys):
        code = main([
            "check-corollary", "--kind", "ginibre", "--n", "4", "--seed", "2",
            "--samples", "40",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "Nonnormal"

    def test_check_corollary_unconverged_exit_three(self, monkeypatch, capsys):
        unconverge_item(monkeypatch, 0)
        code = main([
            "check-corollary", "--kind", "ginibre", "--n", "4", "--seed", "2",
            "--samples", "40",
        ])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main([
                "certify", "--kind", "ginibre", "--n", "5", "--seed", "11",
                "--output", str(path),
            ])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        # gen writes the seed it used, and --eps as meta.param
        for kind, extra, meta in [
            ("ginibre", [], {}),
            ("near_normal", ["--eps", "1e-3"], {"param": 1e-3}),
        ]:
            p1 = tmp_path / "env.json"
            p2 = tmp_path / "flag.json"
            monkeypatch.setenv("SPECNORM_SEED", "77")
            main(["gen", "--kind", kind, "--n", "3", "--output", str(p1)] + extra)
            monkeypatch.delenv("SPECNORM_SEED")
            main(["gen", "--kind", kind, "--n", "3", "--seed", "77",
                  "--output", str(p2)] + extra)
            assert p1.read_bytes() == p2.read_bytes()
            doc = json.loads(p2.read_text())
            assert doc["meta"] == {"kind": kind, "n": 3, "seed": 77, **meta}
            a = generate_matrix(kind, 3, 77, meta.get("param"))
            assert np.array_equal(snio.matrix_from_dict(doc), a)


class TestOneAnalysis:
    @pytest.mark.parametrize("kind", ["normal", "ginibre"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_runs_one_schur_form(self, command, kind, monkeypatch, capsys):
        calls = count_calls(monkeypatch, "schur")
        code = main(COMMANDS[command] + ["--kind", kind, "--n", "5", "--seed", "1"])
        assert code in (0, 1)
        assert calls["schur"] == 1

    @pytest.mark.parametrize("kind", ["normal", "ginibre"])
    def test_weyl_runs_one_svd(self, kind, monkeypatch, capsys):
        # perfbench's ceiling replays the kernels.svd calls of its workloads,
        # so weyl's sigma_1 and sigma_n stay one svd call (certify's probe
        # stack is pinned to one in test_certifier)
        calls = count_calls(monkeypatch, "svd")
        code = main(COMMANDS["weyl"] + ["--kind", kind, "--n", "5", "--seed", "1"])
        assert code == 0
        assert calls["svd"] == 1

    @pytest.mark.parametrize(
        "command, expected",
        [("certify", 2), ("check-corollary", 2), ("scan", 3), ("weyl", 3)],
    )
    def test_schur_failure_exit_codes(self, command, expected, monkeypatch, capsys):
        # certify reports a Schur failure as Indeterminate, also when the
        # Schur form belongs to the Analysis that check-corollary shares
        monkeypatch.setattr(kernels, "MAX_QR_ITERS_PER_N", 0)
        code = main(COMMANDS[command] + ["--kind", "ginibre", "--n", "5", "--seed", "3"])
        assert code == expected
        assert "did not converge" in capsys.readouterr().err

    def test_analysis_is_reused(self, monkeypatch):
        an = spectral.analyze(generate_matrix("ginibre", 5, 3))
        assert spectral.analyze(an) is an
        calls = count_calls(monkeypatch, "schur")
        eigs = an.schur.eigenvalues
        spect = spectral.spectrum_of(an)
        assert calls["schur"] == 1
        assert spect.all_eigenvalues.tolist() == eigs.tolist()
        assert spect.scale == an.scale
