import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qsteer
from qsteer import monogamy
from qsteer.monogamy import (
    ALL_SIGN_REGIONS,
    DEDUP_RADIUS,
    FACE_TOL,
    GRAD_TOL,
    SIGN_BOUNDARY_TOL,
    MinimizeConfig,
    VerifyConfig,
    boundary_f,
    closed_form_f,
    f_components,
    f_pipeline,
    fgwv,
    minimize_f,
    schmidt_f_batch,
    sign_region,
    verify_monogamy,
)
from qsteer.monogamy import (
    _REGION_NAMES, _batch_grad, _fgwv_arrays, _labels, _lockstep_nelder_mead, _pair_norms,
    _region_codes, _sobol_sphere,
)
from qsteer.states import SchmidtParams, density_from_pure, permute_qubits, schmidt_state

from conftest import SIGMA, oracle_ptrace, oracle_theta2, random_octant_point

R2 = 1 / np.sqrt(2)
INTERIOR = (0.39036823927218467, 0.0, 0.7886176857851448, 0.47507345056784694)
BELL = (0.0, 0.0, R2, R2)
CORNER = (0.0, 1.0, 0.0, 0.0)


class TestPipeline:
    def test_fixture_values(self):
        assert f_pipeline(CORNER) == pytest.approx(0.0, abs=1e-9)
        assert f_pipeline(BELL) == pytest.approx(0.780239, abs=1e-5)
        assert f_pipeline(INTERIOR) == pytest.approx(0.361084, abs=1e-4)

    def test_bell_components(self):
        comp = f_components(BELL)
        assert comp["h_a_bc"] == pytest.approx(0.0, abs=1e-12)
        assert comp["h_ab"] == pytest.approx(-R2, abs=1e-10)
        assert comp["h_ac"] == pytest.approx(-R2, abs=1e-10)
        assert comp["h_bc"] == pytest.approx(1.5 - np.sqrt(0.75), abs=1e-10)

    def test_batch_route_agrees(self, rng):
        pts = np.stack([random_octant_point(rng) for _ in range(100)])
        batch = schmidt_f_batch(pts)
        pipe = [f_components(p) for p in pts]
        for key in ("f", "h_a_bc", "h_ab", "h_ac", "h_bc"):
            assert_allclose(batch[key], [c[key] for c in pipe], atol=1e-10)

    def test_stack_rows_match_single_points(self, rng):
        faces = [_unit(np.abs(rng.standard_normal((8, 4))) * (np.arange(4) != k)) for k in range(4)]
        pts = np.concatenate([_sobol_sphere(64, 4, 2), *faces, [CORNER, BELL, INTERIOR]])
        stack = f_components(pts)
        for i, p in enumerate(pts):
            assert {k: v[i] for k, v in stack.items()} == f_components(p)
        assert f_components(np.empty((0, 4)))["f"].shape == (0,)

    def test_swap_symmetry_via_permutation(self, rng):
        # exchanging z and h is the same relabeling as swapping qubits B and C
        for _ in range(10):
            x, y, z, h = random_octant_point(rng)
            direct = density_from_pure(schmidt_state((x, y, h, z)))
            relabeled = permute_qubits(density_from_pure(schmidt_state((x, y, z, h))),
                                       ("A", "C", "B"))
            assert_allclose(direct, relabeled, atol=1e-15)


def _oracle_blocks(p):
    """Spatial 3x3 covariance blocks of AB, AC, BC, through the index-loop oracles."""
    rho = density_from_pure(schmidt_state(p))
    blocks = []
    for keep in ((0, 1), (0, 2), (1, 2)):
        t = oracle_theta2(oracle_ptrace(rho, keep))
        blocks.append(0.5 * (t - np.outer(t[:, 0], t[0, :]))[1:, 1:])
    return blocks


_SIGMA2_REAL = np.stack([np.kron(a, b) for a in SIGMA for b in SIGMA]).real


def _svd_pair_norms(pts):
    """Reference pair norms: batched SVD of the full 3x3 blocks, from the state vector.

    Works for real coordinates of either sign; the real parts of the Pauli
    strings carry every expectation of a real state.
    """
    psi = np.zeros((len(pts), 2, 2, 2))
    psi[:, 0, 0, 0], psi[:, 1, 0, 0], psi[:, 1, 0, 1], psi[:, 1, 1, 0] = pts.T
    norms = []
    for expr in ("nabc,ndec->nabde", "nabc,ndbf->nacdf", "nabc,naef->nbcef"):
        rho2 = np.einsum(expr, psi, psi).reshape(-1, 4, 4)
        t = np.einsum("pij,nji->np", _SIGMA2_REAL, rho2).reshape(-1, 4, 4)
        block = 0.5 * (t - t[:, :, :1] * t[:, :1, :])[:, 1:, 1:]
        norms.append(np.linalg.svd(block, compute_uv=False).sum(axis=1))
    return norms


def _unit(pts):
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _fragile_points(rng):
    """Faces, edges, the c_xx = 0 set y^2 = 1/2, and the zero sets of f+-g, w+-v."""
    out = []
    for k in range(4):
        face = np.abs(rng.standard_normal((500, 4)))
        face[:, k] = 0.0
        out.append(face)
        for j in range(k + 1, 4):
            edge = np.abs(rng.standard_normal((100, 4)))
            edge[:, [k, j]] = 0.0
            out.append(edge)
    rest = _unit(np.abs(rng.standard_normal((500, 3))))
    out.append(np.insert(np.sqrt(0.5) * rest, 1, np.sqrt(0.5), axis=1))
    # bisect between neighbouring scan points whose sign patterns differ
    pts = _sobol_sphere(2**12, 4, 7)
    sign = np.sign(_quads(pts))
    changed = sign[:-1] * sign[1:] < 0
    rows = np.flatnonzero(changed.any(axis=1))
    col = changed[rows].argmax(axis=1)
    a, b, side = pts[rows], pts[rows + 1], sign[rows, col]
    for _ in range(60):
        mid = _unit(a + b)
        left = np.sign(_quads(mid)[np.arange(len(mid)), col]) == side
        a = np.where(left[:, None], mid, a)
        b = np.where(left[:, None], b, mid)
    assert len(a) > 50 and np.all(np.abs(_quads(a)[np.arange(len(a)), col]) < 1e-12)
    out.append(a)
    return _unit(np.concatenate(out))


def _quads(pts):
    f, g, w, v, _ = _fgwv_arrays(pts)
    return np.stack([f + g, f - g, w + v, w - v], axis=1)


class TestPairKernel:
    def test_family_blocks_split(self, rng):
        # the structural fact behind the closed form: xy, yx, yz, zy vanish
        pts = [random_octant_point(rng) for _ in range(40)] + [CORNER, BELL, INTERIOR]
        pts += list(_unit(1.0 - np.eye(4)))  # one point on each face
        for p in pts:
            blocks = _oracle_blocks(p)
            for block in blocks:
                assert block[0, 1] == block[1, 0] == block[1, 2] == block[2, 1] == 0.0
            oracle = [np.linalg.svd(b, compute_uv=False).sum() for b in blocks]
            assert_allclose(np.ravel(_pair_norms(*np.array(p, dtype=float))), oracle, rtol=0, atol=1e-13)

    def test_matches_svd(self, rng):
        # on the octant det B2 and c_yy vanish only on the faces; signed
        # coordinates take both through a sign change
        pts = np.concatenate([_sobol_sphere(2**16, 4, 3), _fragile_points(rng),
                              _unit(rng.standard_normal((4096, 4)))])
        for got, ref in zip(_pair_norms(*pts.T), _svd_pair_norms(pts)):
            assert np.max(np.abs(got - ref)) <= 1e-13


class TestAuxiliaries:
    def test_zero_when_x_vanishes(self):
        assert fgwv((0.0, 0.3, 0.6, np.sqrt(1 - 0.09 - 0.36))) == (0.0, 0.0, 0.0, 0.0)
        assert fgwv(CORNER) == (0.0, 0.0, 0.0, 0.0)

    def test_radicand_consistency(self, rng):
        # g^2 reproduces the printed radicand expression times x^2
        for _ in range(50):
            p = random_octant_point(rng)
            try:
                f, g, w, v = fgwv(p)
            except ValueError:
                continue
            x, y, z, h = p
            rad_g = h**2 * (1 + 4 * y**4 - 4 * y**2 * (1 + 2 * x * h + h**2)
                            - 4 * h * (x + (z**2 - 1) * h + h**3))
            assert g**2 == pytest.approx(x**2 * max(rad_g, 0.0), abs=1e-12)

    def test_sixteen_regions(self):
        assert len(ALL_SIGN_REGIONS) == 16
        assert len(set(ALL_SIGN_REGIONS)) == 16

    def test_interior_point_region(self):
        assert sign_region(INTERIOR) == "++++"

    def test_boundary_classification(self):
        assert sign_region(CORNER) == "boundary"
        assert sign_region((0.0, 0.3, 0.6, np.sqrt(1 - 0.09 - 0.36))) == "boundary"


class TestClosedForm:
    def test_matches_pipeline_at_special_points(self):
        assert closed_form_f(CORNER) == pytest.approx(f_pipeline(CORNER), abs=1e-4)
        assert closed_form_f(BELL) == pytest.approx(f_pipeline(BELL), abs=1e-4)

    def test_known_mismatch_at_interior_point(self):
        # the printed |f+g|,|f-g|,|w+v|,|w-v| terms underestimate the pair
        # covariance trace norms here; the pipeline is authoritative and the
        # offset is pinned so any silent change gets flagged
        gap = closed_form_f(INTERIOR) - f_pipeline(INTERIOR)
        assert gap == pytest.approx(0.10798, abs=2e-3)
        assert f_pipeline(INTERIOR) == pytest.approx(0.361084, abs=1e-4)


class TestPrintedForm:
    """What the printed closed_form_f gets wrong, pinned against the exact pair norms."""

    @pytest.fixture(scope="class")
    def coords(self):
        return _sobol_sphere(2**16, 4, 0).T

    def test_pair_norms_are_smooth(self, coords):
        # det B2 has a fixed sign on the octant, so the |det| of _block_norm resolves
        x, y, z, h = coords

        def smooth(a, b):
            return a * b * (1 + np.sqrt((1 - 2 * y**2 + 2 * a * b) ** 2 + 4 * y**2 * (a + b) ** 2))

        for got, ref in zip(_pair_norms(x, y, z, h), (smooth(x, h), smooth(x, z), smooth(z, h))):
            assert np.max(np.abs(got - ref)) <= 1e-13

    def test_printed_bc_radicand_lacks_a_term(self, coords):
        # the printed BC norm is zh (1 + sqrt(R)); the exact radicand adds 4y^2 (z-h)^2
        x, y, z, h = coords
        radicand = 8 * z * h + (2 * y**2 - 1 + 2 * z * h) ** 2
        exact = z * h * (1 + np.sqrt(radicand + 4 * y**2 * (z - h) ** 2))
        assert np.max(np.abs(_pair_norms(x, y, z, h)[2] - exact)) <= 1e-13
        assert np.max(exact - z * h * (1 + np.sqrt(radicand))) > 1e-2

    def test_printed_ab_ac_terms_on_y_face(self):
        # on y = 0 the exact AB and AC norms less |c_yy| are xh + 2x^2 h^2 and
        # xz + 2x^2 z^2; the printed f = xh (1 + 2x^2) has 2x^2 where 2xh stands
        x, z, h = _sobol_sphere(2**14, 3, 0).T
        y = np.zeros_like(x)
        f, g, w, v, _ = _fgwv_arrays(np.stack([x, y, z, h], axis=1))
        n_ab, n_ac, _ = _pair_norms(x, y, z, h)
        for exact, a, b, other in ((n_ab - x * h, f, g, h), (n_ac - x * z, w, v, z)):
            assert np.max(np.abs(exact - a - 2 * x**2 * other * (other - x))) <= 1e-13
            printed = np.maximum(np.abs(a), np.abs(b))
            assert np.max(np.abs(0.5 * (np.abs(a + b) + np.abs(a - b)) - printed)) <= 1e-15
            assert np.max(np.abs(printed - exact)) > 0.3


class TestBoundaryForms:
    @pytest.mark.parametrize("face,embed", [
        ("x", lambda g: (0.0, g[0], g[1], g[2])),
        ("y", lambda g: (g[0], 0.0, g[1], g[2])),
        ("z", lambda g: (g[0], g[1], 0.0, g[2])),
        ("h", lambda g: (g[0], g[1], g[2], 0.0)),
    ])
    def test_agrees_with_pipeline(self, face, embed, rng):
        for _ in range(100):
            g3 = np.abs(rng.standard_normal(3))
            g3 /= np.linalg.norm(g3)
            p = embed(tuple(float(v) for v in g3))
            assert boundary_f(p, face) == pytest.approx(f_pipeline(p), abs=1e-8)

    def test_fixture_values(self):
        assert boundary_f(BELL, "x") == pytest.approx(0.780239, abs=1e-5)
        assert boundary_f(CORNER, "z") == 0.0
        assert boundary_f(CORNER, "h") == pytest.approx(0.0, abs=1e-12)
        assert boundary_f(CORNER, "x") == pytest.approx(0.0, abs=1e-12)

    def test_rejects_off_face_points(self):
        with pytest.raises(ValueError, match="not on the"):
            boundary_f(INTERIOR, "x")
        with pytest.raises(ValueError):
            boundary_f(BELL, "q")


@pytest.fixture(scope="module")
def search():
    return minimize_f(MinimizeConfig(starts=300, stationary_starts=64,
                                     face_starts=48, seed=11))


class TestLabels:
    """The region/location rule of minimize_f on constructed points."""

    # f+g changes sign once between these interior points; f-g, w+v and w-v
    # stay above 1e-2 and every point of the path stays defined
    PATH = np.array([(0.2434, 0.9476, 0.1761, 0.1087), (0.2764, 0.9441, 0.1721, 0.0522)])

    def test_interior_point(self):
        p = _unit(np.array([[0.089, 0.09, 0.878, 0.461]]))
        assert _fgwv_arrays(p)[4].all() and np.abs(_quads(p)).min() > 1e-3
        region, location = _labels(p)
        assert (region[0], location[0]) == ("++++", "interior")

    def test_near_sign_boundary_is_internal_boundary(self):
        a, b = _unit(self.PATH)

        def point(t):
            return _unit(((1 - t) * a + t * b)[None])

        lo, hi = 0.0, 1.0
        assert _quads(point(lo))[0, 0] < 0 < _quads(point(hi))[0, 0]
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _quads(point(mid))[0, 0] < 0 else (lo, mid)
        p = point(hi + 1e-8)
        q = _quads(p)[0]
        assert _fgwv_arrays(p)[4].all() and p.min() > FACE_TOL
        assert SIGN_BOUNDARY_TOL < abs(q[0]) < FACE_TOL and np.abs(q[1:]).min() > 1e-3
        # a sign pattern at the scan tolerance, a boundary at FACE_TOL
        assert _region_codes(p)[0] == "+---"
        region, location = _labels(p)
        assert (region[0], location[0]) == ("boundary", "internal-boundary")

    def test_first_face_wins(self):
        near = []
        for small in ((1, 3), (0, 3), (2, 3)):
            p = np.array([0.6, 0.5, 0.5, 0.0])
            p[list(small)] = [5e-7, 3e-7]
            near.append(p)
        assert _labels(_unit(np.array(near)))[1].tolist() == ["y=0", "x=0", "z=0"]
        on_face = np.array([[0.0, 0.6, 0.8, 0.0], [0.6, 0.8, 0.0, 2 * FACE_TOL]])
        assert _labels(on_face)[1].tolist() == ["x=0", "z=0"]


class TestMinimize:
    def test_recovers_interior_minimum(self, search):
        hit = search.best_matching(INTERIOR, radius=1e-3)
        assert hit is not None
        assert hit.f_value == pytest.approx(0.361084, abs=1e-4)
        assert hit.region == "++++"

    def test_recovers_face_saddle(self, search):
        hit = search.best_matching(BELL, radius=1e-3)
        assert hit is not None
        assert hit.f_value == pytest.approx(0.780239, abs=1e-5)
        assert hit.location == "x=0"

    def test_recovers_zero_corner(self, search):
        hit = search.best_matching(CORNER, radius=1e-3)
        assert hit is not None
        assert hit.f_value == pytest.approx(0.0, abs=1e-9)

    def test_all_points_on_sphere_and_nonnegative(self, search):
        for pt in search.points:
            assert pt.params.constraint_residual() < 1e-10
            assert pt.f_value >= -1e-9
        assert search.dropped + search.converged <= search.starts

    def test_dropped_starts_carry_gradient_norms(self, search):
        assert search.converged + search.dropped == search.starts
        assert search.dropped_grad_norms.shape == (search.dropped,)
        assert np.all(search.dropped_grad_norms > GRAD_TOL)
        summary = search.dropped_summary()
        assert summary["count"] == search.dropped
        if search.dropped:
            assert summary["min"] <= summary["median"] <= summary["max"]

    def test_grad_norms_hold_at_returned_points(self, search):
        # a reported norm is the gradient at the returned unit-sphere point,
        # not one taken off the sphere or before a later move
        p = np.array([pt.params for pt in search.points])
        recomputed = np.linalg.norm(_batch_grad(p), axis=1)
        assert_allclose([pt.grad_norm for pt in search.points], recomputed, rtol=0, atol=1e-9)

    def test_points_are_distinct(self, search):
        p = np.array([pt.params for pt in search.points])
        dist = np.linalg.norm(p[:, None] - p[None], axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > DEDUP_RADIUS

    def test_values_are_pipeline_values(self, search):
        for pt in search.points:
            assert pt.f_value == f_pipeline(pt.params)

    def test_labels_match_single_point_rule(self, search):
        for pt in search.points:
            p = pt.params.as_array()
            region = str(_region_codes(p[None], tol=FACE_TOL)[0])
            faces = [f"{c}=0" for c, v in zip("xyzh", p) if v <= FACE_TOL]
            location = faces[0] if faces else "internal-boundary" if region == "boundary" else "interior"
            assert (pt.region, pt.location) == (region, location)
        assert {"x=0", "y=0", "z=0"} <= {pt.location for pt in search.points}
        assert {"++++", "boundary", "undefined"} <= {pt.region for pt in search.points}


class TestExactFaces:
    """A point on a face of the octant has an exact 0 in its face coordinate."""

    @pytest.fixture
    def face_starts(self, rng):
        u = np.abs(rng.standard_normal((12, 4)))
        zero = np.zeros(u.shape, dtype=bool)
        zero[np.arange(12), np.arange(12) % 4] = True
        zero[8:, 0] = True  # rows 8-11 sit on an edge: two exact zeros
        u[zero] = 0.0
        return u, zero

    def test_gradient_vanishes_along_a_zero_coordinate(self, face_starts):
        u, zero = face_starts
        g = _batch_grad(u)
        assert np.all(g[zero] == 0.0)

    def test_nelder_mead_keeps_a_zero_coordinate(self, face_starts):
        u, zero = face_starts
        # the minimum at 0.3 pulls every coordinate away from 0
        xs, _ = _lockstep_nelder_mead(lambda v: np.sum((v - 0.3) ** 2, axis=1), u)
        assert np.all(xs[zero] == 0.0)
        assert_allclose(xs[~zero], 0.3, atol=1e-6)


def test_import_loads_no_scipy():
    # scipy is imported only where the sphere scan needs it; at top level it
    # would cost most of the time of `import qsteer`
    src = str(Path(qsteer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", "import sys, qsteer; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


class TestVerify:
    def test_default_scan_passes(self):
        report = verify_monogamy(VerifyConfig(samples=2**14, seed=5))
        assert report.passed
        assert report.min_value >= -1e-9
        assert report.min_value < 1e-3  # the zero set is reachable by sampling
        assert set(report.regions) <= set(ALL_SIGN_REGIONS) | {"boundary", "undefined"}
        assert sum(r["samples"] for r in report.regions.values()) == report.samples

    def test_chunk_size_does_not_change_report(self, monkeypatch):
        large = verify_monogamy(VerifyConfig(samples=2**14, seed=5))
        monkeypatch.setattr(monogamy, "SCAN_CHUNK", 2**10)
        small = verify_monogamy(VerifyConfig(samples=2**14, seed=5))
        assert json.dumps(small.to_dict()) == json.dumps(large.to_dict())

    def test_regions_match_string_route(self):
        # per-point sign strings built from fgwv, as the scan labelled points
        # before it switched to integer codes
        pts = _sobol_sphere(2**12, 4, 4)
        strings = []
        for p in pts:
            try:
                f, g, w, v = fgwv(p)
            except ValueError:
                strings.append("undefined")
                continue
            quads = (f + g, f - g, w + v, w - v)
            strings.append("boundary" if min(map(abs, quads)) <= SIGN_BOUNDARY_TOL
                           else "".join("+" if q > 0 else "-" for q in quads))
        assert list(_region_codes(pts)) == strings

        sel = np.array(strings) == "++++"
        region = verify_monogamy(VerifyConfig(samples=2**12, seed=4)).regions["++++"]
        assert region["samples"] == sel.sum() > 0
        assert region["sampled_min"] == schmidt_f_batch(pts[sel])["f"].min()

    def test_region_restricted_scan(self):
        # the sampled infimum of the ++++ region sits near its closure at the
        # zero set; the stationary-analysis number is the critical-point min
        crits = minimize_f(MinimizeConfig(starts=200, stationary_starts=48,
                                          face_starts=32, seed=11)).points
        report = verify_monogamy(VerifyConfig(samples=2**14, seed=5), critical_points=crits)
        assert report.passed
        assert report.regions["++++"]["critical_min"] == pytest.approx(0.361084, abs=1e-3)
        assert report.min_value >= -1e-9

    def test_regions_follow_code_order(self):
        crits = minimize_f(MinimizeConfig(starts=50, stationary_starts=16,
                                          face_starts=8, seed=11)).points
        report = verify_monogamy(VerifyConfig(samples=2**12, seed=3), critical_points=crits)
        assert sum(r["critical_count"] for r in report.regions.values()) == len(crits)
        assert list(report.regions) == [n for n in _REGION_NAMES if n in report.regions]

    def test_critical_point_wins_only_when_strictly_lower(self):
        scan = verify_monogamy(VerifyConfig(samples=1, seed=2))
        (region, entry), = scan.regions.items()
        other = next(n for n in _REGION_NAMES if n != region)

        def crit(f, coords, reg):
            return monogamy.CriticalPoint(SchmidtParams(*coords), f, "interior", reg, 0.0, "descent")

        tie = crit(scan.min_value, CORNER, other)
        report = verify_monogamy(VerifyConfig(samples=1, seed=2), critical_points=[tie])
        assert report.argmin == scan.argmin
        assert report.critical_argmin == list(CORNER)
        assert list(report.regions) == [n for n in _REGION_NAMES if n in (region, other)]
        assert report.regions[other] == {"samples": 0, "sampled_min": np.inf, "sampled_argmin": None,
                                         "critical_count": 1, "critical_min": scan.min_value}

        lower = crit(scan.min_value - 1.0, BELL, region)
        report = verify_monogamy(VerifyConfig(samples=1, seed=2), critical_points=[tie, lower])
        assert report.min_value == report.critical_min == scan.min_value - 1.0
        assert report.argmin == report.critical_argmin == list(BELL)
        assert not report.passed
        assert report.regions[region]["sampled_min"] == entry["sampled_min"]

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_empty_scan(self, samples):
        with pytest.raises(ValueError, match="samples"):
            VerifyConfig(samples=samples)

    @pytest.mark.parametrize("name", ["starts", "stationary_starts", "face_starts"])
    def test_rejects_negative_start_counts(self, name):
        with pytest.raises(ValueError, match=name):
            MinimizeConfig(**{name: -1})

    def test_report_serializes(self):
        report = verify_monogamy(VerifyConfig(samples=2**10, seed=1))
        d = report.to_dict()
        assert {"min", "argmin", "samples", "seed", "pass", "regions"} <= set(d)
