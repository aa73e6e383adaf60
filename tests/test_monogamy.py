import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qsteer
from qsteer import cli, monogamy
from qsteer.monogamy import (
    ALL_SIGN_REGIONS,
    DEDUP_RADIUS,
    FACE_TOL,
    GRAD_TOL,
    PASS_TOL,
    RECOVER_RADIUS,
    RECOVER_TOL,
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
    _REGION_NAMES, _fgwv, _grad_f, _labels, _pair_terms, _radicands, _region_ids,
    _residual, _search, _sobol_sphere, _y_terms,
)
from qsteer.randgen import RandomStateSpec
from qsteer.states import density_from_pure, schmidt_points, schmidt_state
from qsteer.steering import permute_qubits

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

    @pytest.mark.parametrize("scale", [1 + 4.5e-10, 1 - 4.5e-10])
    def test_accepted_off_sphere_point_reads_its_direction(self, scale):
        # schmidt_state accepts |p|^2 - 1 up to 1e-9 and normalises, as every bound assumes unit trace
        q = np.array(INTERIOR)
        assert abs(f_pipeline(q * scale) - f_pipeline(q)) <= 1e-14

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


def _pair_norms(x, y, z, h):
    """The kernel's AB, AC, BC pair trace norms uv (1 + R), from its _pair_terms."""
    x, y, z, h = np.atleast_1d(x, y, z, h)
    terms = [_pair_terms(u, v, _y_terms(y)) for u, v in ((x, h), (x, z), (z, h))]
    return [uv * (1.0 + r) for uv, _, _, r in terms]


def _deficit(m):
    """1 - tr(rho^2) of the qubit on axis 1 of (n, 2, 4) state vectors, as the
    sum of squared 2x2 minors (Cauchy-Binet: 2 det rho), free of cancellation."""
    minors = m[:, 0, :, None] * m[:, 1, None, :] - m[:, 0, None, :] * m[:, 1, :, None]
    return np.sum(minors * minors, axis=(1, 2))


def _state_vector_route(pts):
    """The five outputs of schmidt_f_batch from the state vector of each point,
    for coordinates of either sign: SVD pair norms and minor-sum deficits in
    the pure-state cut norm sqrt(2 q) + q and the bounds sqrt((1 + q_steer) q_steered)."""
    psi = np.zeros((len(pts), 2, 2, 2))
    psi[:, 0, 0, 0], psi[:, 1, 0, 0], psi[:, 1, 0, 1], psi[:, 1, 1, 0] = pts.T
    q_a, q_b, q_c = (_deficit(np.moveaxis(psi, k, 1).reshape(-1, 2, 4)) for k in (1, 2, 3))
    n_ab, n_ac, n_bc = _svd_pair_norms(pts)
    out = {
        "h_a_bc": np.sqrt(2 * q_a) + q_a - np.sqrt(q_a * (1 + q_a)),
        "h_ab": n_ab - np.sqrt((1 + q_a) * q_b),
        "h_ac": n_ac - np.sqrt((1 + q_a) * q_c),
        "h_bc": n_bc - np.sqrt((1 + q_b) * q_c),
    }
    return {"f": out["h_a_bc"] - (out["h_ab"] + out["h_ac"] + out["h_bc"]), **out}


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


def _survivors(monkeypatch, stack):
    """Sorted coordinates minimize_f reports when every start ends at a row of stack."""
    def endpoints(p0):
        return stack.copy(), np.zeros(len(stack))

    monkeypatch.setattr(monogamy, "_search", endpoints)
    result = minimize_f(MinimizeConfig(starts=len(stack), face_starts=0))
    return sorted(map(tuple, result.points.tolist()))


def _record(coords, f, regions):
    """A MinimizeResult of the given points, values and region names."""
    n = len(coords)
    codes = [list(_REGION_NAMES).index(name) for name in regions]
    return monogamy.MinimizeResult(
        points=np.array(coords, dtype=float).reshape(n, 4), f=np.array(f, dtype=float),
        location=np.full(n, "interior"), region=np.array(codes, dtype=np.int64), grad_norm=np.zeros(n),
        starts=0, converged=0, dropped=0, zero_sets=_zero_sets())


def _zero_sets(hits=0, max_abs_f=0.0):
    return {name: {"hits": hits, "max_abs_f": max_abs_f} for name in ("z=0", "x=h=0")}


def _rows(result):
    return [result.row(i) for i in range(len(result.points))]


def _fgwv_arrays(pts):
    """f, g, w, v over an (n, 4) stack, and the mask of points where both radicands are defined."""
    cols = np.atleast_2d(np.asarray(pts, dtype=float)).T
    rad, defined = _radicands(cols)
    return (*_fgwv(cols, rad), defined)


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
        # coordinates take both through a sign change, and their octant image
        # (the fold of schmidt_f_batch) has the same pair norms
        pts = np.concatenate([_sobol_sphere(2**16, 4, 3), _fragile_points(rng),
                              _unit(rng.standard_normal((4096, 4)))])
        for got, ref in zip(_pair_norms(*np.abs(pts).T), _svd_pair_norms(pts)):
            assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("points", ["fragile", "signed"])
    def test_batch_matches_state_vector_route(self, rng, points):
        # every output, including signed points, which the kernel folds onto the octant
        pts = _fragile_points(rng) if points == "fragile" else _unit(rng.standard_normal((4096, 4)))
        got, ref = schmidt_f_batch(pts), _state_vector_route(pts)
        for key in ("f", "h_a_bc", "h_ab", "h_ac", "h_bc"):
            assert np.max(np.abs(got[key] - ref[key])) <= 1e-13, key


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

    @pytest.mark.parametrize("entry", [fgwv, sign_region, closed_form_f, lambda p: boundary_f(p, "y")],
                             ids=["fgwv", "sign_region", "closed_form_f", "boundary_f"])
    def test_rejects_a_stack(self, entry):
        # row 0 alone is a boundary point and row 1 alone undefined: a stack
        # used to get row 0's region, or fail to unpack its rows into x, y, z, h
        for p in ([[0.6, 0.0, 0.8, 0.0], [0.5, 0.5, 0.5, 0.5]], [CORNER] * 4, [[0.6, 0.0, 0.8, 0.0]], 1.0):
            with pytest.raises(ValueError, match=r"^expected one \(4,\) Schmidt point, got shape \("):
                entry(p)

    def test_undefined_region_rejected(self):
        # the equal-weight point lies outside the printed expression's real domain
        with pytest.raises(ValueError, match=r"^negative radicand in auxiliary quantities at \(0\.5, 0\.5, 0\.5, 0\.5\)$"):
            sign_region((0.5, 0.5, 0.5, 0.5))


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
        # det B2 has a fixed sign on the octant, so the singular-value sum
        # |c_yy| + sqrt(||B2||_F^2 + 2|det B2|) of each covariance block is smooth
        x, y, z, h = coords

        def block_norm(cxx, cxz, czx, czz, cyy):
            det = cxx * czz - cxz * czx
            return np.abs(cyy) + np.sqrt(cxx**2 + cxz**2 + czx**2 + czz**2 + 2 * np.abs(det))

        s, xh, xz, zh = 1 - 2 * y**2, x * h, x * z, z * h
        blocks = (block_norm(xh * s, 2 * y * xh * h, -2 * y * xh * x, 2 * xh * xh, -xh),
                  block_norm(xz * s, 2 * y * xz * z, -2 * y * xz * x, 2 * xz * xz, -xz),
                  block_norm(zh * s, 2 * y * zh * z, 2 * y * zh * h, -2 * zh * zh, zh))
        for got, ref in zip(_pair_norms(x, y, z, h), blocks):
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


def _smooth_f(p):
    """f from its smooth form on the octant (H_A->BC minus the three pair H),
    written with + * / sqrt only, so that a complex step through it is exact;
    at an edge the principal square root gives the one-sided slope."""
    x, y, z, h = p.T
    r2 = np.sqrt(2.0)
    a, b, c = np.sqrt(z * z + h * h), np.sqrt(x * x + z * z), np.sqrt(x * x + h * h)
    s_a, s_b = np.sqrt(1 + 2 * x * x * a * a), np.sqrt(1 + 2 * h * h * b * b)

    def pair(u, v):
        return u * v * (1 + np.sqrt((1 - 2 * y * y + 2 * u * v) ** 2 + 4 * y * y * (u + v) ** 2))

    h_abc = 2 * x * a + 2 * x * x * a * a - r2 * x * a * s_a
    h_ab = pair(x, h) - r2 * h * b * s_a
    h_ac = pair(x, z) - r2 * z * c * s_a
    h_bc = pair(z, h) - r2 * z * c * s_b
    return h_abc - (h_ab + h_ac + h_bc)


def _complex_step(fun, p):
    """Derivative of fun along each coordinate, stacked on a new last axis."""
    return np.stack([fun(p + 1e-30j * e).imag / 1e-30 for e in np.eye(4)], axis=-1)


@pytest.fixture(scope="module")
def octant_sets():
    """Sobol points, face points (one exact zero) and edge points (two exact zeros)."""
    rng = np.random.default_rng(5)
    face = np.abs(rng.standard_normal((4000, 4)))
    face[np.arange(4000), np.arange(4000) % 4] = 0.0
    edge = np.abs(rng.standard_normal((6000, 4)))
    pairs = np.array(list(itertools.combinations(range(4), 2)))
    edge[np.arange(6000)[:, None], pairs[np.arange(6000) % 6]] = 0.0
    return {"sobol": _sobol_sphere(2**16, 4, 0), "face": _unit(face), "edge": _unit(edge)}


@pytest.mark.parametrize("points", ["sobol", "face", "edge"])
class TestGradient:
    """_grad_f against a complex step of the smooth form, including the one-sided edge slopes."""

    def test_smooth_form_is_f(self, octant_sets, points):
        p = octant_sets[points]
        assert np.max(np.abs(_smooth_f(p) - schmidt_f_batch(p)["f"])) <= 1e-13

    def test_matches_complex_step(self, octant_sets, points):
        p = octant_sets[points]
        ref = _complex_step(_smooth_f, p)
        err = np.max(np.abs(_grad_f(p) - ref), axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))

    def test_hessian_is_symmetric(self, octant_sets, points):
        hess = _complex_step(_grad_f, octant_sets[points])
        asym = np.max(np.abs(hess - hess.transpose(0, 2, 1)), axis=(1, 2))
        assert np.all(asym <= 1e-12 * np.max(np.abs(hess), axis=(1, 2)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [
        f_pipeline, fgwv, sign_region, closed_form_f, lambda p: boundary_f(p, "y"),
        schmidt_points, schmidt_state, lambda p: schmidt_state(np.array([CORNER, p])),
    ], ids=["f_pipeline", "fgwv", "sign_region", "closed_form_f", "boundary_f", "schmidt_points",
            "schmidt_state", "schmidt_stack"])
    def test_rejects_non_finite_coordinates(self, entry, bad):
        # a NaN fails every comparison, so it used to pass the range checks; a
        # tuple and an array point both print plain floats, never np.float64(...)
        for p in ((bad, 0.0, 0.0, 1.0), np.array([bad, 0.0, 0.0, 1.0])):
            with pytest.raises(ValueError, match="finite") as err:
                entry(p)
            assert "np.float64" not in str(err.value)


@pytest.fixture(scope="module")
def search():
    return minimize_f(MinimizeConfig(starts=364, face_starts=48, seed=11))


class TestLabels:
    """The region/location rule of minimize_f on constructed points."""

    # f+g changes sign once between these interior points; f-g, w+v and w-v
    # stay above 1e-2 and every point of the path stays defined
    PATH = np.array([(0.2434, 0.9476, 0.1761, 0.1087), (0.2764, 0.9441, 0.1721, 0.0522)])

    def test_interior_point(self):
        p = _unit(np.array([[0.089, 0.09, 0.878, 0.461]]))
        assert _fgwv_arrays(p)[4].all() and np.abs(_quads(p)).min() > 1e-3
        region, location = _labels(p)
        assert (_REGION_NAMES[region[0]], location[0]) == ("++++", "interior")

    def test_near_sign_boundary_is_a_region_boundary(self):
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
        # a sign pattern at the scan tolerance, a boundary at FACE_TOL; off the
        # faces the location is interior whatever the region
        assert _REGION_NAMES[_region_ids(p)[0]] == "+---"
        region, location = _labels(p)
        assert (_REGION_NAMES[region[0]], location[0]) == ("boundary", "interior")

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
        rec = search.recover(INTERIOR, 0.361084)
        hit = rec["found"]
        assert isinstance(hit, dict) and rec["matched"] is True
        assert hit["f"] == pytest.approx(0.361084, abs=1e-4)
        assert hit["region"] == "++++"

    def test_recovers_face_saddle(self, search):
        rec = search.recover(BELL, 0.780239)
        hit = rec["found"]
        assert isinstance(hit, dict) and rec["matched"] is True
        assert hit["f"] == pytest.approx(0.780239, abs=1e-5)
        assert hit["location"] == "x=0"

    def test_recovers_zero_corner(self, search):
        # the corner lies on both zero sets; it is found on the first, not as a
        # row: no row lies within RECOVER_RADIUS of it
        assert search.recover(CORNER, 0.0) == {"target": list(CORNER), "found": "z=0", "matched": True}
        assert np.linalg.norm(search.points - np.array(CORNER), axis=1).min() > RECOVER_RADIUS

    def test_zero_sets_are_counted_not_listed(self, search):
        # no row lies on a zero set; the starts that ended there are counted,
        # each on every set that holds it, and f vanishes there
        assert not monogamy._on_zero_sets(search.points).any()
        assert search.points[:, 2].min() > FACE_TOL
        assert list(search.zero_sets) == ["z=0", "x=h=0"]
        for entry in search.zero_sets.values():
            assert entry["hits"] > 0 and 0.0 <= entry["max_abs_f"] <= 1e-12
        assert search.zero_sets["z=0"]["hits"] + len(search.points) <= search.converged
        # off the zero sets a fixture is found as a row; on one, as the set's name
        assert isinstance(search.recover(INTERIOR, 0.0)["found"], dict)
        assert isinstance(search.recover(BELL, 0.0)["found"], dict)
        assert search.recover((0.0, 0.6, 0.0, 0.8), 0.0)["found"] == "z=0"
        assert search.recover((0.0, 0.6, 0.8, 0.0), 0.0)["found"] == "x=h=0"

    def test_zero_set_lookup_needs_a_hit(self):
        # a zero set no start ended on recovers nothing, on its own or as a row
        result = _record([BELL], [0.780239], ["boundary"])
        result.zero_sets["z=0"]["hits"] = 1
        assert result.recover(CORNER, 0.0) == {"target": list(CORNER), "found": "z=0", "matched": True}
        # found on a zero set, f is taken as 0: it matches within RECOVER_TOL of 0
        assert 2**-14 < RECOVER_TOL < 2**-13
        assert [result.recover(CORNER, e)["matched"] for e in (-RECOVER_TOL, 2**-14, 2**-13)] == [True, True, False]
        target = (0.0, 0.6, 0.8, 0.0)  # on x = h = 0 only
        assert result.recover(target, 0.0) == {"target": list(target), "found": None, "matched": False}
        result.zero_sets["z=0"]["hits"] = 0
        assert result.recover(CORNER, 0.0) == {"target": list(CORNER), "found": None, "matched": False}

    def test_all_points_on_sphere_and_nonnegative(self, search):
        for q, f in zip(search.points, search.f):
            assert abs(q @ q - 1.0) < 1e-10
            schmidt_points(q)
            assert f >= -1e-9
        assert search.dropped + search.converged == search.starts

    def test_recover_matches_point_loop(self, search, rng):
        # off the zero sets: the row of the closest point within RECOVER_RADIUS,
        # the last one among equal distances. The targets are the fixtures off
        # the zero sets, every row, and every row moved 0.2, 0.8 and 1.5 radii
        def loop(target):
            best, best_d = None, RECOVER_RADIUS
            for i, q in enumerate(search.points):
                d = float(np.linalg.norm(q - np.asarray(target, dtype=float)))
                if d <= best_d:
                    best, best_d = i, d
            return None if best is None else search.row(best)

        moves = [s * RECOVER_RADIUS * _unit(rng.standard_normal((1, 4)))[0] for s in (0.2, 0.8, 1.5)]
        targets = [INTERIOR, BELL, *search.points, *(q + m for q in search.points for m in moves)]
        found = [search.recover(target, 0.0)["found"] for target in targets]
        assert found == [loop(target) for target in targets]
        assert sum(f is None for f in found) == len(search.points)  # the moves of 1.5 radii

    def test_recover_ties(self):
        # rows 0 and 2 share their coordinates; their values tell them apart
        coords = [BELL, (1.0, 0.0, 0.0, 0.0), BELL, (0.0, 0.0, 1.0, 0.0), INTERIOR]
        result = _record(coords, np.arange(5.0), ["++++"] * 5)
        assert result.recover(BELL, 2.0) == {"target": list(BELL), "found": result.row(2), "matched": True}
        assert result.row(2) != result.row(0)
        # a found row matches within RECOVER_TOL of its f
        assert [result.recover(BELL, 2.0 + e)["matched"] for e in (-2**-14, 2**-14, 2**-13, -2**-13)] == [
            True, True, False, False]
        # edge rows 0 and 1 are exactly RECOVER_RADIUS from the target (a diff of
        # one coordinate, r - 0, and the square root of r * r is r) and row 2 a
        # step beyond: the radius is inclusive, the last of the two is found, and
        # a closer row wins wherever it stands
        r, target = RECOVER_RADIUS, (0.6, 0.8, 0.0, 0.0)
        assert np.sqrt(r * r) == r
        edge = [(0.6, 0.8, r, 0.0), (0.6, 0.8, 0.0, r), (0.6, 0.8, np.nextafter(r, 1.0), 0.0)]
        assert _record(edge, np.arange(3.0), ["++++"] * 3).recover(target, 0.0)["found"]["f"] == 1.0
        result = _record([(0.6, 0.8, 0.0, r / 2), *edge], np.arange(4.0), ["++++"] * 4)
        assert result.recover(target, 0.0)["found"] == result.row(0)
        assert _record(edge[2:], [0.0], ["++++"]).recover(target, 0.0)["found"] is None
        assert _record([], [], []).recover(CORNER, 0.0)["found"] is None

    def test_search_block_reads_the_record(self, search):
        # to_dict is the search block of the verify-appendix JSON, key for key
        block = search.to_dict()
        assert list(block) == ["starts", "converged", "dropped", "dropped_grad_norms",
                               "zero_sets", "critical_points", "pass"]
        counts = [search.starts, search.converged, search.dropped]
        assert [block["starts"], block["converged"], block["dropped"]] == counts
        assert block["zero_sets"] == search.zero_sets
        assert block["critical_points"] == _rows(search)
        assert block["pass"] is search.passed is True

    def test_rows_read_the_arrays(self, search):
        # row(i) is point i as the verify-appendix JSON lists it, field for field
        rows = _rows(search)
        assert all(list(r) == ["params", "f", "location", "region", "grad_norm"] for r in rows)
        assert [r["params"] for r in rows] == search.points.tolist()
        assert [(r["f"], r["grad_norm"]) for r in rows] == list(zip(search.f.tolist(), search.grad_norm.tolist()))
        assert ([(r["location"], r["region"]) for r in rows]
                == list(zip(search.location, _REGION_NAMES[search.region])))

    def test_empty_search(self):
        empty = minimize_f(MinimizeConfig(starts=0, face_starts=0))
        assert empty.points.shape == (0, 4) and len(empty.f) == len(empty.region) == 0
        assert empty.zero_sets == _zero_sets()
        assert empty.recover(CORNER, 0.0) == {"target": list(CORNER), "found": None, "matched": False}
        assert empty.recover(INTERIOR, 0.361084)["found"] is None
        # no row and no hit: the search block lists nothing and passes
        assert empty.to_dict() == {
            "starts": 0, "converged": 0, "dropped": 0,
            "dropped_grad_norms": {"count": 0, "min": None, "median": None, "max": None},
            "zero_sets": _zero_sets(), "critical_points": [], "pass": True,
        }

    @pytest.mark.parametrize("toward", ["up", "down", "alternating"])
    def test_report_ignores_last_bit_of_batch_f(self, search, monkeypatch, toward):
        # schmidt_f_batch's f moved by one ulp at every point (alternating: up
        # and down by row) leaves every reported field and the zero sets alone
        exact = monogamy.schmidt_f_batch

        def nudged(params):
            out = exact(params)
            n = len(out["f"])
            out["f"] = np.nextafter(out["f"], {"up": np.inf, "down": -np.inf,
                                               "alternating": np.where(np.arange(n) % 2, np.inf, -np.inf)}[toward])
            return out

        monkeypatch.setattr(monogamy, "schmidt_f_batch", nudged)
        moved = minimize_f(MinimizeConfig(starts=364, face_starts=48, seed=11))
        assert _rows(moved) == _rows(search)
        assert moved.zero_sets == search.zero_sets

    def test_dedup_keeps_the_first_point_in_coordinate_order(self, monkeypatch):
        # a chain a-b-c with gaps of 0.6 r (a and c 1.2 r apart) and a tight
        # cluster after a all go to a; the isolated point e stays
        r = DEDUP_RADIUS
        a = np.array([0.5, 0.5, 0.5, 0.5])
        t = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)  # along the sphere, x rising
        chain = [a + k * 0.6 * r * t for k in (1, 2)]
        cluster = [a + r * np.array([0.05, 0.01, -0.03, 0.0]), a + r * np.array([0.02, -0.04, 0.01, 0.03])]
        e = np.array([0.3, 0.2, 0.6, 0.7])
        stack = _unit(np.array([*chain, e, *cluster, a]))
        a, e = stack[-1], stack[2]
        assert 0.55 * r < np.linalg.norm(stack[0] - a) < 0.65 * r
        assert 1.15 * r < np.linalg.norm(stack[1] - a) < 1.25 * r
        assert 0.55 * r < np.linalg.norm(stack[1] - stack[0]) < 0.65 * r
        assert _survivors(monkeypatch, stack) == sorted([tuple(a), tuple(e)])

    def test_dedup_matches_point_loop(self, rng, monkeypatch):
        # clusters of random size and spread around r: the rule one point at a
        # time, in coordinate order, against every earlier point
        r = DEDUP_RADIUS
        centers = _unit(np.abs(rng.standard_normal((40, 4))) + 0.1)
        stack = [c + rng.uniform(0.0, 1.5 * r) * _unit(rng.standard_normal((1, 4)))[0]
                 for c in centers for _ in range(rng.integers(1, 5))]
        stack = _unit(np.array(stack))
        ordered = sorted(map(tuple, stack))
        expected = [q for j, q in enumerate(ordered)
                    if all(np.linalg.norm(np.subtract(q, e)) > r for e in ordered[:j])]
        assert _survivors(monkeypatch, stack) == expected
        assert len(centers) < len(expected) < len(stack)

    def test_rows_run_in_value_order(self, search):
        # one row per isolated critical value, so row 0 is the minimum
        keys = [round(f, 6) + 0.0 for f in search.f.tolist()]
        assert keys == [0.361084, 0.707107, 0.780239]
        assert search.f[0] == search.f.min()

    def test_value_ties_run_in_coordinate_order(self, monkeypatch):
        # values equal to 6 decimals, falling below them in coordinate order:
        # the rows still run in coordinate order
        stack = _unit(np.array([(0.3, 0.5, 0.5, 0.6), (0.2, 0.6, 0.5, 0.6), (0.3, 0.4, 0.6, 0.6)]))
        monkeypatch.setattr(monogamy, "_search", lambda p0: (stack.copy(), np.zeros(len(stack))))
        monkeypatch.setattr(monogamy, "f_components", lambda p: {"f": 0.25 - 1e-9 * np.arange(len(p))})
        result = minimize_f(MinimizeConfig(starts=len(stack), face_starts=0))
        assert result.points.tolist() == sorted(stack.tolist())

    def test_dropped_starts_carry_gradient_norms(self, search):
        assert search.converged + search.dropped == search.starts
        assert search.dropped_grad_norms.shape == (search.dropped,)
        assert np.all(search.dropped_grad_norms > GRAD_TOL)
        summary = search.to_dict()["dropped_grad_norms"]
        assert summary["count"] == search.dropped
        if search.dropped:
            assert summary["min"] <= summary["median"] <= summary["max"]

    def test_starts_cut_short_are_dropped(self, monkeypatch):
        # the default search drops no start, so cut every start after one step;
        # free and face starts alike are counted, none vanishes
        monkeypatch.setattr(monogamy, "MAX_ITER", 1)
        result = minimize_f(MinimizeConfig(starts=50, face_starts=8, seed=3))
        assert result.starts == 50 + 4 * 8
        assert result.dropped > 0 and result.converged + result.dropped == result.starts
        assert result.dropped_grad_norms.shape == (result.dropped,)
        assert np.all(result.dropped_grad_norms > GRAD_TOL)
        summary = result.to_dict()["dropped_grad_norms"]
        assert summary["count"] == result.dropped
        assert summary["min"] <= summary["median"] <= summary["max"]

    def test_grad_norms_hold_at_returned_points(self, search):
        # a reported norm is the residual at the returned unit-sphere point, not
        # one taken before a later move; every point holds its faces
        p, norms = search.points, search.grad_norm
        recomputed = np.linalg.norm(_residual(p, _grad_f(p)), axis=1)
        assert_allclose(norms, recomputed, rtol=0, atol=1e-9)
        assert np.all(norms <= GRAD_TOL)

    def test_points_are_distinct(self, search):
        p = search.points
        dist = np.linalg.norm(p[:, None] - p[None], axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > DEDUP_RADIUS

    def test_values_are_pipeline_values(self, search):
        for q, f in zip(search.points, search.f):
            assert f == f_pipeline(q)

    def test_labels_match_single_point_rule(self, search):
        for i, p in enumerate(search.points):
            region = _REGION_NAMES[_region_ids(p[None], tol=FACE_TOL)[0]]
            faces = [f"{c}=0" for c, v in zip("xyzh", p) if v <= FACE_TOL]
            location = faces[0] if faces else "interior"
            assert (search.row(i)["region"], search.location[i]) == (region, location)
        assert np.array_equal(search.region, _region_ids(search.points, tol=FACE_TOL))
        assert search.location.tolist() == ["y=0", "y=0", "x=0"]


class TestSearchReach:
    """What Newton alone finds: every isolated critical value, and the fixtures at the CI config."""

    @pytest.mark.parametrize("seed", range(5))
    def test_default_search_finds_every_critical_value(self, seed):
        result = minimize_f(MinimizeConfig(seed=seed))
        assert [round(v, 6) + 0.0 for v in result.f.tolist()] == [0.361084, 0.707107, 0.780239]
        assert all(entry["hits"] > 0 for entry in result.zero_sets.values())

    def test_ci_config_recovers_every_fixture(self):
        # the appendix smoke run's 16 free and 4 x 16 face starts, matched as
        # verify-appendix matches: the corner through its zero set
        for seed in range(40):
            result = minimize_f(MinimizeConfig(starts=16, face_starts=16, seed=seed))
            found = [result.recover(coords, expected) for coords, expected, _ in cli.APPENDIX_FIXTURES]
            assert all(r["matched"] for r in found), seed
            assert [isinstance(r["found"], str) for r in found] == [False, False, True], seed

    def test_closed_form_critical_points(self):
        # two of the three isolated critical points have closed forms: on the
        # y = 0 face f(1/sqrt2, 0, 1/sqrt2, 0) = 1/sqrt2, and on the x = 0 face
        # at z = h = 1/sqrt2 (t = zh = 1/2, boundary_f's x-face form)
        # f = sqrt2 - 3/2 + sqrt3/2
        exact = [((R2, 0.0, R2, 0.0), R2), ((0.0, 0.0, R2, R2), np.sqrt(2) - 1.5 + np.sqrt(3) / 2)]
        result = minimize_f()
        for row, (point, value) in enumerate(exact, start=1):
            assert abs(f_pipeline(point) - value) <= 1e-15
            assert abs(result.f[row] - value) <= 1e-14
            assert np.max(np.abs(result.points[row] - point)) <= 1e-9


class TestExactFaces:
    """A point on a face of the octant has an exact 0 in its face coordinate."""

    @pytest.fixture
    def face_starts(self, rng):
        u = np.abs(rng.standard_normal((12, 4)))
        zero = np.zeros(u.shape, dtype=bool)
        zero[np.arange(12), np.arange(12) % 4] = True
        zero[8:, 0] = True  # rows 8-11 sit on an edge: two exact zeros
        u[zero] = 0.0
        return _unit(u), zero

    def test_gradient_vanishes_along_a_zero_coordinate(self, face_starts):
        # the face-tangent gradient is exactly 0 on every held coordinate
        u, zero = face_starts
        g = _grad_f(u)
        assert np.any(g[zero] != 0.0)  # one-sided partials into the octant; f is even in y
        assert np.all(_residual(u, g)[zero] == 0.0)

    def test_newton_keeps_a_zero_coordinate(self, face_starts):
        u, zero = face_starts
        p, rnorm = _search(u)
        assert np.all(p[zero] == 0.0)
        assert np.all(rnorm <= GRAD_TOL)
        assert_allclose(np.linalg.norm(p, axis=1), 1.0, rtol=0, atol=1e-15)


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

    def test_partial_last_block_does_not_change_report(self, monkeypatch):
        config = VerifyConfig(samples=2**14 + 3, seed=2)
        monkeypatch.setattr(monogamy, "SCAN_CHUNK", 2**15)
        one_block = json.dumps(verify_monogamy(config).to_dict())
        monkeypatch.setattr(monogamy, "SCAN_CHUNK", 2**10)  # 16 full blocks and one of 3 samples
        assert json.dumps(verify_monogamy(config).to_dict()) == one_block

    def test_region_counts_are_pinned(self):
        # the counts at seed 0, which no change of the code route may move: a
        # drift shared by _region_ids and the stacked route in TestScanKernels shows here
        report = verify_monogamy(VerifyConfig(samples=2**14, seed=0))
        assert {name: r["samples"] for name, r in report.regions.items()} == {
            "++++": 3881, "+-+-": 25, "+---": 61, "--+-": 43, "----": 444, "undefined": 11930}

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
        assert list(_REGION_NAMES[_region_ids(pts)]) == strings

        sel = np.array(strings) == "++++"
        region = verify_monogamy(VerifyConfig(samples=2**12, seed=4)).regions["++++"]
        assert region["samples"] == sel.sum() > 0
        assert region["sampled_min"] == schmidt_f_batch(pts[sel])["f"].min()

    def test_region_restricted_scan(self):
        # the sampled infimum of the ++++ region sits near its closure at the
        # zero set; the stationary-analysis number is the search's lowest ++++ row
        crits = minimize_f(MinimizeConfig(starts=248, face_starts=32, seed=11))
        report = verify_monogamy(VerifyConfig(samples=2**14, seed=5))
        assert report.passed and crits.passed
        in_region = [c["f"] for c in crits.to_dict()["critical_points"] if c["region"] == "++++"]
        assert min(in_region) == pytest.approx(0.361084, abs=1e-3)
        assert report.min_value >= -1e-9

    def test_regions_follow_code_order(self):
        report = verify_monogamy(VerifyConfig(samples=2**12, seed=3))
        assert sum(r["samples"] for r in report.regions.values()) == report.samples
        assert list(report.regions) == [n for n in _REGION_NAMES if n in report.regions]
        # the regions table and the minimum describe the samples alone
        lowest = min(report.regions.values(), key=lambda r: r["sampled_min"])
        assert (lowest["sampled_min"], lowest["sampled_argmin"]) == (report.min_value, report.argmin)

    def test_zero_sets_gate_the_pass(self):
        # the search passes iff every zero set's pipeline |f| is within |PASS_TOL|
        # and every row's f is at or above PASS_TOL; a NaN fails either test
        def passed(max_abs_f, f):
            result = _record([BELL, INTERIOR], [f, 0.361084], ["boundary", "++++"])
            result.zero_sets["x=h=0"].update(hits=1, max_abs_f=max_abs_f)
            assert result.to_dict()["pass"] is result.passed
            return result.passed

        assert passed(-PASS_TOL, PASS_TOL)
        for max_abs_f in (np.nextafter(-PASS_TOL, 1.0), np.nan):
            assert not passed(max_abs_f, PASS_TOL)
        for f in (np.nextafter(PASS_TOL, -np.inf), np.nan):
            assert not passed(-PASS_TOL, f)

    def test_samples_stop_at_sobol_limit(self):
        # scipy's Sobol sequence gives at most 2^30 points
        assert VerifyConfig(samples=2**30).samples == 2**30
        with pytest.raises(ValueError, match=r"samples must be >= 1 and at most 2\*\*30"):
            VerifyConfig(samples=2**30 + 1)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_empty_scan(self, samples):
        with pytest.raises(ValueError, match="samples"):
            VerifyConfig(samples=samples)

    @pytest.mark.parametrize("config,name", [
        *(pytest.param(MinimizeConfig, n, id=n) for n in ("starts", "face_starts", "seed")),
        pytest.param(VerifyConfig, "seed", id="verify-seed"),
        pytest.param(RandomStateSpec, "seed", id="random-seed"),
    ])
    def test_rejects_negative_start_counts(self, config, name):
        with pytest.raises(ValueError, match=name):
            config(**{name: -1})

    @pytest.mark.parametrize("config,name", [
        *(pytest.param(MinimizeConfig, n, id=n) for n in ("starts", "face_starts", "seed")),
        *(pytest.param(VerifyConfig, n, id=f"verify-{n}") for n in ("samples", "seed")),
        *(pytest.param(RandomStateSpec, n, id=f"random-{n}") for n in ("seed", "count")),
    ])
    def test_rejects_non_integer_fields(self, config, name):
        # a float used to construct and fail later, as a slice bound or a range
        # length, and a bool passed as 1 or 0
        for bad in (2.5, 2.0, "2", True, False, np.True_):
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
                config(**{"seed": 1, name: bad})
        assert getattr(config(**{"seed": 1, name: np.int64(2)}), name) == 2

    def test_numpy_integer_fields_run(self):
        # numpy integers pass the check and give what Python integers give
        assert (verify_monogamy(VerifyConfig(samples=np.int64(64), seed=np.uint8(1))).to_dict()
                == verify_monogamy(VerifyConfig(samples=64, seed=1)).to_dict())
        got = minimize_f(MinimizeConfig(starts=np.int32(3), face_starts=np.int64(1), seed=np.uint16(2)))
        want = minimize_f(MinimizeConfig(starts=3, face_starts=1, seed=2))
        assert got.to_dict() == want.to_dict()

    def test_report_serializes(self):
        # the scan's block carries no critical points: they are the search's
        report = verify_monogamy(VerifyConfig(samples=2**10, seed=1))
        d = report.to_dict()
        assert list(d) == ["min", "argmin", "samples", "seed", "pass", "generator", "regions"]


def _row_major_sobol(n, dim, seed):
    """The documented sample recipe on row-major (n, dim) points."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    u = qmc.Sobol(d=dim, scramble=True, seed=seed).random_base2(int(np.ceil(np.log2(max(n, 2)))))[:n]
    g = np.abs(ndtri(np.clip(u, 1e-12, 1.0 - 1e-12)))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _printed_fgwv(params):
    """f, g, w, v and the defined mask, with the printed radicands as written."""
    x, y, z, h = np.asarray(params, dtype=float).T
    y2 = y * y
    common = 1.0 - 2.0 * y2 + 2.0 * x * x
    g_rad = h * h * (1.0 + 4.0 * y2 * y2 - 4.0 * y2 * (1.0 + 2.0 * x * h + h * h)
                     - 4.0 * h * (x + (z * z - 1.0) * h + h**3))
    v_rad = z * z * (1.0 + 4.0 * y2 * y2 - 4.0 * y2 * (1.0 + 2.0 * x * z + z * z)
                     - 4.0 * z * (x + (h * h - 1.0) * z + z**3))
    defined = (g_rad >= monogamy.RADICAND_TOL) & (v_rad >= monogamy.RADICAND_TOL)
    return (x * h * common, x * np.sqrt(np.clip(g_rad, 0.0, None)),
            x * z * common, x * np.sqrt(np.clip(v_rad, 0.0, None)), defined)


def _plain_schmidt_f(params):
    """The five outputs of schmidt_f_batch as the plain expressions of its documented
    smooth form, each product and sum in the order the docstring writes it."""
    x, y, z, h = np.abs(np.atleast_2d(np.asarray(params, dtype=float))).T
    a, b, c = np.sqrt(z * z + h * h), np.sqrt(x * x + z * z), np.sqrt(x * x + h * h)
    s_a, s_b = np.sqrt(1.0 + 2.0 * x * x * a * a), np.sqrt(1.0 + 2.0 * h * h * b * b)

    def pair_norm(u, v):  # uv (1 + R), R = |(1 - 2y^2 + 2uv, 2y (u + v))|
        r_a, r_b = 1.0 - 2.0 * y * y + 2.0 * (u * v), 2.0 * y * (u + v)
        return u * v * (1.0 + np.sqrt(r_a * r_a + r_b * r_b))

    xa, hb, zc, sq2 = x * a, h * b, z * c, np.sqrt(2.0)
    out = {"h_a_bc": 2.0 * xa + 2.0 * xa * xa - sq2 * xa * s_a,
           "h_ab": pair_norm(x, h) - sq2 * hb * s_a,
           "h_ac": pair_norm(x, z) - sq2 * zc * s_a,
           "h_bc": pair_norm(z, h) - sq2 * zc * s_b}
    return {"f": out["h_a_bc"] - (out["h_ab"] + out["h_ac"] + out["h_bc"]), **out}


def _stacked_region_ids(params, tol):
    """Region codes from the four quads stacked into an (n, 4) array and an integer matmul."""
    f, g, w, v, defined = _printed_fgwv(params)
    quads = np.stack([f + g, f - g, w + v, w - v], axis=1)
    ids = (quads < 0) @ np.array([8, 4, 2, 1])
    ids[(np.abs(quads) <= tol).any(axis=1)] = 16
    ids[~defined] = 17
    return ids


class TestScanKernels:
    """The column-major scan kernels give the bits of their row-major recipes."""

    @pytest.mark.parametrize("n", [2**14, 1000])
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sobol_sphere_is_the_row_major_recipe(self, n, dim, seed):
        got = _sobol_sphere(n, dim, seed)
        assert np.array_equal(got, _row_major_sobol(n, dim, seed))
        assert got.T.flags.c_contiguous  # each coordinate one contiguous row

    @pytest.mark.parametrize("tol", [SIGN_BOUNDARY_TOL, FACE_TOL])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_region_ids_match_stacked_route(self, rng, tol, order):
        # points with x ~ 1e-14 have every quad within 1e-13 of zero
        near = np.abs(rng.standard_normal((500, 4)))
        near[:, 0] = 1e-14 * rng.random(500)
        near[:, 1:] /= np.linalg.norm(near[:, 1:], axis=1, keepdims=True)
        pts = np.concatenate([_sobol_sphere(2**14, 4, 0), _fragile_points(rng), near])
        pts = np.asarray(pts, order=order)
        got, ref = _region_ids(pts, tol), _stacked_region_ids(pts, tol)
        assert np.array_equal(got, ref)
        assert set(np.unique(ref[-500:])) == {16} and {16, 17} <= set(np.unique(ref))
        for a, b in zip(_fgwv_arrays(pts), _printed_fgwv(pts)):
            assert np.array_equal(a, b)

    def test_schmidt_f_batch_is_the_plain_form(self, rng):
        # every output has the bits of the plain expressions: C- and F-ordered
        # stacks, single rows, signed points, faces, edges and both zero sets
        # (_fragile_points), the empty stack, and off-sphere rows whose x^2 and
        # h^2 are subnormal while A and B are near 1e154, where a product such
        # as (2x) x and 2 (x x) rounds apart and S_a and S_b show it
        n = 1000
        wide = np.stack([10.0 ** rng.uniform(-155.5, -154, n), rng.uniform(0, 0.5, n),
                         10.0 ** rng.uniform(153, 153.9, n), 10.0 ** rng.uniform(-155.5, -154, n)], axis=1)
        x, _, z, _ = wide.T
        assert np.any(np.sqrt(1.0 + 2.0 * x * x * z * z) != np.sqrt(1.0 + 2.0 * (x * x) * z * z))
        pts = np.concatenate([_sobol_sphere(2**12, 4, 1), _fragile_points(rng),
                              _unit(rng.standard_normal((2000, 4))), wide, [CORNER, BELL, INTERIOR]])
        for stack in [pts, np.asfortranarray(pts), np.empty((0, 4)), *pts[:: len(pts) // 8]]:
            got, ref = schmidt_f_batch(stack), _plain_schmidt_f(stack)
            for key in ("f", "h_a_bc", "h_ab", "h_ac", "h_bc"):
                assert np.array_equal(got[key], ref[key]), key
                assert got[key].tobytes() == ref[key].tobytes(), key  # signed zeros too

    @pytest.mark.parametrize("tol", [SIGN_BOUNDARY_TOL, FACE_TOL])
    def test_region_ids_without_defined_points_or_with_only_them(self, rng, tol):
        # f, g, w, v and the quads run only on the defined points: none, all, or an empty stack
        pts = np.concatenate([_sobol_sphere(2**12, 4, 2), _fragile_points(rng)])
        undefined = _stacked_region_ids(pts, tol) == 17
        assert undefined.any() and not undefined.all()
        for stack in (pts[undefined], pts[~undefined], np.empty((0, 4))):
            got, ref = _region_ids(stack, tol), _stacked_region_ids(stack, tol)
            assert np.array_equal(got, ref) and got.dtype == np.int64
