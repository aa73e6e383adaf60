"""Numerical study of the steering monogamy gap on the pure-state family.

The object of interest is

    f(x, y, z, h) = H_{A->BC} - (H_{A->B} + H_{A->C} + H_{B->C})

evaluated on the family x|000> + y|100> + z|101> + h|110> over the unit
3-sphere octant (all coordinates nonnegative). Monogamy of steering is the
claim f >= 0 everywhere on that domain. This module provides:

* f_pipeline      - evaluation through the generic steering stack (the
                    source of truth); f_components takes point stacks,
* schmidt_f_batch - an independent, SVD-free vectorized route for bulk
                    sampling/optimization: each pair trace norm is the exact
                    |c_yy| + sqrt(||B2||_F^2 + 2|det B2|) of the real family,
                    within ~1e-15 of an SVD (tests: 1e-13, and f_pipeline),
* fgwv / sign_region - the auxiliary quantities whose four absolute values
                    split the domain into 16 sign regions,
* closed_form_f   - a literal transcription of the published single-expression
                    form of f (unreliable away from special points; kept for
                    cross-validation only),
* boundary_f      - exact closed forms of f restricted to the x=0 / y=0 /
                    z=0 / h=0 faces,
* minimize_f      - multi-start search for constrained critical points
                    (descent for minima plus a projected-gradient-norm phase
                    for saddle/maximum-type stationary points),
* verify_monogamy - quasi-random sphere scan with per-region minima and a
                    PASS/FAIL verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .states import SchmidtParams, density_from_pure, schmidt_state
from .states import partial_trace  # noqa: F401  kept: perfbench/spans.py patches this name here
from .steering import h_pair  # noqa: F401  kept: perfbench/spans.py patches this name here
from .steering import steering_batch

__all__ = [
    "ALL_SIGN_REGIONS",
    "CriticalPoint",
    "MinimizeConfig",
    "MinimizeResult",
    "VerifyConfig",
    "VerifyReport",
    "f_pipeline",
    "f_components",
    "schmidt_f_batch",
    "fgwv",
    "sign_region",
    "closed_form_f",
    "boundary_f",
    "minimize_f",
    "verify_monogamy",
]

ALL_SIGN_REGIONS = ["".join(s) for s in itertools.product("+-", repeat=4)]
_REGION_NAMES = np.array(ALL_SIGN_REGIONS + ["boundary", "undefined"], dtype=object)

RADICAND_TOL = -1e-12  # rounding below 0 in a g/v radicand that still counts as defined
SIGN_BOUNDARY_TOL = 1e-12  # |f+-g| or |w+-v| this small is a region boundary, not a sign
FACE_TOL = 1e-6  # face/boundary slack for critical points, resolved only to ~1e-8
GRAD_TOL = 1e-10  # descent convergence: central-difference gradient norm at a critical point
STATIONARY_TOL = 1e-6  # Nelder-Mead convergence: gradient norm at a stationary critical point
MAX_ITER = 400  # descent iterations before a search start counts as dropped
FD_STEP = 1e-6  # central-difference step of the search phases, well above f's ~1e-16 rounding
DEDUP_RADIUS = 1e-6  # refined points closer than this in parameter space are one critical point
PASS_TOL = -1e-9  # scan passes at or above this; pipeline values on f's zero set reach ~-1e-12

_COORDS = ("x", "y", "z", "h")


# ---------------------------------------------------------------------------
# pipeline and vectorized evaluation


def f_pipeline(p) -> float:
    """Monogamy gap at one parameter point, via the generic steering stack."""
    return f_components(p)["f"]


def f_components(p) -> dict:
    """The gap H_A->BC - (H_AB + H_AC + H_BC) together with its four H ingredients.

    A point (4,) gives floats; an (n, 4) stack gives arrays from one
    steering_batch call, each row bit-identical to its point evaluated alone.
    """
    psi = schmidt_state(p)
    rep = steering_batch(density_from_pure(np.atleast_2d(psi)))
    comps = {
        "f": rep.h_a_bc - rep.h_tot,
        "h_a_bc": rep.h_a_bc,
        "h_ab": rep.pair_h["AB"],
        "h_ac": rep.pair_h["AC"],
        "h_bc": rep.pair_h["BC"],
    }
    return comps if psi.ndim == 2 else {k: float(v[0]) for k, v in comps.items()}


def _block_norm(cxx, cxz, czx, czz, cyy):
    """Trace norm of [[cxx, 0, cxz], [0, cyy, 0], [czx, 0, czz]]: |cyy| plus the
    singular-value sum sqrt(||B2||_F^2 + 2|det B2|) of the x/z block B2."""
    det = cxx * czz - cxz * czx
    return np.abs(cyy) + np.sqrt(cxx * cxx + cxz * cxz + czx * czx + czz * czz + 2.0 * np.abs(det))


def _pair_norms(x, y, z, h):
    """Exact AB, AC, BC spatial covariance trace norms from coordinate arrays.

    Entries 0.5 * (theta_ij - theta_i0 theta_0j) in (xx, xz, zx, zz, yy) order,
    reduced with x^2 + y^2 + z^2 + h^2 = 1; xy, yx, yz, zy vanish (real states).
    """
    s = 1.0 - 2.0 * y * y
    xh, xz, zh = x * h, x * z, z * h
    n_ab = _block_norm(xh * s, 2.0 * y * xh * h, -2.0 * y * xh * x, 2.0 * xh * xh, -xh)
    n_ac = _block_norm(xz * s, 2.0 * y * xz * z, -2.0 * y * xz * x, 2.0 * xz * xz, -xz)
    n_bc = _block_norm(zh * s, 2.0 * y * zh * z, 2.0 * y * zh * h, -2.0 * zh * zh, zh)
    return n_ab, n_ac, n_bc


def schmidt_f_batch(params: np.ndarray) -> dict:
    """Vectorized monogamy gap over an (n, 4) array of unit-sphere points.

    Independent of the 8x8 pipeline and free of SVDs. Purity deficits use
    cancellation-free product forms, the cut trace norm the closed pure-state
    form sqrt(2q) + q with q = 1 - tr(rho_a^2), and each pair trace norm the
    exact form |c_yy| + sqrt(||B2||_F^2 + 2|det B2|) of _pair_norms, whose
    covariance entries are monomials in (x, y, z, h), c_xx times 1 - 2y^2.

    Error budget: each entry is exact to a few ulp (c_xx to one ulp absolute
    from 1 - 2y^2), and det B2 loses at most a factor ~3 to cancellation, so
    each pair norm is within ~1e-15 of a batched SVD of the full 3x3 block.
    The tests gate it at 1e-13 over 2^16 Sobol points, the faces and edges,
    the c_xx = 0 set, the sign-region boundaries, and signed coordinates.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    x, y, z, h = params.T
    x2, z2, h2 = x * x, z * z, h * h

    q_a = 2.0 * x2 * (z2 + h2)  # 1 - tr(rho_a^2)
    q_b = 2.0 * h2 * (x2 + z2)  # 1 - tr(rho_b^2)
    q_c = 2.0 * z2 * (x2 + h2)  # 1 - tr(rho_c^2)

    h_abc = np.sqrt(2.0 * q_a) + q_a - np.sqrt(q_a * (1.0 + q_a))
    n_ab, n_ac, n_bc = _pair_norms(x, y, z, h)
    h_ab = n_ab - np.sqrt((1.0 + q_a) * q_b)
    h_ac = n_ac - np.sqrt((1.0 + q_a) * q_c)
    h_bc = n_bc - np.sqrt((1.0 + q_b) * q_c)

    return {
        "f": h_abc - (h_ab + h_ac + h_bc),
        "h_a_bc": h_abc,
        "h_ab": h_ab,
        "h_ac": h_ac,
        "h_bc": h_bc,
    }


# ---------------------------------------------------------------------------
# sign regions and published closed forms


def _fgwv_arrays(params: np.ndarray):
    params = np.atleast_2d(np.asarray(params, dtype=float))
    x, y, z, h = params.T
    y2 = y * y
    common = 1.0 - 2.0 * y2 + 2.0 * x * x
    f = x * h * common
    w = x * z * common
    g_rad = h * h * (1.0 + 4.0 * y2 * y2 - 4.0 * y2 * (1.0 + 2.0 * x * h + h * h)
                     - 4.0 * h * (x + (z * z - 1.0) * h + h**3))
    v_rad = z * z * (1.0 + 4.0 * y2 * y2 - 4.0 * y2 * (1.0 + 2.0 * x * z + z * z)
                     - 4.0 * z * (x + (h * h - 1.0) * z + z**3))
    defined = (g_rad >= RADICAND_TOL) & (v_rad >= RADICAND_TOL)
    g = x * np.sqrt(np.clip(g_rad, 0.0, None))
    v = x * np.sqrt(np.clip(v_rad, 0.0, None))
    return f, g, w, v, defined


def fgwv(p) -> tuple[float, float, float, float]:
    """Auxiliary quantities (f, g, w, v) behind the four absolute values.

    Radicands are clamped at zero when within rounding of it and reported as
    errors when genuinely negative (the printed expressions leave the real
    domain there).
    """
    f, g, w, v, defined = _fgwv_arrays(SchmidtParams(*p).validate().as_array())
    if not defined[0]:
        raise ValueError(f"negative radicand in auxiliary quantities at {tuple(p)}")
    return float(f[0]), float(g[0]), float(w[0]), float(v[0])


def _region_ids(params: np.ndarray, tol: float = SIGN_BOUNDARY_TOL) -> np.ndarray:
    """Region code per point, indexing _REGION_NAMES: 0-15 the sign patterns in
    ALL_SIGN_REGIONS order (a '-' sets a bit, first sign highest), 16 'boundary',
    17 'undefined'."""
    f, g, w, v, defined = _fgwv_arrays(params)
    quads = np.stack([f + g, f - g, w + v, w - v], axis=1)
    ids = (quads < 0) @ np.array([8, 4, 2, 1])
    ids[(np.abs(quads) <= tol).any(axis=1)] = 16
    ids[~defined] = 17
    return ids


def _region_codes(params: np.ndarray, tol: float = SIGN_BOUNDARY_TOL) -> np.ndarray:
    """Region string per point: one of the 16 sign patterns, 'boundary', or 'undefined'."""
    return _REGION_NAMES[_region_ids(params, tol)]


def sign_region(p) -> str:
    """Sign pattern of (f+g, f-g, w+v, w-v), or 'boundary' near a zero."""
    code = _region_codes(SchmidtParams(*p).validate().as_array())[0]
    if code == "undefined":
        raise ValueError(f"negative radicand in auxiliary quantities at {tuple(p)}")
    return str(code)


def closed_form_f(p) -> float:
    """Literal transcription of the published one-line expression for f.

    Reliable only at special points: the terms folding the pair covariance
    blocks into |f+g|, |f-g|, |w+v|, |w-v| underestimate the true block trace
    norms away from those points, so the pipeline value is authoritative
    wherever the two disagree.
    """
    x, y, z, h = SchmidtParams(*p).validate()
    fa, ga, wa, va = fgwv(p)
    s2 = np.sqrt(2.0)
    zh2 = z * z + h * h
    xh2 = x * x + h * h
    xz2 = x * x + z * z
    total = (
        s2 * z * np.sqrt((1.0 + 2.0 * x * x * zh2) * xh2)
        - x * h
        - z * (x + h)
        + s2 * h * np.sqrt((1.0 + 2.0 * x * x * zh2) * xz2)
        + 2.0 * x * np.sqrt(zh2)
        + 2.0 * x * x * zh2
        - z * h * np.sqrt(8.0 * z * h + (-1.0 + 2.0 * y * y + 2.0 * z * h) ** 2)
        + s2 * z * np.sqrt((1.0 + 2.0 * h * h * xz2) * xh2)
        - s2 * x * np.sqrt((1.0 + 2.0 * x * x * zh2) * zh2)
        - 0.5 * (abs(fa + ga) + abs(fa - ga) + abs(wa + va) + abs(wa - va))
    )
    return float(total)


def boundary_f(p, boundary: str) -> float:
    """Exact closed form of f restricted to one face of the octant.

    The named coordinate must vanish. On each face the marginals collapse to
    closed 2x2 expressions:

      x=0: f depends on t = z*h only:  sqrt(2) t (2 + sqrt(1+2t^2)) - 2t(1+t)
      y=0: every pair covariance block is diagonal; schmidt_f_batch's exact form
      z=0: qubit C factorizes and both steered deficits vanish, so f == 0
      h=0: qubit B factorizes and f reduces to sqrt(2) x z
    """
    x, y, z, h = SchmidtParams(*p).validate()
    if boundary not in _COORDS:
        raise ValueError(f"boundary must be one of {_COORDS}, got {boundary!r}")
    coord = dict(zip(_COORDS, (x, y, z, h)))[boundary]
    if abs(coord) > 1e-12:
        raise ValueError(f"point is not on the {boundary}=0 face (value {coord:.3e})")

    if boundary == "x":
        t = z * h
        return float(np.sqrt(2.0) * t * (2.0 + np.sqrt(1.0 + 2.0 * t * t)) - 2.0 * t * (1.0 + t))
    if boundary == "z":
        return 0.0
    if boundary == "h":
        return float(np.sqrt(2.0) * x * z)
    return float(schmidt_f_batch(np.array([x, y, z, h]))["f"][0])


# ---------------------------------------------------------------------------
# multi-start critical point search


@dataclass(frozen=True)
class MinimizeConfig:
    """Search configuration for minimize_f."""

    starts: int = 2000
    seed: int = 0
    boundary: str | None = None  # restrict the search to one face
    stationary_starts: int = 256  # projected-gradient-norm phase
    face_starts: int = 64  # stationary starts on each face (full-domain runs only)


@dataclass
class CriticalPoint:
    """A converged constrained critical point of f on the octant sphere: a
    descent end at gradient norm GRAD_TOL or at the 1e-13 step floor, or a
    stationary (Nelder-Mead) end at gradient norm STATIONARY_TOL."""

    params: SchmidtParams
    f_value: float
    location: str  # interior | internal-boundary | x=0 | y=0 | z=0 | h=0
    region: str
    grad_norm: float
    kind: str  # descent | stationary

    def as_dict(self) -> dict:
        return {
            "params": list(self.params),
            "f": self.f_value,
            "location": self.location,
            "region": self.region,
            "grad_norm": self.grad_norm,
            "kind": self.kind,
        }


@dataclass
class MinimizeResult:
    """Search outcome; converged and dropped count descent starts (see CriticalPoint)."""

    points: list[CriticalPoint]
    starts: int
    converged: int
    dropped: int  # descent starts still above GRAD_TOL after MAX_ITER iterations
    dropped_grad_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))  # at their last iteration

    def dropped_summary(self) -> dict:
        """Count, min, median and max of the dropped starts' final gradient norms."""
        g = self.dropped_grad_norms
        stats = (float(g.min()), float(np.median(g)), float(g.max())) if g.size else (None,) * 3
        return {"count": int(g.size), **dict(zip(("min", "median", "max"), stats))}

    def best_matching(self, target, radius: float) -> CriticalPoint | None:
        """Closest returned point within `radius` of the target coordinates."""
        target = np.asarray(target, dtype=float)
        best, best_d = None, radius
        for pt in self.points:
            d = float(np.linalg.norm(pt.params.as_array() - target))
            if d <= best_d:
                best, best_d = pt, d
        return best


def _octant_points(u: np.ndarray) -> np.ndarray:
    """Fold an unconstrained batch onto the octant sphere (abs + normalize)."""
    p = np.abs(u)
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def _batch_f(u: np.ndarray) -> np.ndarray:
    return schmidt_f_batch(_octant_points(u))["f"]


def _batch_grad(u: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the folded objective, batched; exactly 0
    along an exact-zero coordinate, in which the fold is even."""
    n, d = u.shape
    shifts = FD_STEP * np.eye(d)
    pts = np.concatenate([u[:, None, :] + shifts, u[:, None, :] - shifts], axis=1)
    fv = _batch_f(pts.reshape(-1, d)).reshape(n, 2 * d)
    return (fv[:, :d] - fv[:, d:]) / (2.0 * FD_STEP)


def _descent(u0: np.ndarray):
    """Lockstep projected descent with backtracking; returns endpoints, the last
    gradient norm of each start, and converged / dropped flags."""
    u = u0.copy()
    fval = _batch_f(u)
    eta = np.full(len(u), 0.1)
    active = np.ones(len(u), dtype=bool)
    converged = np.zeros(len(u), dtype=bool)
    gnorm = np.zeros(len(u))

    for _ in range(MAX_ITER):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        g = _batch_grad(u[idx])
        gn = np.linalg.norm(g, axis=1)
        gnorm[idx] = gn
        done = gn <= GRAD_TOL
        converged[idx[done]] = True
        active[idx[done]] = False
        idx = idx[~done]
        g = g[~done]
        gn = gn[~done]
        if idx.size == 0:
            continue

        searching = np.ones(idx.size, dtype=bool)
        for _ in range(60):
            if not searching.any():
                break
            sub = np.flatnonzero(searching)
            cand = u[idx[sub]] - eta[idx[sub], None] * g[sub]
            fnew = _batch_f(cand)
            ok = fnew <= fval[idx[sub]] - 1e-4 * eta[idx[sub]] * gn[sub] ** 2
            acc = idx[sub[ok]]
            u[acc] = cand[ok] / np.linalg.norm(cand[ok], axis=1, keepdims=True)
            fval[acc] = fnew[ok]
            eta[acc] = np.minimum(eta[acc] * 1.3, 1.0)
            eta[idx[sub[~ok]]] /= 2.0
            searching[sub[ok]] = False
            stalled = eta[idx[sub]] < 1e-13
            if stalled.any():
                st = idx[sub[stalled]]
                converged[st] = True
                active[st] = False
                searching[sub[stalled]] = False
    return u, gnorm, converged, active


def _lockstep_nelder_mead(phi, x0s: np.ndarray):
    """Nelder-Mead over many starts in lockstep, one batched call per step.

    phi maps an (n, d) batch to (n,) values. Standard reflection/expansion/
    contraction/shrink moves, applied simultaneously to every simplex so the
    objective is always evaluated in large batches; at most 300 steps, and a
    simplex stops once its diameter is below 1e-9 or its value span below 1e-22.
    The initial simplex steps 0.05 only along nonzero start coordinates, so an
    exact-zero coordinate (a face of the octant) stays 0 through every move.
    """
    n, d = x0s.shape
    simplex = np.repeat(x0s[:, None, :], d + 1, axis=1)
    for j in range(d):
        simplex[:, j + 1, j] += 0.05 * (x0s[:, j] != 0.0)
    values = phi(simplex.reshape(-1, d)).reshape(n, d + 1)
    rows = np.arange(n)

    for _ in range(300):
        order = np.argsort(values, axis=1)
        simplex = simplex[rows[:, None], order]
        values = values[rows[:, None], order]
        diam = np.max(np.abs(simplex - simplex[:, :1]), axis=(1, 2))
        span = values[:, -1] - values[:, 0]
        live = (diam > 1e-9) & (span > 1e-22)
        if not live.any():
            break

        centroid = simplex[:, :-1].mean(axis=1)
        worst = simplex[:, -1]
        xr = centroid + (centroid - worst)
        fr = phi(xr)

        better_best = fr < values[:, 0]
        better_second = fr < values[:, -2]
        # one extra candidate per simplex: expansion, outside or inside contraction
        cand = np.where(
            better_best[:, None], centroid + 2.0 * (centroid - worst),
            np.where((fr < values[:, -1])[:, None],
                     centroid + 0.5 * (centroid - worst),
                     centroid - 0.5 * (centroid - worst)),
        )
        fc = phi(cand)

        new_pt = worst.copy()
        new_val = values[:, -1].copy()
        use_cand = (better_best & (fc < fr)) | (~better_second & (fc < np.minimum(fr, values[:, -1])))
        use_refl = ~use_cand & better_second
        new_pt[use_cand] = cand[use_cand]
        new_val[use_cand] = fc[use_cand]
        new_pt[use_refl] = xr[use_refl]
        new_val[use_refl] = fr[use_refl]
        improved = use_cand | use_refl

        upd = live & improved
        simplex[upd, -1] = new_pt[upd]
        values[upd, -1] = new_val[upd]

        shrink = live & ~improved
        if shrink.any():
            sub = np.flatnonzero(shrink)
            simplex[sub, 1:] = simplex[sub, :1] + 0.5 * (simplex[sub, 1:] - simplex[sub, :1])
            values[sub, 1:] = phi(simplex[sub, 1:].reshape(-1, d)).reshape(len(sub), d)

    best = np.argmin(values, axis=1)
    return simplex[rows, best], values[rows, best]


_FACES = np.array([f"{c}=0" for c in _COORDS])


def _labels(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Region and location label of each converged point of an (n, 4) stack.

    Converged coordinates are only resolved to ~1e-8, so sign quantities below
    FACE_TOL cannot be told apart from a region boundary: the region is read at
    FACE_TOL. The location is the first face, in x, y, z, h order, within
    FACE_TOL of the point; off the faces it is internal-boundary on a region
    boundary and interior elsewhere.
    """
    region = _region_codes(p, tol=FACE_TOL)
    on_face = p <= FACE_TOL
    location = np.where(on_face.any(axis=1), _FACES[on_face.argmax(axis=1)],
                        np.where(region == "boundary", "internal-boundary", "interior"))
    return region, location


def minimize_f(config: MinimizeConfig | None = None) -> MinimizeResult:
    """Multi-start search for constrained critical points of f.

    A start on a face of the octant has an exact 0 in its face coordinate, and
    both phases keep it 0. Phase one runs lockstep projected descent (central-
    difference gradients on the folded sphere parametrization) for local minima.
    Phase two runs one lockstep Nelder-Mead minimization of the squared gradient
    norm at the folded unit-sphere point, over the stationary starts and, in a
    full-domain run, face_starts starts on each face; it also captures saddle-
    and maximum-type stationary points. All candidates are sorted by f,
    deduplicated (a point within DEDUP_RADIUS of a lower kept one is dropped),
    and the survivors evaluated through f_components in one batch.
    """
    cfg = config or MinimizeConfig()
    if cfg.boundary is not None and cfg.boundary not in _COORDS:
        raise ValueError(f"boundary must be one of {_COORDS}")
    first_face = cfg.starts + min(cfg.stationary_starts, cfg.starts)
    n_face = cfg.face_starts if cfg.boundary is None else 0
    # descent starts, stationary starts, then n_face starts on each of the x, y,
    # z and h faces in turn; a start on a face has an exact 0 in that coordinate
    u0 = np.abs(np.random.default_rng(cfg.seed).standard_normal((first_face + 4 * n_face, 4)))
    if cfg.boundary is not None:
        u0[:, _COORDS.index(cfg.boundary)] = 0.0
    u0[first_face + np.arange(4 * n_face), np.repeat(np.arange(4), n_face)] = 0.0
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)

    def phi(v):  # squared gradient norm on the sphere, so moving outward cannot shrink it
        g = _batch_grad(_octant_points(v))
        return np.einsum("ij,ij->i", g, g)

    u, gnorm, converged, dropped = _descent(u0[:cfg.starts])
    xs, vals = _lockstep_nelder_mead(phi, u0[cfg.starts:])
    gn = np.sqrt(np.maximum(vals, 0.0))
    hit = gn <= STATIONARY_TOL
    p = _octant_points(np.concatenate([u[converged], xs[hit]]))
    grad = np.concatenate([gnorm[converged], gn[hit]])
    kind = np.repeat(np.array(["descent", "stationary"], dtype=object), [converged.sum(), hit.sum()])

    # greedy dedup in order of f
    order = np.argsort(schmidt_f_batch(p)["f"], kind="stable")
    p, grad, kind = p[order], grad[order], kind[order]
    keep = np.ones(len(p), dtype=bool)
    for i in range(len(p)):
        if keep[i]:
            keep[i + 1:] &= np.linalg.norm(p[i + 1:] - p[i], axis=1) > DEDUP_RADIUS
    p, grad, kind = p[keep], grad[keep], kind[keep]

    f_value = f_components(p)["f"]
    region, location = _labels(p)
    return MinimizeResult(
        points=[
            CriticalPoint(params=SchmidtParams(*q), f_value=float(fv), location=str(loc),
                          region=reg, grad_norm=float(gn), kind=k)
            for q, fv, loc, reg, gn, k in zip(p, f_value, location, region, grad, kind)
        ],
        starts=cfg.starts,
        converged=int(converged.sum()),
        dropped=int(dropped.sum()),
        dropped_grad_norms=gnorm[dropped],
    )


# ---------------------------------------------------------------------------
# sphere scan


@dataclass(frozen=True)
class VerifyConfig:
    """Configuration for the monogamy sphere scan."""

    samples: int = 2**20
    seed: int = 0
    restrict_region: str | None = None
    restrict_boundary: str | None = None
    chunk: int = 2**16


@dataclass
class VerifyReport:
    """Scan outcome.

    min_value ranges over every scanned point (samples plus critical points
    within the configured restriction); critical_min ranges over the critical
    points alone, which is the number a per-region stationary analysis
    tabulates (a region's sampled infimum can sit at its closure instead).
    """

    min_value: float
    argmin: list[float]
    samples: int
    seed: int
    passed: bool
    generator: str
    critical_min: float | None = None
    critical_argmin: list[float] | None = None
    regions: dict[str, dict] = field(default_factory=dict)
    critical_points: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "min": self.min_value,
            "argmin": self.argmin,
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
            "generator": self.generator,
            "critical_min": self.critical_min,
            "critical_argmin": self.critical_argmin,
            "regions": self.regions,
            "critical_points": self.critical_points,
        }


def _sobol_sphere(n: int, dim: int, seed: int) -> np.ndarray:
    """Quasi-uniform points on the positive octant of the unit (dim-1)-sphere."""
    from scipy.special import ndtri  # imported here: scipy costs ~1 s of `import qsteer`
    from scipy.stats import qmc

    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = int(np.ceil(np.log2(max(n, 2))))
    u = eng.random_base2(m)[:n]
    g = np.abs(ndtri(np.clip(u, 1e-12, 1.0 - 1e-12)))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def verify_monogamy(
    config: VerifyConfig | None = None,
    critical_points: list[CriticalPoint] | None = None,
) -> VerifyReport:
    """Scan the octant sphere with low-discrepancy samples plus critical points.

    Reports the global minimum found, per-region minima, and PASS iff the
    minimum stays above the tolerance floor. Restriction options narrow the
    scan to one sign region or one boundary face.
    """
    cfg = config or VerifyConfig()
    if cfg.restrict_boundary is not None and cfg.restrict_boundary not in _COORDS:
        raise ValueError(f"restrict_boundary must be one of {_COORDS}")
    if cfg.restrict_region is not None and cfg.restrict_region not in ALL_SIGN_REGIONS:
        raise ValueError("restrict_region must be one of the 16 sign patterns")

    if cfg.restrict_boundary is None:
        samples = _sobol_sphere(cfg.samples, 4, cfg.seed)
    else:
        face = _sobol_sphere(cfg.samples, 3, cfg.seed)
        samples = np.zeros((cfg.samples, 4))
        keep = [i for i in range(4) if i != _COORDS.index(cfg.restrict_boundary)]
        samples[:, keep] = face

    regions: dict[str, dict] = {}

    def region_entry(name: str) -> dict:
        return regions.setdefault(name, {
            "samples": 0, "sampled_min": np.inf, "sampled_argmin": None,
            "critical_count": 0, "critical_min": None,
        })

    best_val = np.inf
    best_arg = None
    restrict = None if cfg.restrict_region is None else ALL_SIGN_REGIONS.index(cfg.restrict_region)
    for lo in range(0, len(samples), cfg.chunk):
        block = samples[lo : lo + cfg.chunk]
        fvals = schmidt_f_batch(block)["f"]
        codes = _region_ids(block)
        if restrict is not None:
            sel = codes == restrict
            if not sel.any():
                continue
            block, fvals, codes = block[sel], fvals[sel], codes[sel]
        i = int(np.argmin(fvals))
        if fvals[i] < best_val:
            best_val = float(fvals[i])
            best_arg = block[i]
        counts = np.bincount(codes)
        for code in np.flatnonzero(counts):
            sel = np.flatnonzero(codes == code)
            j = sel[np.argmin(fvals[sel])]
            entry = region_entry(_REGION_NAMES[code])
            entry["samples"] += int(counts[code])
            if fvals[j] < entry["sampled_min"]:
                entry["sampled_min"] = float(fvals[j])
                entry["sampled_argmin"] = [float(v) for v in block[j]]

    crit_dicts = []
    crit_min = None
    crit_arg = None
    for pt in critical_points or []:
        if cfg.restrict_boundary is not None:
            if pt.params[_COORDS.index(cfg.restrict_boundary)] > FACE_TOL:
                continue
        if cfg.restrict_region is not None and pt.region != cfg.restrict_region:
            continue
        crit_dicts.append(pt.as_dict())
        entry = region_entry(pt.region)
        entry["critical_count"] += 1
        if entry["critical_min"] is None or pt.f_value < entry["critical_min"]:
            entry["critical_min"] = pt.f_value
        if crit_min is None or pt.f_value < crit_min:
            crit_min = pt.f_value
            crit_arg = [float(v) for v in pt.params]
        if pt.f_value < best_val:
            best_val = pt.f_value
            best_arg = pt.params.as_array()

    return VerifyReport(
        min_value=float(best_val),
        argmin=[float(v) for v in (best_arg if best_arg is not None else [])],
        samples=int(cfg.samples),
        seed=int(cfg.seed),
        passed=bool(best_val >= PASS_TOL),
        generator="sobol-scrambled+gauss-fold",
        critical_min=crit_min,
        critical_argmin=crit_arg,
        regions=regions,
        critical_points=crit_dicts,
    )
