"""Numerical study of the steering monogamy gap on the pure-state family.

The object of interest is

    f(x, y, z, h) = H_{A->BC} - (H_{A->B} + H_{A->C} + H_{B->C})

evaluated on the family x|000> + y|100> + z|101> + h|110> over the unit
3-sphere octant (all coordinates nonnegative). Monogamy of steering is the
claim f >= 0 everywhere on that domain. This module provides:

* f_pipeline      - evaluation through the generic steering stack (the
                    source of truth); f_components takes point stacks,
* schmidt_f_batch - an independent, SVD-free vectorized route for bulk
                    sampling/optimization: the smooth form of f on the octant
                    that the search's gradient differentiates, within ~1e-15
                    of an SVD route (tests: 1e-13, and f_pipeline),
* fgwv / sign_region - the auxiliary quantities whose four absolute values
                    split the printed expression's domain into 16 sign regions,
* closed_form_f   - a literal transcription of the published single-expression
                    form of f (unreliable away from special points; kept for
                    cross-validation only),
* boundary_f      - exact closed forms of f on the x=0 / y=0 / z=0 / h=0 faces,
* minimize_f      - multi-start Newton search for the critical points of f
                    on the sphere, the octant and its faces (minima, saddles
                    and maxima alike), every start judged by one residual
                    test and counted, the endpoints on f's zero sets counted
                    per set and every other point reported once, in an order
                    that rounding noise cannot flip; its MinimizeResult is
                    one array record of the points with its own JSON block,
                    PASS/FAIL verdict and fixture recovery,
* verify_monogamy - quasi-random sphere scan of the octant alone, with
                    per-region minima and its own PASS/FAIL verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .states import density_from_pure, schmidt_points, schmidt_state
from .states import partial_trace  # noqa: F401  kept: perfbench/spans.py patches this name here
from .steering import h_pair  # noqa: F401  kept: perfbench/spans.py patches this name here
from .steering import steering_batch

__all__ = [
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
RECOVER_RADIUS = 1e-3  # a fixture off every zero set is found at the closest row this near it (inclusive)
RECOVER_TOL = 1e-4  # a found fixture matches when its f is this near the expected value
GRAD_TOL = 1e-10  # every search start converges at this residual norm (_residual of the exact gradient)
MAX_ITER = 400  # Newton iterations before a search start is given up
DEDUP_RADIUS = 1e-6  # refined points closer than this in parameter space are one critical point
PASS_TOL = -1e-9  # scan passes at or above this; pipeline values on f's zero set reach ~-1e-12
SCAN_CHUNK = 2**14  # scan points per block pass: of 2^13-2^16, the fastest for both a 2^14 and a 2^20 scan

_COORDS = ("x", "y", "z", "h")
# f vanishes identically on these sets, where the state is a product (AB x C on
# z = 0, |10> x a state of C on x = h = 0): each maps to the coordinates 0 on it
_ZERO_SETS = {"z=0": (2,), "x=h=0": (0, 3)}
_SQRT2 = np.sqrt(2.0)


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
    comps = {"f": rep["h_a_bc"] - rep["h_tot"]}
    comps.update((k, rep[k]) for k in ("h_a_bc", "h_ab", "h_ac", "h_bc"))
    return comps if psi.ndim == 2 else {k: float(v[0]) for k, v in comps.items()}


def _roots(x, z, h, out=None):
    """A, B, C = |(z, h)|, |(x, z)|, |(x, h)| and S_a, S_b = sqrt(1 + q_a), sqrt(1 + q_b),
    where q_a = 2x^2 A^2 and q_b = 2h^2 B^2 are the purity deficits of qubits A and B:
    the rows of out, a (5, n) workspace of the coordinates' dtype (new if None)."""
    a, b, c, s_a, s_b = out = np.empty((5, *np.shape(x)), np.result_type(x, z, h)) if out is None else out
    # x^2, z^2, h^2 once each, held in rows c, s_a, s_b until C, S_a, S_b overwrite them
    xx, zz, hh = np.multiply(x, x, out=c), np.multiply(z, z, out=s_a), np.multiply(h, h, out=s_b)
    for r, u, v in ((a, zz, hh), (b, xx, zz), (c, xx, hh)):
        np.sqrt(np.add(u, v, out=r), out=r)
    for s, u, r in ((s_a, x, a), (s_b, h, b)):  # sqrt(1 + ((2u u) r) r)
        np.multiply(np.multiply(np.multiply(2.0, u, out=s), u, out=s), r, out=s)
        np.sqrt(np.add(np.multiply(s, r, out=s), 1.0, out=s), out=s)
    return out


def _y_terms(y, out=None):
    """2y and 1 - 2y^2 (as 1 - (2y) y), which the three _pair_terms share: the rows of out."""
    ty, a0 = out = np.empty((2, *np.shape(y)), np.result_type(y)) if out is None else out
    np.subtract(1.0, np.multiply(np.multiply(2.0, y, out=ty), y, out=a0), out=a0)
    return out


def _pair_terms(u, v, y_terms, out=None):
    """uv, a = 1 - 2y^2 + 2uv, b = 2y (u + v) and R = |(a, b)| of the pair norm uv (1 + R), from
    _y_terms(y): rows of out, a (5, n) workspace of the inputs' dtype (new if None)."""
    ty, a0 = y_terms
    uv, a, b, r, t = out = np.empty((5, *np.shape(u)), np.result_type(u, v, ty)) if out is None else out
    np.add(a0, np.multiply(2.0, np.multiply(u, v, out=uv), out=a), out=a)
    np.multiply(ty, np.add(u, v, out=b), out=b)
    np.sqrt(np.add(np.multiply(a, a, out=r), np.multiply(b, b, out=t), out=r), out=r)
    return uv, a, b, r


def schmidt_f_batch(params: np.ndarray) -> dict:
    """Vectorized monogamy gap over an (n, 4) array of unit-sphere points.

    Independent of the 8x8 pipeline and free of SVDs, it evaluates at |params|
    (f is even in each coordinate: a local Z or a global phase) the smooth
    octant form that _grad_f differentiates, from _roots and _pair_terms:

      H_A->BC = 2xA + 2x^2 A^2 - sqrt(2) xA S_a,  H_AB = n_xh - sqrt(2) hB S_a,
      H_AC = n_xz - sqrt(2) zC S_a,  H_BC = n_zh - sqrt(2) zC S_b.

    It fills one (21, n) workspace with out= ufuncs, and the five outputs are
    rows of it. Each value comes from the float operations of these expressions
    in their order, so its bits are those of the plain expressions (a test pins them).

    Error budget: each term is exact to a few ulp (a = 1 - 2y^2 + 2uv to one
    ulp absolute), so each pair norm n_uv is within ~1e-15 of a batched SVD of
    its 3x3 covariance block. The tests gate it at 1e-13 over 2^16 Sobol
    points, the faces and edges, the c_xx = 0 set, the sign-region boundaries,
    and signed coordinates.
    """
    p = np.atleast_2d(np.asarray(params, dtype=float))
    ws = np.empty((21, len(p)))
    x, y, z, h = np.abs(p.T, out=ws[:4])  # contiguous rows: strided ones are ~1/3 slower at 2^16 points
    a, b, c, s_a, s_b = _roots(x, z, h, out=ws[4:9])
    y_terms = _y_terms(y, out=ws[9:11])
    f, h_abc, h_ab, h_ac, h_bc = ws[11:16]
    for u, v, n_uv in ((x, h, h_ab), (x, z, h_ac), (z, h, h_bc)):
        uv, _, _, r = _pair_terms(u, v, y_terms, out=ws[16:])
        np.multiply(uv, np.add(r, 1.0, out=n_uv), out=n_uv)
    xa, t, szc = ws[16:19]  # the pair rows, free again
    np.multiply(np.multiply(2.0, np.multiply(x, a, out=xa), out=t), xa, out=h_abc)
    h_abc += t  # 2xA + 2xA xA
    h_abc -= np.multiply(np.multiply(_SQRT2, xa, out=t), s_a, out=t)
    h_ab -= np.multiply(np.multiply(_SQRT2, np.multiply(h, b, out=t), out=t), s_a, out=t)
    np.multiply(_SQRT2, np.multiply(z, c, out=szc), out=szc)
    h_ac -= np.multiply(szc, s_a, out=t)
    h_bc -= np.multiply(szc, s_b, out=t)
    np.subtract(h_abc, np.add(np.add(h_ab, h_ac, out=f), h_bc, out=f), out=f)
    return {"f": f, "h_a_bc": h_abc, "h_ab": h_ab, "h_ac": h_ac, "h_bc": h_bc}


# ---------------------------------------------------------------------------
# sign regions and published closed forms


def _radicands(cols):
    """Rows y^2, g_rad and v_rad (the printed g = x sqrt(g_rad), v = x sqrt(v_rad)) of one
    (10, n) workspace from (4, n) coordinate rows, and the mask of points where both are
    at or above RADICAND_TOL. With u, w = h, z for g and z, h for v, each radicand is
    u^2 (1 + 4y^4 - 4y^2 (1 + 2xu + u^2) - 4u (x + (w^2 - 1) u + u^3))."""
    x, y, z, h = cols
    ws = np.empty((10, len(x)))
    y2, g_rad, v_rad, y4, base, t, s = ws[:7]
    zz, hh, tx = np.multiply(z, z, out=ws[7]), np.multiply(h, h, out=ws[8]), np.multiply(2.0, x, out=ws[9])
    np.multiply(4.0, np.multiply(y, y, out=y2), out=y4)
    np.add(1.0, np.multiply(y4, y2, out=base), out=base)
    for rad, u, uu, ww in ((g_rad, h, hh, zz), (v_rad, z, zz, hh)):
        np.add(np.add(1.0, np.multiply(tx, u, out=t), out=t), uu, out=t)
        np.subtract(base, np.multiply(y4, t, out=t), out=rad)
        np.add(x, np.multiply(np.subtract(ww, 1.0, out=t), u, out=t), out=t)
        t += np.power(u, 3, out=s)
        rad -= np.multiply(np.multiply(4.0, u, out=s), t, out=t)
        rad *= uu
    return ws[:3], (g_rad >= RADICAND_TOL) & (v_rad >= RADICAND_TOL)


def _fgwv(cols, rad):
    """f, g, w, v from (4, n) coordinate rows and their _radicands rows, the radicands clamped at 0."""
    (x, _, z, h), (y2, g_rad, v_rad) = cols, rad
    common = 1.0 - 2.0 * y2 + 2.0 * x * x
    return (x * h * common, x * np.sqrt(np.clip(g_rad, 0.0, None)),
            x * z * common, x * np.sqrt(np.clip(v_rad, 0.0, None)))


def fgwv(p) -> tuple[float, float, float, float]:
    """Auxiliary quantities (f, g, w, v) behind the four absolute values.

    Radicands are clamped at zero when within rounding of it and reported as
    errors when genuinely negative (the printed expressions leave the real
    domain there).
    """
    p = schmidt_points(p)
    rad, defined = _radicands(p[:, None])
    if not defined[0]:
        raise ValueError(f"negative radicand in auxiliary quantities at {tuple(p.tolist())}")
    return tuple(float(q[0]) for q in _fgwv(p[:, None], rad))


def _region_ids(params: np.ndarray, tol: float = SIGN_BOUNDARY_TOL) -> np.ndarray:
    """Region code per point, indexing _REGION_NAMES: 0-15 the sign patterns in
    ALL_SIGN_REGIONS order (a '-' sets a bit, first sign highest), 16 'boundary',
    17 'undefined'. The radicands alone decide 'undefined', so f, g, w, v and
    the four sign quads are computed only on the points where both are defined."""
    cols = np.atleast_2d(np.asarray(params, dtype=float)).T
    rad, defined = _radicands(cols)
    on = np.flatnonzero(defined)
    f, g, w, v = _fgwv(np.take(cols, on, axis=1), np.take(rad, on, axis=1))
    ids, near = np.zeros(len(on), dtype=np.int64), np.zeros(len(on), dtype=bool)
    for bit, quad in zip((8, 4, 2, 1), (f + g, f - g, w + v, w - v)):
        ids += bit * (quad < 0)
        near |= np.abs(quad) <= tol
    codes = np.full(len(defined), 17, dtype=np.int64)
    codes[on] = np.where(near, 16, ids)
    return codes


def sign_region(p) -> str:
    """Sign pattern of (f+g, f-g, w+v, w-v), or 'boundary' near a zero.

    The 16 patterns are regions of the printed expression (the |f+-g| and
    |w+-v| terms of closed_form_f), not kinks of f: the exact pair norms are
    smooth on the octant, so f has no kink inside it. Where the g or v
    radicand is negative the printed form leaves the real domain and the
    point is 'undefined' (a ValueError here); that holds for 47,671 of the
    2^16 scan samples at seed 0 (73%).
    """
    p = schmidt_points(p)
    code = _REGION_NAMES[_region_ids(p)[0]]
    if code == "undefined":
        raise ValueError(f"negative radicand in auxiliary quantities at {tuple(p.tolist())}")
    return str(code)


def closed_form_f(p) -> float:
    """Literal transcription of the published one-line expression for f.

    Term by term against schmidt_f_batch, H_A->BC and all four purity bounds
    are exact; only the pair trace norms differ. The exact ones are those of
    schmidt_f_batch:

      n_AB = xh (1 + sqrt((1 - 2y^2 + 2xh)^2 + 4y^2 (x + h)^2)),  n_AC: h -> z,
      n_BC = zh (1 + sqrt((1 - 2y^2 + 2zh)^2 + 4y^2 (z + h)^2)).

    The printed BC norm is zh (1 + sqrt(R)) with R = 8zh + (2y^2 - 1 + 2zh)^2,
    which equals (1 - 2y^2 + 2zh)^2 + 4y^2 (z + h)^2 - 4y^2 (z - h)^2: exact
    only where y = 0 or z = h. The printed AB and AC terms
    (|f+g| + |f-g|) / 2 = max(|f|, |g|) use f = xh (1 - 2y^2 + 2x^2), with 2x^2
    where the exact trace term has 2xh, and are off even at y = 0. So the
    expression is reliable only at special points, and the pipeline value is
    authoritative wherever the two disagree.
    """
    fa, ga, wa, va = fgwv(p)  # checks p
    x, y, z, h = np.asarray(p, dtype=float).tolist()
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
    x, y, z, h = schmidt_points(p)
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
    """Search configuration for minimize_f; every search covers the whole octant."""

    starts: int = 256  # Newton starts over the whole octant
    face_starts: int = 64  # Newton starts on each of the four faces
    seed: int = 0

    def __post_init__(self):
        for name in ("starts", "face_starts", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class MinimizeResult:
    """The isolated critical points of a search as one record: row i of each
    array is point i, in report order. grad_norm is the norm of the residual
    (_residual), at most GRAD_TOL. starts counts every Newton start, free and
    face; each one either converged or was dropped, so converged + dropped ==
    starts. The converged starts that ended on a zero set are counted in zero_sets.
    passed is the search's verdict, to_dict its verify-appendix JSON block and
    recover a fixture's entry in the recovered block."""

    points: np.ndarray  # (n, 4) coordinates
    f: np.ndarray  # pipeline value (f_components)
    location: np.ndarray  # interior | x=0 | y=0 | z=0 | h=0
    region: np.ndarray  # code into _REGION_NAMES, read at FACE_TOL
    grad_norm: np.ndarray
    starts: int
    converged: int
    dropped: int  # starts still above GRAD_TOL after MAX_ITER iterations
    zero_sets: dict[str, dict]  # name -> {"hits": converged starts that ended on it, "max_abs_f": over them}
    dropped_grad_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))  # their last residual norms

    def row(self, i: int) -> dict:
        """Point i as the verify-appendix JSON lists it."""
        return {
            "params": self.points[i].tolist(),
            "f": float(self.f[i]),
            "location": str(self.location[i]),
            "region": str(_REGION_NAMES[self.region[i]]),
            "grad_norm": float(self.grad_norm[i]),
        }

    @property
    def passed(self) -> bool:
        """Every row's f at or above PASS_TOL and every zero set's max_abs_f within |PASS_TOL| (a NaN fails)."""
        return bool(np.all(self.f >= PASS_TOL)) and all(z["max_abs_f"] <= -PASS_TOL for z in self.zero_sets.values())

    def to_dict(self) -> dict:
        """The search block of the verify-appendix JSON; dropped_grad_norms as count, min, median and max."""
        g = self.dropped_grad_norms
        stats = (float(g.min()), float(np.median(g)), float(g.max())) if g.size else (None,) * 3
        return {"starts": self.starts, "converged": self.converged, "dropped": self.dropped,
                "dropped_grad_norms": {"count": int(g.size), **dict(zip(("min", "median", "max"), stats))},
                "zero_sets": self.zero_sets, "critical_points": [self.row(i) for i in range(len(self.f))],
                "pass": self.passed}

    def recover(self, target, expected: float) -> dict:
        """The recovered entry of a fixture. It is found on the first zero set that holds the
        target and that some start hit, where f is 0, else as the row of the closest point
        within RECOVER_RADIUS, the last of equal distances; it matches when that f is within
        RECOVER_TOL of expected."""
        t = np.asarray(target, dtype=float)
        on = _on_zero_sets(t.reshape(1, 4))[0]
        found = next((name for name, o in zip(_ZERO_SETS, on) if o and self.zero_sets[name]["hits"]), None)
        f = 0.0  # f on a zero set
        if found is None:
            d = np.array([np.linalg.norm(v) for v in self.points - t])
            hits = np.flatnonzero(d <= min(RECOVER_RADIUS, d.min(initial=np.inf)))
            if hits.size:
                found = self.row(hits[-1])
                f = found["f"]
        matched = found is not None and abs(f - expected) <= RECOVER_TOL
        return {"target": list(target), "found": found, "matched": matched}


def _over(u, r):
    """u / r, and 1 where r = |(u, v)| is 0: there the slope of r along u into the octant."""
    zero = r == 0
    return np.where(zero, 1.0, u / np.where(zero, 1.0, r))


def _pair_slopes(u, v, y, y_terms):
    """d/du, d/dy, d/dv of the pair norm uv (1 + R), R = sqrt((1 - 2y^2 + 2uv)^2 + 4y^2 (u + v)^2),
    y_terms = _y_terms(y); R = 0 only at u = v = 0, where uv zeroes every R-slope."""
    uv, a, b, r = _pair_terms(u, v, y_terms)
    ar, br = _over(a, r), _over(b, r)
    c, e = 1.0 + r + 2.0 * uv * ar, y_terms[0] * uv * br
    return c * v + e, uv * (2.0 * (u + v) * br - 4.0 * y * ar), c * u + e


def _grad_f(p: np.ndarray) -> np.ndarray:
    """Exact gradient of f over an (n, 4) stack of octant points.

    It differentiates the form that schmidt_f_batch evaluates, from the same
    _roots and _pair_terms, written as

      f = 2xA + q_a - n_xh - n_xz - n_zh + sqrt(2) S_a (hB + zC - xA) + sqrt(2) zC S_b.

    On an edge where A, B or C is 0 each partial is the one-sided derivative
    into the octant. Only + * / sqrt and exact-zero tests occur, so a complex
    step through it is exact (_newton's Hessian).
    """
    x, y, z, h = p.T
    a, b, c, s_a, s_b = _roots(x, z, h)
    z_a, h_a, x_b, z_b, x_c, h_c = _over(z, a), _over(h, a), _over(x, b), _over(z, b), _over(x, c), _over(h, c)
    k_a = 1.0 + (h * b + z * c - x * a) / (_SQRT2 * s_a)  # slope of f in q_a
    k_b = z * c / (_SQRT2 * s_b)  # slope of f in q_b
    y_terms = _y_terms(y)
    ab_x, ab_y, ab_h = _pair_slopes(x, h, y, y_terms)
    ac_x, ac_y, ac_z = _pair_slopes(x, z, y, y_terms)
    bc_z, bc_y, bc_h = _pair_slopes(z, h, y, y_terms)
    return np.stack([
        2.0 * a + 4.0 * x * a * a * k_a + 4.0 * x * h * h * k_b
        + _SQRT2 * (s_a * (h * x_b + z * x_c - a) + s_b * z * x_c) - ab_x - ac_x,
        -(ab_y + ac_y + bc_y),
        2.0 * x * z_a + 4.0 * x * x * z * k_a + 4.0 * z * h * h * k_b
        + _SQRT2 * (s_a * (h * z_b + c - x * z_a) + s_b * c) - ac_z - bc_z,
        2.0 * x * h_a + 4.0 * x * x * h * k_a + 4.0 * h * b * b * k_b
        + _SQRT2 * (s_a * (b + z * h_c - x * h_a) + s_b * z * h_c) - ab_h - bc_h,
    ], axis=1)


def _residual(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Tangent gradient of f on the unit sphere, with the component of each
    coordinate at an exact 0 dropped: the search holds that face."""
    t = g - np.einsum("ij,ij->i", g, p)[:, None] * p
    return np.where(p == 0.0, 0.0, t)


def _search(p0: np.ndarray):
    """Lockstep Newton search from each row of p0 on the exact gradient, with one test.

    A start converges when the norm of its residual (see _residual) reaches
    GRAD_TOL. Otherwise _newton takes it to the next point; a start still
    above GRAD_TOL after MAX_ITER steps is given up. Returns endpoints and
    the last residual norm of each start.
    """
    p, rnorm = p0.copy(), np.zeros(len(p0))
    live = np.arange(len(p))
    for _ in range(MAX_ITER):
        g = _grad_f(p[live])
        r = _residual(p[live], g)
        rnorm[live] = np.linalg.norm(r, axis=1)
        going = rnorm[live] > GRAD_TOL
        live, g, r = live[going], g[going], r[going]
        if live.size == 0:
            break
        p[live] = _newton(p[live], g, r)
    return p, rnorm


def _newton(q: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton step on the Lagrange system of f on sphere and face, with every
    exact 0 of q held: the pseudo-inverse of the Lagrangian Hessian H - (g.q) I,
    projected onto the tangent space of sphere and face, applied to r. The
    step is orthogonal to q; a coordinate it takes below 0 lands on its face.
    H is a complex step of 1e-30 along each coordinate, exact as no difference is taken."""
    free = q != 0.0
    tangent = np.eye(4) * free[:, None, :] - q[:, :, None] * q[:, None, :]
    hess = _grad_f((q[:, None, :] + 1e-30j * np.eye(4)).reshape(-1, 4)).imag.reshape(-1, 4, 4) / 1e-30
    lagr = hess - np.einsum("ij,ij->i", g, q)[:, None, None] * np.eye(4)
    inv = np.linalg.pinv(tangent @ lagr @ tangent, 1e-10, hermitian=True)
    q = np.maximum(q - free * np.einsum("nij,nj->ni", inv, r), 0.0)
    return q / np.linalg.norm(q, axis=1, keepdims=True)


_FACES = np.array([f"{c}=0" for c in _COORDS])


def _on_zero_sets(p: np.ndarray) -> np.ndarray:
    """(n, k) mask: point i is on zero set j when each of its coordinates is at most FACE_TOL, as in _labels."""
    return np.stack([(p[:, list(c)] <= FACE_TOL).all(axis=1) for c in _ZERO_SETS.values()], axis=1)


def _labels(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Region code and location label of each converged point of an (n, 4) stack.

    Converged coordinates are only resolved to ~1e-8, so sign quantities below
    FACE_TOL cannot be told apart from a region boundary: the region is read at
    FACE_TOL. The location is the first face, in x, y, z, h order, within
    FACE_TOL of the point, and interior off the faces.
    """
    on_face = p <= FACE_TOL
    return _region_ids(p, tol=FACE_TOL), np.where(on_face.any(axis=1), _FACES[on_face.argmax(axis=1)], "interior")


def minimize_f(config: MinimizeConfig | None = None) -> MinimizeResult:
    """Multi-start Newton search for the constrained critical points of f.

    Lockstep Newton on the Lagrange system (_newton) runs from `starts` points
    over the whole octant and `face_starts` points on each face, on the exact
    gradient _grad_f, and stops at one test: the residual norm of _residual at
    or below GRAD_TOL. A start on a face has an exact 0 in its face coordinate
    and Newton holds every exact 0, so it finds the critical points within
    faces and edges as well as inside; minima, saddles and maxima alike. A
    start still above GRAD_TOL after MAX_ITER steps is dropped and counted.
    An endpoint on a zero set is a hit of each set that holds it, valued in
    one f_components batch for max_abs_f. The rest are taken in coordinate
    order, less each one with an earlier endpoint within DEDUP_RADIUS (a chain
    of close ones keeps only its first), valued by f_components in one batch
    and ordered by f rounded to 6 decimals, ties in coordinate order; neither
    step reads schmidt_f_batch.
    """
    from scipy.spatial import cKDTree  # imported here: scipy costs ~1 s of `import qsteer`

    cfg = config or MinimizeConfig()
    n_face = cfg.face_starts
    # free starts, then n_face starts on each of the x, y, z and h faces in
    # turn; a start on a face has an exact 0 in that coordinate
    u0 = np.abs(np.random.default_rng(cfg.seed).standard_normal((cfg.starts + 4 * n_face, 4)))
    u0[cfg.starts + np.arange(4 * n_face), np.repeat(np.arange(4), n_face)] = 0.0
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)

    p, rnorm = _search(u0)
    hit = rnorm <= GRAD_TOL
    p, grad = p[hit], rnorm[hit]

    on = _on_zero_sets(p)
    zero = on.any(axis=1)
    abs_f = np.abs(f_components(p[zero])["f"])
    zero_sets = {name: {"hits": int(on[:, j].sum()), "max_abs_f": float(abs_f.max(where=on[zero, j], initial=0.0))}
                 for j, name in enumerate(_ZERO_SETS)}
    p, grad = p[~zero], grad[~zero]

    idx = np.lexsort(p.T[::-1])  # x first, then y, z, h
    idx = np.delete(idx, cKDTree(p[idx]).query_pairs(DEDUP_RADIUS, output_type="ndarray").max(axis=1))
    f_value = f_components(p[idx])["f"]
    by_value = np.argsort([round(v, 6) for v in f_value.tolist()], kind="stable")  # the report's scale
    idx, f_value = idx[by_value], f_value[by_value]
    p = p[idx]
    region, location = _labels(p)
    return MinimizeResult(
        points=p, f=f_value, location=location, region=region, grad_norm=grad[idx],
        starts=len(u0),
        converged=int(hit.sum()),
        dropped=int((~hit).sum()),
        zero_sets=zero_sets,
        dropped_grad_norms=rnorm[~hit],
    )


# ---------------------------------------------------------------------------
# sphere scan


@dataclass(frozen=True)
class VerifyConfig:
    """Configuration for the monogamy sphere scan, which covers the whole octant."""

    samples: int = 2**20
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.samples <= 2**30:  # scipy's Sobol sequence gives at most 2^30 points
            raise ValueError("samples must be >= 1 and at most 2**30 (1073741824)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class VerifyReport:
    """Scan outcome, over the samples alone.

    min_value and argmin are the first lowest sample and its point; regions
    holds each sampled sign region's count and minimum; passed is min_value at
    or above PASS_TOL.
    """

    min_value: float
    argmin: list[float]
    samples: int
    seed: int
    passed: bool
    generator: str
    regions: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "min": self.min_value,
            "argmin": self.argmin,
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
            "generator": self.generator,
            "regions": self.regions,
        }


def _sobol_base(n: int, dim: int, seed: int) -> np.ndarray:
    """The first n of 2^m scrambled Sobol points in [0, 1)^dim, as contiguous (dim, n) rows."""
    from scipy.stats import qmc  # imported here: scipy costs ~1 s of `import qsteer`

    m = int(np.ceil(np.log2(max(n, 2))))
    return qmc.Sobol(d=dim, scramble=True, seed=seed).random_base2(m)[:n].T.copy()


def _fold(g: np.ndarray) -> np.ndarray:
    """Take (dim, k) rows of _sobol_base to the sphere in place: clipped, folded through
    |ndtri| and divided by their row norm. Each point's bits do not depend on the block it is in."""
    from scipy.special import ndtri

    np.abs(ndtri(np.clip(g, 1e-12, 1.0 - 1e-12, out=g), out=g), out=g)
    g /= np.linalg.norm(g, axis=0)
    return g


def _sobol_sphere(n: int, dim: int, seed: int) -> np.ndarray:
    """Quasi-uniform points on the positive octant of the unit (dim-1)-sphere: the first n of
    2^m scrambled Sobol points folded onto the sphere (_fold), as verify_monogamy's blocks are,
    and returned as their (n, dim) transpose."""
    return _fold(_sobol_base(n, dim, seed)).T


def _region_minima(codes: np.ndarray, values: np.ndarray) -> dict[int, tuple[int, int]]:
    """Per region code present, ascending: its point count and the index of its
    first lowest value (np.argmin's pick, a NaN first), from one stable sort of the codes."""
    small = codes.astype(np.uint8)
    order = np.argsort(small, kind="stable")
    bounds = np.searchsorted(small[order], np.arange(len(_REGION_NAMES) + 1))
    return {c: (hi - lo, order[lo + np.argmin(values[order[lo:hi]])])
            for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo}


def verify_monogamy(config: VerifyConfig | None = None) -> VerifyReport:
    """Scan the octant sphere with low-discrepancy samples.

    The Sobol points are drawn once (_sobol_base); then one pass per SCAN_CHUNK
    block folds it onto the sphere in place (_fold) and computes its f and
    region codes while its rows are in cache. Each sample's bits are those of
    _sobol_sphere, whatever the block size. The regions table lists each region
    met by a sample in _REGION_NAMES order, and the global minimum is the
    first lowest sample. PASS iff it stays at or above PASS_TOL; a search's
    critical points carry their own verdict (MinimizeResult.passed). f comes
    from the exact pair norms of schmidt_f_batch. The sign regions belong to
    the printed expression, not to kinks of f (see closed_form_f), and 47,671
    of 2^16 samples at seed 0 (73%) fall outside its real domain as
    'undefined' (see sign_region), where _region_ids computes no sign.
    """
    cfg = config or VerifyConfig()
    base = _sobol_base(cfg.samples, 4, cfg.seed)
    fvals, codes = np.empty(cfg.samples), np.empty(cfg.samples, dtype=np.int64)
    for lo in range(0, cfg.samples, SCAN_CHUNK):
        block = _fold(base[:, lo : lo + SCAN_CHUNK]).T
        fvals[lo : lo + SCAN_CHUNK] = schmidt_f_batch(block)["f"]
        codes[lo : lo + SCAN_CHUNK] = _region_ids(block)
    samples = base.T
    regions = {_REGION_NAMES[code]: {"samples": int(n), "sampled_min": float(fvals[j]),
                                     "sampled_argmin": [float(v) for v in samples[j]]}
               for code, (n, j) in _region_minima(codes, fvals).items()}
    i = int(np.argmin(fvals))
    return VerifyReport(
        min_value=float(fvals[i]),
        argmin=[float(v) for v in samples[i]],
        samples=int(cfg.samples),
        seed=int(cfg.seed),
        passed=bool(fvals[i] >= PASS_TOL),
        generator="sobol-scrambled+gauss-fold",
        regions=regions,
    )
