"""Closed-form areas and the viability kernel of the reference double integrator.

The reference constraint is z(x) = -x0 - 0.1 max(x1, 0) (position x0,
velocity x1 = v) under |u| <= 300. Full braking gives dz/dt = -v + 30, so z
falls only while v > 30, and it is lowest when v reaches 30, after the car
has moved (v^2 - 900) / 600. The largest control-invariant subset of
{z >= 0}, the viability kernel, is therefore {x0 <= k(v)} with k(v) = 0 for
v <= 0, -0.1 v up to v = 30 and -3 - (v^2 - 900) / 600 above. k is concave,
so the kernel is convex.

A candidate's barrier is h(x) = z(D x + c) + eps, and z is concave and
piecewise linear, so h >= 0 exactly where both of its affine pieces are:
each candidate's set is two half-planes, and a fitted set within a box is a
convex polygon. A convex polygon lies in the convex kernel exactly when its
vertices do. Nothing here samples or calls the fit.
"""

import numpy as np

from cbfsynth.system import BoxSet

GAMMA2 = 0.1
V_CAP = 30.0                # the speed full braking holds z steady at: 300 GAMMA2
MULTI_TARGET = 622.25       # 95% of the input-feasible area, criterion 4's floor
KERNEL_TOL = 1e-9           # rounding allowance for clipped vertices


def kernel_edge(v):
    """k(v): the kernel is {x0 <= k(v)}."""
    v = np.asarray(v, dtype=float)
    braking = -GAMMA2 * V_CAP - (v ** 2 - V_CAP ** 2) / 600.0
    return np.where(v <= 0.0, 0.0, np.where(v <= V_CAP, -GAMMA2 * v, braking))


def _kernel_integral(v: float) -> float:
    """The integral of k from 0 to v."""
    if v <= 0.0:
        return 0.0
    if v <= V_CAP:
        return -0.5 * GAMMA2 * v ** 2
    cubic = ((v ** 3 - V_CAP ** 3) / 3.0 - V_CAP ** 2 * (v - V_CAP)) / 600.0
    return -0.5 * GAMMA2 * V_CAP ** 2 - GAMMA2 * V_CAP * (v - V_CAP) - cubic


def kernel_area(box: BoxSet) -> float:
    """Area of the kernel in a box whose position range spans k over its velocities."""
    (x_lo, v_lo), (x_hi, v_hi) = box.lower, box.upper
    assert x_lo <= kernel_edge(v_hi) and x_hi >= 0.0, "k leaves the box's position range"
    return _kernel_integral(v_hi) - _kernel_integral(v_lo) - x_lo * (v_hi - v_lo)


def half_planes(cand) -> list[tuple[np.ndarray, float]]:
    """The candidate's set as rows (a, b) of {a . x <= b}: with y = D x + c,
    h >= 0 iff y0 <= eps and y0 + 0.1 y1 <= eps."""
    (s0, s1), (c0, c1), eps = cand.scale, cand.shift, cand.offset
    return [(np.array([s0, 0.0]), eps - c0),
            (np.array([s0, GAMMA2 * s1]), eps - c0 - GAMMA2 * c1)]


def fitted_polygon(cands, box: BoxSet) -> list[np.ndarray]:
    """Vertices of the intersection of the candidates' sets with the box,
    by clipping the box with each half-plane in turn."""
    (x_lo, v_lo), (x_hi, v_hi) = box.lower, box.upper
    poly = [np.array(p) for p in ((x_lo, v_lo), (x_hi, v_lo), (x_hi, v_hi), (x_lo, v_hi))]
    for cand in cands:
        for a, b in half_planes(cand):
            clipped = []
            for p, q in zip(poly, poly[1:] + poly[:1]):
                fp, fq = a @ p - b, a @ q - b
                if fp <= 0.0:
                    clipped.append(p)
                if (fp < 0.0 < fq) or (fq < 0.0 < fp):
                    clipped.append(p + fp / (fp - fq) * (q - p))
            poly = clipped
    return poly


def polygon_area(poly) -> float:
    """Shoelace area of a simple polygon given in order."""
    if len(poly) < 3:
        return 0.0
    x, y = np.array(poly).T
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def exact_area(cands, box: BoxSet) -> float:
    return polygon_area(fitted_polygon(cands, box))


def outside_kernel(cands, box: BoxSet) -> list[np.ndarray]:
    """Vertices of the fitted polygon that lie outside the kernel."""
    return [p for p in fitted_polygon(cands, box) if p[0] > kernel_edge(p[1]) + KERNEL_TOL]


def binomial_se(area: float, box: BoxSet, n: int) -> float:
    """Standard error of a sample-count area estimate from n uniform samples."""
    vol = box.volume()
    p = area / vol
    return vol * float(np.sqrt(p * (1.0 - p) / n))


def fit_problems(fits: dict, box: BoxSet, n: int | None = None) -> list[str]:
    """What the closed forms find wrong with fit results by mode: a multi set
    below MULTI_TARGET, polygon vertices outside the kernel and, given the
    sample count n, a reported objective more than 3 standard errors from
    its exact area."""
    problems = []
    for mode, res in fits.items():
        area = exact_area(res.candidates, box)
        if mode == "multi" and area < MULTI_TARGET:
            problems.append(f"multi: exact area {area:.2f} < {MULTI_TARGET}")
        outside = outside_kernel(res.candidates, box)
        if outside:
            problems.append(f"{mode}: vertices outside the kernel {np.round(outside, 4)}")
        if n is not None:
            gap = abs(res.objective_value - area) / binomial_se(area, box, n)
            if gap > 3.0:
                problems.append(f"{mode}: objective {res.objective_value:.2f} is {gap:.1f} "
                                f"standard errors from the exact area {area:.2f}")
    return problems
