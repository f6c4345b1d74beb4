"""Shadowing of periodic pseudo-orbits by true periodic orbits.

For the smooth systems the cyclic system f(x_i) - x_{i+1} = 0 is solved
by Newton iteration started at the pseudo-orbit.  The linearized cyclic
block system is solved exactly through the stable/unstable splitting:
writing the correction in the adapted frame, the stable component obeys a
forward contraction recurrence and the unstable component a backward one,
each with an explicit cyclic fixed point (a geometric sum).  For linear
toral automorphisms and the affine horseshoe this single correction IS
the Newton step and lands at machine precision.

For shift systems shadowing is exact word concatenation: the glued cyclic
word reads off coordinate zero of every pseudo-orbit point, which is
admissible whenever the defect is below 1/2, and the resulting periodic
sequence agrees with each pseudo-orbit string outside a logarithmic
window around the jumps.

Residual bounds are floating point, not interval-arithmetic proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .homoclinic import PseudoOrbit, cyclic_period, min_distances
from .sft import enumerate_cycles, count_periodic_points
from .shiftspace import ShiftPoint, longest_common_prefixes, word_radius
from .systems import Horseshoe, SftSystem, ToralAutomorphism, net

NEWTON_MAX_ITER = 50


class ShadowingError(RuntimeError):
    pass


class ShadowingBoundViolatedError(ShadowingError):
    """Correction exceeded C * delta: bad hyperbolicity constants or a
    pseudo-orbit too coarse for the chart."""


@dataclass
class PeriodicOrbit:
    """True periodic orbit with its verification data."""

    points: list
    period: int
    residual: float
    shadow_distance: float = 0.0
    primitive_period: int | None = None
    shadowing_constant: float | None = None

    def __post_init__(self):
        if self.primitive_period is None:
            self.primitive_period = self.period

    def to_json_dict(self) -> dict:
        from .homoclinic import encode_point
        return {"points": [encode_point(p) for p in self.points],
                "n": self.period, "primitive_period": self.primitive_period,
                "residual": self.residual, "shadow_distance": self.shadow_distance}


def _wrap_diff(a: float, b: float) -> float:
    return (a - b + 0.5) % 1.0 - 0.5


def _defect_vectors(system, points) -> list[tuple[float, float]]:
    n = len(points)
    out = []
    wrap = isinstance(system, ToralAutomorphism)
    for i in range(n):
        fx = system.apply(points[i])
        nxt = points[(i + 1) % n]
        if wrap:
            out.append((_wrap_diff(float(fx[0]), float(nxt[0])),
                        _wrap_diff(float(fx[1]), float(nxt[1]))))
        else:
            out.append((float(fx[0]) - float(nxt[0]), float(fx[1]) - float(nxt[1])))
    return out


def _cyclic_correction(splitting, defects) -> list[tuple[float, float]]:
    """Solve A e_i - e_{i+1} = -d_i (the linearized cyclic system) in the
    adapted frame; returns the corrections e_i."""
    n = len(defects)
    vs, vu = splitting.v_s, splitting.v_u
    det = vs[0] * vu[1] - vs[1] * vu[0]
    alpha = []
    beta = []
    for d in defects:
        alpha.append((d[0] * vu[1] - d[1] * vu[0]) / det)
        beta.append((vs[0] * d[1] - vs[1] * d[0]) / det)
    lam_s, lam_u = splitting.lam_s, splitting.lam_u

    # stable: a_{i+1} = lam_s a_i + alpha_i, cyclic fixed point then forward
    geo = 0.0
    for k in range(n):
        geo += (lam_s ** k) * alpha[(n - 1 - k) % n]
    a = [0.0] * n
    a[0] = geo / (1.0 - lam_s ** n)
    for i in range(n - 1):
        a[i + 1] = lam_s * a[i] + alpha[i]

    # unstable: b_i = (b_{i+1} - beta_i) / lam_u, cyclic fixed point then backward
    geo = 0.0
    for k in range(n):
        geo += (lam_u ** (-(k + 1))) * beta[k % n]
    b = [0.0] * n
    b[0] = -geo / (1.0 - lam_u ** (-n))
    for i in range(n - 1, 0, -1):
        nxt = b[(i + 1) % n]
        b[i] = (nxt - beta[i]) / lam_u

    return [(a[i] * vs[0] + b[i] * vu[0], a[i] * vs[1] + b[i] * vu[1])
            for i in range(n)]


def shadow_periodic(system, po: PseudoOrbit, tol: float = 1e-12) -> PeriodicOrbit:
    """Shadow a periodic delta-pseudo-orbit by a true periodic orbit.

    The orbit is a fixed point of the n-step cyclic system, certified by a
    per-step residual at most ``tol``; the distance to the source
    pseudo-orbit must stay within C * delta for the shadowing constant C
    reported by the system's splitting, else the bound is declared
    violated.
    """
    if isinstance(system, SftSystem):
        return _shadow_symbolic(system, po)

    splitting = system.splitting()
    C = splitting.shadowing_constant
    delta = max(po.defect, 1e-300)
    if C * delta > system.chart_radius:
        raise ShadowingError(
            f"C * delta = {C * delta:.3g} exceeds the chart radius "
            f"{system.chart_radius}; pseudo-orbit too coarse to shadow")

    wrap = isinstance(system, ToralAutomorphism)
    points = [(float(p[0]), float(p[1])) for p in po.points]
    residual = max(math.hypot(*d) for d in _defect_vectors(system, points))
    for _ in range(NEWTON_MAX_ITER):
        if residual <= tol:
            break
        corrections = _cyclic_correction(splitting, _defect_vectors(system, points))
        points = [((p[0] + e[0]) % 1.0, (p[1] + e[1]) % 1.0) if wrap
                  else (p[0] + e[0], p[1] + e[1]) for p, e in zip(points, corrections)]
        residual = max(math.hypot(*d) for d in _defect_vectors(system, points))
    else:
        raise ShadowingError(f"Newton did not reach tol {tol}; last residual {residual:.3g}")

    shadow_distance = max(system.distance(p, q) for p, q in zip(points, po.points))
    if shadow_distance > C * delta:
        raise ShadowingBoundViolatedError(
            f"shadowing bound violated: distance {shadow_distance:.3g} > "
            f"C * delta = {C * delta:.3g}")
    return PeriodicOrbit(points=points, period=po.period, residual=residual,
                         shadow_distance=shadow_distance,
                         primitive_period=cyclic_period(system, points),
                         shadowing_constant=C)


def _shadow_symbolic(system: SftSystem, po: PseudoOrbit) -> PeriodicOrbit:
    if po.defect > 0.5:
        raise ShadowingError("symbolic gluing needs defect <= 1/2 "
                             "(agreement on coordinate zero)")
    word = tuple(p[0] for p in po.points)
    if not system.matrix.is_admissible_cycle(word):
        raise ShadowingError("glued word inadmissible; defect accounting broken")
    base = ShiftPoint.from_cycle(word)
    points = [base.shift(i) for i in range(po.period)]
    shadow_distance = max(system.distance(p, q) for p, q in zip(points, po.points))
    return PeriodicOrbit(points=points, period=po.period, residual=0.0,
                         shadow_distance=shadow_distance,
                         primitive_period=cyclic_period(system, points))


# -- exact periodic-orbit enumeration ------------------------------------


def enumerate_periodic_orbits(system, n: int, cap: int = 100_000) -> list[PeriodicOrbit]:
    """All fixed points of f^n, one entry per fixed point (so the list
    length is the exact fixed-point count), each carrying its primitive
    orbit.

    Toral systems are solved exactly on the rational lattice; shift and
    horseshoe systems enumerate admissible cyclic words.
    """
    if isinstance(system, ToralAutomorphism):
        out = []
        for p in system.periodic_lattice_points(n, cap=cap):
            orbit = system.orbit_of(p, cap=n + 1)
            out.append(PeriodicOrbit(points=orbit, period=len(orbit), residual=0.0))
        return out
    if isinstance(system, (SftSystem, Horseshoe)):
        matrix = system.matrix if isinstance(system, SftSystem) else system.coding_matrix
        if count_periodic_points(matrix, n) > cap:
            raise ValueError(f"more than {cap} fixed points at period {n}")
        out = []
        words = []
        for cyc in enumerate_cycles(matrix, n, limit=cap).cycles:
            pp = cyc.primitive_period
            for r in range(pp):
                words.append((cyc.states[r:] + cyc.states[:r], pp))
        for word, pp in sorted(words):
            pts = [ShiftPoint.from_cycle(word).shift(i) for i in range(pp)]
            if isinstance(system, Horseshoe):
                pts = [system.code_point(p) for p in pts]
            out.append(PeriodicOrbit(points=pts, period=pp, residual=0.0))
        return out
    raise TypeError(f"unknown system {system!r}")


@dataclass(frozen=True)
class DensityReport:
    dense: bool
    worst_distance: float
    witness: object | None


def density_check(system, orbit_points: Sequence, epsilon: float,
                  net_points: Sequence | None = None) -> DensityReport:
    """Is every net point within epsilon of some orbit point?

    With no explicit net, an epsilon/2-net of the full phase space is
    requested from the system; for semi-local statements pass the
    reference set (e.g. the homoclinic segment) as the net.

    On shift spaces the net representatives stand for anchored cylinders
    (one per admissible m-word at spacing 2^-m), so proximity there means
    sharing the forward window: the orbit covers a representative exactly
    when it enters its cylinder, which matches the factor-scan density of
    certificate witnesses.
    """
    if net_points is None:
        net_points = net(system, epsilon / 2.0)
    if isinstance(system, SftSystem):
        cap = max(word_radius(epsilon) + 8, 16)
        common = longest_common_prefixes([y.text(0, cap) for y in net_points],
                                         [x.text(0, cap) for x in orbit_points])
        distances = [2.0 ** (-m) for m in common]
    else:
        distances = min_distances(system, net_points, orbit_points)
    worst = max(distances, default=-1.0)
    return DensityReport(dense=worst <= epsilon, worst_distance=worst,
                         witness=None if worst <= epsilon
                         else net_points[distances.index(worst)])
