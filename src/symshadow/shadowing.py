"""Shadowing of periodic pseudo-orbits by true periodic orbits.

The smooth systems are linear or affine, so ``system.shadowing_orbit``
solves for the shadowing orbit in closed form (the Anosov closing lemma;
Katok & Hasselblatt 1995, sections 6.4 and 18.1): an integer lattice walk
up to its first return on the torus, the itinerary's affine cycle on the
horseshoe.

For shift systems shadowing is exact word concatenation: the glued cyclic
word reads off coordinate zero of every pseudo-orbit point, which is
admissible whenever the defect is below 1/2, and the resulting periodic
sequence agrees with each pseudo-orbit string outside a logarithmic
window around the jumps.  The shadow distance reads one-sided keys cut per
rung from the glued word by shift and mask (``cycle_distances``), and the
orbit is ``ShiftPoint.cycle_orbit``, whose points carry their forward keys
pre-cut at the window the density check cuts once.

The system supplies the geometry: ``shadowing_constant`` and
``shadowing_orbit`` on the planar systems, and a density query,
``nearest`` on the planar systems and the forward-window
``forward_distances`` on shifts.  Density measures the net, the reference,
against the orbit: the net is the query's first argument, and the system
keeps its index, so a net passed again is not indexed again.  Only two
branches read the system kind: the symbolic shadow takes its distances off
the glued word, and shift density uses forward windows.

Residual bounds are floating point, not interval-arithmetic proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .homoclinic import PseudoOrbit, cyclic_defect, encode_point
from .shiftspace import _FIRST_RADIUS, ShiftPoint, cycle_distances, word_radius
from .systems import SftSystem


class ShadowingError(RuntimeError):
    pass


class ShadowingBoundViolatedError(ShadowingError):
    """The shadowing orbit lies farther than C * delta from the pseudo-orbit:
    bad hyperbolicity constants or a pseudo-orbit too coarse for the chart."""


@dataclass
class PeriodicOrbit:
    """True periodic orbit with its verification data."""

    points: list
    period: int
    residual: float
    shadow_distance: float
    primitive_period: int

    def to_json_dict(self) -> dict:
        return {"points": [encode_point(p, 12) for p in self.points],
                "n": self.period, "primitive_period": self.primitive_period,
                "residual": self.residual, "shadow_distance": self.shadow_distance}


def shadow_periodic(system, po: PseudoOrbit, tol: float = 1e-12) -> PeriodicOrbit:
    """Shadow a periodic delta-pseudo-orbit by a true periodic orbit.

    The smooth systems solve for the orbit in closed form
    (``system.shadowing_orbit``), with its float per-step residual at most
    ``tol``; the distance to the source pseudo-orbit must stay within
    C * delta for the system's ``shadowing_constant`` C, else the bound is
    declared violated.
    """
    if isinstance(system, SftSystem):
        return _shadow_symbolic(system, po)

    C = system.shadowing_constant
    delta = max(po.defect, 1e-300)
    if C * delta > system.chart_radius:
        raise ShadowingError(
            f"C * delta = {C * delta:.3g} exceeds the chart radius "
            f"{system.chart_radius}; pseudo-orbit too coarse to shadow")

    points, primitive_period = system.shadowing_orbit(po.points)
    residual = cyclic_defect(system, points)
    if residual > tol:
        raise ShadowingError(f"closed-form orbit misses tol {tol}; residual {residual:.3g}")

    shadow_distance = float(system.distances(points, po.points).max())
    if shadow_distance > C * delta:
        raise ShadowingBoundViolatedError(
            f"shadowing bound violated: distance {shadow_distance:.3g} > "
            f"C * delta = {C * delta:.3g}")
    return PeriodicOrbit(points=points, period=po.period, residual=residual,
                         shadow_distance=shadow_distance,
                         primitive_period=primitive_period)


def _shadow_symbolic(system: SftSystem, po: PseudoOrbit) -> PeriodicOrbit:
    if po.defect > 0.5:
        raise ShadowingError("symbolic gluing needs defect <= 1/2 "
                             "(agreement on coordinate zero)")
    word = tuple(p[0] for p in po.points)
    if not system.matrix.is_admissible_cycle(word):
        raise ShadowingError("glued word inadmissible; defect accounting broken")
    points = ShiftPoint.cycle_orbit(word)
    shadow_distance = max(cycle_distances(word, po.points))
    return PeriodicOrbit(points=points, period=po.period, residual=0.0,
                         shadow_distance=shadow_distance,
                         primitive_period=points[0].period())


@dataclass(frozen=True)
class DensityReport:
    dense: bool
    worst_distance: float
    witness: object | None


def density_check(system, orbit_points: Sequence, epsilon: float,
                  net_points: Sequence) -> DensityReport:
    """Is every net point within epsilon of some orbit point?

    The net is required: pass ``system.net(epsilon / 2)`` for the full
    phase space, or the reference set (e.g. the homoclinic segment) for a
    semi-local statement.

    On shift spaces the net representatives stand for anchored cylinders
    (one per admissible m-word at spacing 2^-m), so proximity there means
    sharing the forward window: the orbit covers a representative exactly
    when it enters its cylinder, which matches the factor-scan density of
    certificate witnesses.
    """
    if isinstance(system, SftSystem):
        # any two shift points are within 1, so a larger epsilon reads as 1;
        # the window is at least the length cycle_orbit pre-cuts, so the one
        # cut of a shadow orbit reads its keys as built
        cap = max(word_radius(min(epsilon, 1.0)) + 8, _FIRST_RADIUS)
        distances = system.forward_distances(net_points, orbit_points, cap)
    else:
        distances = system.nearest(net_points, orbit_points)
    worst = max(distances, default=-1.0)
    return DensityReport(dense=worst <= epsilon, worst_distance=worst,
                         witness=None if worst <= epsilon
                         else net_points[distances.index(worst)])
