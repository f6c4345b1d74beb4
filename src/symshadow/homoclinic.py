"""Periodic pseudo-orbits built from homoclinic data.

Given a hyperbolic periodic point p of period tau and a transverse
homoclinic point q whose backward orbit follows the orbit of f(p) and
whose forward orbit follows the orbit of p, this module assembles, for
every prescribed length n >= N0, a periodic delta-pseudo-orbit of exact
period n that stays close to O(p) u O(q): n is decomposed into r
excursion strings along the homoclinic loop (each of length l*tau + 1,
shifting the phase along the p-orbit by one) followed by a block of
iterates near the p-orbit, with jumps of size < delta only where two
points sit in the same delta/2-ball.

The excursion count r is n mod tau, taken in 1..tau: lengths divisible
by tau use tau excursions, since a pseudo-orbit made of whole p-loops
alone would have period tau rather than n, so the phase must be walked
all the way around.  Each string has l*tau + 1 = 1 (mod tau) points, so
the remainder n - r*(l*tau + 1) is a multiple of tau, and it is >= 0
exactly when n >= r*(l*tau + 1).  The least n of class r that is
>= l*tau^2 + 1 is l*tau^2 + r >= r*(l*tau + 1), so every n >= N0 =
l*tau^2 + 1 is built; n = l*tau^2 lies in class tau and would need
n >= l*tau^2 + tau, so N0 is exact.

The geometry is the system's: its map, its elementwise ``distances``, and
its point-set queries ``cyclic_period`` and ``hausdorff``.  The Hausdorff
distance of a pseudo-orbit to the reference set O(q) u O(p) takes the
reference second, and the system keeps its index: every length checked
against one reference indexes it once.  Every pseudo-orbit point is a
segment point, so a member of the reference: on the planar systems it
reads 0 and its row of the gauge matrix the index holds (up to
``systems._BLOCK_ENTRIES`` entries), and the check measures nothing afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from .sft import PreconditionError


@dataclass(frozen=True)
class HomoclinicDatum:
    """Periodic point p with period tau, a homoclinic orbit segment, and
    the pseudo-orbit tolerance delta; tau is read off the p-orbit, and the
    tails are checked once, at construction.

    ``segment[k + k_back]`` holds f^k(q) for k in [-k_back, k_fwd]; the
    backward tail tracks the orbit of f(p) (one phase ahead), the forward
    tail the orbit of p.  Both tails must enter the delta/2-ball of the
    right phase point and carry at least tau points near translates of O(p).
    ``orbit`` is k -> f^k(q), from which :meth:`covering` extends the segment.
    """

    system: Any
    p_orbit: tuple  # (f^0(p), ..., f^{tau-1}(p))
    segment: tuple
    k_back: int
    delta: float
    orbit: Callable = field(compare=False)
    tau: int = field(init=False)

    def __post_init__(self):
        for name, value in (("p_orbit", tuple(self.p_orbit)), ("segment", tuple(self.segment)),
                            ("delta", float(self.delta)), ("tau", len(self.p_orbit))):
            object.__setattr__(self, name, value)
        tau, half = self.tau, self.delta / 2.0
        # the forward tail follows O(p): f^k(q) near f^(k mod tau)(p) at the far end;
        # the backward tail follows O(f(p)): f^k(q) near f^(k+1)(p) at the near end
        for tail, orbit, ks, phase in (
                ("forward", "p", range(self.k_fwd - tau + 1, self.k_fwd + 1), 0),
                ("backward", "f(p)", range(-self.k_back, tau - self.k_back), 1)):
            near = [self.p_orbit[(k + phase) % tau] for k in ks]
            if self.system.distances([self.q_point(k) for k in ks], near).max() > half:
                raise PreconditionError(f"{tail} tail of homoclinic segment not "
                                        f"within delta/2 of the {orbit}-orbit")

    def q_point(self, k: int):
        """f^k(q); raises when the stored segment does not reach k."""
        idx = k + self.k_back
        if not 0 <= idx < len(self.segment):
            raise PreconditionError(
                f"segment covers q-orbit indices [{-self.k_back}, {self.k_fwd}], needed {k}")
        return self.segment[idx]

    @property
    def k_fwd(self) -> int:
        return len(self.segment) - 1 - self.k_back

    @property
    def reference(self) -> tuple:
        """The segment and the p-orbit: the set O(q) u O(p) a pseudo-orbit stays near."""
        return self.segment + self.p_orbit

    def covering(self, params: "ExcursionParameters", n: int) -> "HomoclinicDatum":
        """This datum, if its segment reaches back to f^(x_index - (l + tau) tau - 1)(q),
        where the first of tau excursions starts, and on to f^(x_index + n)(q), past
        the last point a pseudo-orbit of length <= n reads; otherwise the datum with
        the missing points evaluated and added at either end, its tails checked again.
        The points do not depend on the segment's length, so ``params`` stand."""
        first = params.x_index - (params.l + self.tau) * self.tau - 1
        last = params.x_index + n
        if -self.k_back <= first and last <= self.k_fwd:
            return self
        before = tuple(self.orbit(k) for k in range(first, -self.k_back))
        return replace(self, k_back=self.k_back + len(before), segment=before + self.segment
                       + tuple(self.orbit(k) for k in range(self.k_fwd + 1, last + 1)))

    def in_p_ball(self, point, radius: float) -> bool:
        return self.system.distance(point, self.p_orbit[0]) <= radius


@dataclass(frozen=True)
class ExcursionParameters:
    """Anchor x = f^{N tau}(q) deep in the forward tail, the first backward
    return index l, and the least length N0 from which every period is built."""

    N: int
    l: int
    x_index: int   # = N * tau, index of x in the q-orbit
    N0: int        # l * tau^2 + 1


@dataclass(frozen=True)
class PseudoOrbit:
    """Cyclic point sequence of ``system``; its period n = len(points), defect
    max_i d(f(x_i), x_{i+1 mod n}) and exact period (no smaller cyclic
    period) are read off the points once, at construction.

    ``jump_indices`` are the steps i at which the construction jumped;
    every other step is an exact application of the map.
    """

    system: Any
    points: tuple
    jump_indices: tuple[int, ...] = ()
    period: int = field(init=False)
    defect: float = field(init=False)
    exact_period: bool = field(init=False)

    def __post_init__(self):
        system, pts = self.system, tuple(self.points)
        if not pts:
            raise ValueError("empty pseudo-orbit: the point sequence is empty")
        for name, value in (("points", pts), ("jump_indices", tuple(self.jump_indices)),
                            ("period", len(pts)), ("defect", cyclic_defect(system, pts)),
                            ("exact_period", system.cyclic_period(pts) == len(pts))):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {"points": [encode_point(p, 12) for p in self.points],
                "n": self.period, "defect": self.defect}


def cyclic_defect(system, points: Sequence) -> float:
    """max_i d(f(x_i), x_{i+1 mod n}) over the cyclic sequence ``points``."""
    points = tuple(points)
    return float(system.distances([system.apply(x) for x in points],
                                  points[1:] + points[:1]).max())


def encode_point(p, radius: int):
    """Symbolic points as centered words of ``radius`` symbols a side,
    planar points as decimal pairs with 15 significant digits."""
    if hasattr(p, "centered_word"):
        return p.centered_word(radius)
    return [f"{float(c):.15g}" for c in p]


def compute_excursion_parameters(datum: HomoclinicDatum) -> ExcursionParameters:
    """Locate x = f^{N tau}(q) and the backward return index l.

    N is minimal with f^{-r tau}(x) within delta/2 of p for r = 0..tau
    (one multiple beyond the excursion count, so that the jump out of the
    first of tau excursions also lands near p); l is minimal positive with
    f^{-l tau - 1}(x) within delta/2 of p.
    """
    half = datum.delta / 2.0
    tau = datum.tau
    k_fwd = datum.k_fwd

    N = None
    for cand in range(1, k_fwd // tau + 1):
        if (cand - tau) * tau < -datum.k_back:
            continue
        if all(datum.in_p_ball(datum.q_point((cand - r) * tau), half)
               for r in range(tau + 1)):
            N = cand
            break
    if N is None:
        raise PreconditionError(
            f"no anchor x = f^(N tau)(q) with tau+1 backward tau-multiples near p, tau = {tau}, "
            f"in the q-orbit indices [{-datum.k_back}, {k_fwd}]")

    x_index = N * tau
    l = None
    cand = 1
    while x_index - cand * tau - 1 >= -datum.k_back:
        if datum.in_p_ball(datum.q_point(x_index - cand * tau - 1), half):
            l = cand
            break
        cand += 1
    if l is None:
        raise PreconditionError(
            "backward tail never re-enters the delta/2-ball of p at a (-l tau - 1)-index, "
            f"tau = {tau}, in the q-orbit indices [{-datum.k_back}, {x_index - tau - 1}]")

    return ExcursionParameters(N=N, l=l, x_index=x_index, N0=l * tau * tau + 1)


def build_periodic_pseudo_orbit(datum: HomoclinicDatum, params: ExcursionParameters,
                                n: int) -> PseudoOrbit:
    """Periodic delta-pseudo-orbit of exact period n >= params.N0.

    Writes n = r*(l*tau + 1) + a*tau with r in {1..tau} congruent to n mod
    tau (r = tau when tau divides n) and a >= 0: r excursion strings, each
    the l*tau + 1 true iterates starting at f^{-(l + r - j) tau - 1}(x),
    then a*tau iterates of x along the forward tail, then the closing jump
    back to the start.
    """
    tau, l = datum.tau, params.l
    if n < params.N0:
        raise ValueError(f"n = {n} below the admissible threshold N0 = {params.N0}")
    r = n % tau or tau
    string_len = l * tau + 1
    a_tau = n - r * string_len

    x_index = params.x_index
    points, jump_indices = [], []
    for j in range(r):
        start = x_index - (l + r - j) * tau - 1
        points.extend(datum.q_point(start + t) for t in range(string_len))
        jump_indices.append(len(points) - 1)
    points.extend(datum.q_point(x_index + t) for t in range(a_tau))
    assert len(points) == n
    if a_tau > 0:
        jump_indices.append(n - 1)  # closure out of the near-p block
    # when a_tau = 0 the final excursion jump, already recorded, is the closure

    po = PseudoOrbit(datum.system, points, jump_indices)
    if po.defect > datum.delta:
        raise ValueError(f"constructed pseudo-orbit has defect {po.defect} > "
                         f"delta = {datum.delta}; datum tolerances inconsistent")
    return po


def verify_pseudo_orbit(po: PseudoOrbit, delta: float, reference: Sequence) -> dict:
    """The defect against delta and the exact period, as the pseudo-orbit
    read them off its points, and the Hausdorff distance to the required,
    non-empty ``reference``."""
    return {"max_defect": po.defect, "within_delta": po.defect <= delta,
            "exact_period_ok": po.exact_period,
            "hausdorff_to_reference": po.system.hausdorff(po.points, reference)}
