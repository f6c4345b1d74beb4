"""Output checks that do not trust the package under test.

Every check here recomputes its answer from the raw inputs with plain
Python (and numpy boolean products): primitivity from the Wielandt bound,
density from cyclic factors, orbits from the map formulas, weak-* sums
from the test family's observables.  None of them calls a public function
of ``symshadow``; they only read attributes of its results.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np


# -- subshifts ---------------------------------------------------------------


def is_essential(rows) -> bool:
    n = len(rows)
    return all(any(r) for r in rows) and all(any(rows[i][j] for i in range(n))
                                             for j in range(n))


def is_primitive_wielandt(rows) -> bool:
    """Some boolean power A^k with k >= (n-1)^2 + 1 is positive.

    For an essential matrix positivity persists to all higher powers, so
    squaring until the exponent passes the Wielandt bound decides
    primitivity with O(log n) products.
    """
    a = np.array(rows, dtype=bool)
    n = a.shape[0]
    bound = (n - 1) * (n - 1) + 1
    power, exponent = a, 1
    while exponent < bound:
        p = power.astype(np.int64)
        power = (p @ p) > 0
        exponent *= 2
    return bool(power.all())


def is_admissible_cycle(rows, word) -> bool:
    n = len(word)
    return n > 0 and all(0 <= s < len(rows) for s in word) and \
        all(rows[word[i]][word[(i + 1) % n]] for i in range(n))


def admissible_words(rows, length: int) -> set[tuple[int, ...]]:
    words = {(s,) for s in range(len(rows))}
    for _ in range(length - 1):
        words = {w + (t,) for w in words for t in range(len(rows)) if rows[w[-1]][t]}
    return words


def is_dense_cycle(rows, word, m: int) -> bool:
    """The cyclic word carries every admissible m-word as a cyclic factor."""
    n = len(word)
    tiled = tuple(word) * (m // n + 2)
    factors = {tiled[i:i + m] for i in range(n)}
    return admissible_words(rows, m) <= factors


def smallest_period(word) -> int:
    w = tuple(word)
    n = len(w)
    return next(p for p in range(1, n + 1) if n % p == 0 and w == w[p:] + w[:p])


# -- smooth systems ------------------------------------------------------------


def torus_step(matrix, p):
    (a, b), (c, d) = matrix
    x, y = float(p[0]), float(p[1])
    return ((a * x + b * y) % 1.0, (c * x + d * y) % 1.0)


def torus_dist(p, q) -> float:
    total = 0.0
    for u, v in zip(p, q):
        d = abs(float(u) - float(v)) % 1.0
        total += min(d, 1.0 - d) ** 2
    return math.sqrt(total)


def horseshoe_step(rates, p):
    mu_s, mu_u = rates
    x, y = float(p[0]), float(p[1])
    c = 0 if y <= 0.5 else 1
    return (mu_s * x + c * (1.0 - mu_s), mu_u * y - c * (mu_u - 1.0))


def plane_dist(p, q) -> float:
    return math.hypot(float(p[0]) - float(q[0]), float(p[1]) - float(q[1]))


def shadowing_constant(config: dict) -> float:
    """C of the stable/unstable splitting of a system configuration:
    2/sin(angle) times the larger geometric-series factor, from numpy's
    eigen decomposition."""
    if config["kind"] == "sft":
        # agreement on |i| < m at every step of a 2^-m pseudo-orbit makes
        # the glued orbit agree with each point on the same window
        return 1.0
    if config["kind"] == "horseshoe":
        mu_s, mu_u = config["rates"]
        vs, vu = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    else:
        vals, vecs = np.linalg.eig(np.array(config["matrix"], dtype=float))
        order = np.argsort(np.abs(vals))
        mu_s, mu_u = abs(vals[order[0]]), abs(vals[order[1]])
        vs, vu = vecs[:, order[0]], vecs[:, order[1]]
        vs, vu = vs / np.linalg.norm(vs), vu / np.linalg.norm(vu)
    sin = abs(vs[0] * vu[1] - vs[1] * vu[0])
    return 2.0 / sin * max(1.0 / (1.0 - mu_s), 1.0 / (1.0 - 1.0 / mu_u))


def smallest_point_period(points, dist, tol: float = 1e-9) -> int:
    n = len(points)
    for p in range(1, n + 1):
        if n % p == 0 and all(dist(points[i], points[(i + p) % n]) <= tol
                              for i in range(n)):
            return p
    return n


# -- measures ------------------------------------------------------------------


def is_toral_orbit(matrix, atoms) -> bool:
    """Exact rational atoms with uniform weights forming one orbit of x -> Ax mod 1."""
    pts = [p for p, _ in atoms]
    if any(not isinstance(c, Fraction) for p in pts for c in p):
        return False
    if any(w != Fraction(1, len(pts)) for _, w in atoms):
        return False
    (a, b), (c, d) = matrix

    def step(p):
        x, y = a * p[0] + b * p[1], c * p[0] + d * p[1]
        return (x - math.floor(x), y - math.floor(y))

    orbit = [pts[0]]
    cur = step(pts[0])
    while cur != pts[0] and len(orbit) <= len(pts):
        orbit.append(cur)
        cur = step(cur)
    return cur == pts[0] and sorted(orbit) == sorted(pts)


def is_shift_orbit(atoms, word) -> bool:
    """Atoms are the len(word) distinct shifts of the periodic point ``word``,
    each with weight 1/len(word)."""
    n = len(word)
    if len(atoms) != n or smallest_period(word) != n:
        return False
    phases = set()
    for p, w in atoms:
        if w != Fraction(1, n):
            return False
        window = tuple(p[i] for i in range(-n, 2 * n))
        for k in range(n):
            if all(window[i] == word[(i - n + k) % n] for i in range(3 * n)):
                phases.add(k)
                break
        else:
            return False
    return len(phases) == n


def integral(measure_spec, obs) -> complex:
    """Integral of a cylinder word (tuple) or Fourier frequency (``("k", k1, k2)``)
    against a benchmark-side measure description ``(kind, value)``."""
    kind = measure_spec[0]
    if kind == "lebesgue":
        return 0.0
    if kind == "bernoulli":
        return math.prod(measure_spec[1][s] for s in obs)
    if kind == "cycles":  # [(cyclic word, weight)]: a mix of periodic orbits
        total = 0.0
        for word, w in measure_spec[1]:
            tiled = tuple(word) * (len(obs) // len(word) + 2)
            hits = sum(tiled[k:k + len(obs)] == tuple(obs) for k in range(len(word)))
            total += float(w) * hits / len(word)
        return total
    if kind == "atoms":  # [(point, weight)] with shift points or torus points
        total = 0.0
        for p, w in measure_spec[1]:
            if obs[0] == "k":
                total += float(w) * cmath.exp(2j * math.pi * (obs[1] * float(p[0])
                                                              + obs[2] * float(p[1])))
            elif all(p[i] == s for i, s in enumerate(obs)):
                total += float(w)
        return total
    raise ValueError(f"unknown measure kind {kind!r}")


def weak_star(mu_spec, nu_spec, family) -> float:
    """sum_j w_j |int phi_j dmu - int phi_j dnu| over the family's observables."""
    total = 0.0
    for obs, w in zip(family.observables, family.weights):
        key = ("k",) + tuple(obs.k) if hasattr(obs, "k") else tuple(obs.word)
        total += w * abs(integral(mu_spec, key) - integral(nu_spec, key))
    return total
