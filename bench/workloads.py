"""The benchmark's workloads: seeded inputs, package-side preparation, ops
and their output checks.

Each workload turns ``(seed, seconds)`` into a list of plain-data inputs
(``make_inputs``), then ``prepare`` turns those into package objects and
returns one :class:`Op` per input.  ``Op.run`` is the timed call into the
package; ``Op.check`` runs outside the timed region and returns
``(ok, digest_item)``, where the digest item holds only exact outputs
(verdict kinds, N0 values, words, periods, pass flags).

Op counts depend only on ``seconds``, never on measured speed, so every
commit runs the same ops for the same arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]


def _word(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def _text(word) -> str:
    return "".join(str(s) for s in word)


# -- certify -------------------------------------------------------------------


class Certify:
    """dense_periods_certificate(matrix, 1/4, 100) on random essential
    0/1 matrices, stratified over state counts and densities."""

    name = "certify"
    STATES = (3, 4, 5, 6)
    DENSITIES = (0.3, 0.4, 0.55)
    EPSILON = 0.25
    N_MAX = 100
    OPS_PER_SECOND = 550

    def make_inputs(self, seed: int, seconds: float) -> list:
        rng = random.Random(seed)
        cells = [(n, d) for n in self.STATES for d in self.DENSITIES]
        per_cell = max(1, round(self.OPS_PER_SECOND * seconds / len(cells)))
        out = []
        for n, density in cells:
            for _ in range(per_cell):
                while True:
                    rows = [[int(rng.random() < density) for _ in range(n)]
                            for _ in range(n)]
                    if oracles.is_essential(rows):
                        break
                out.append(rows)
        rng.shuffle(out)
        return out

    def prepare(self, pkg, inputs: list) -> list[Op]:
        return [self._op(pkg, rows, pkg.TransitionMatrix(rows)) for rows in inputs]

    def _op(self, pkg, rows, matrix) -> Op:
        def run():
            return pkg.dense_periods_certificate(matrix, self.EPSILON, self.N_MAX)
        return Op(run, lambda out: check_certify(pkg, rows, out, self.N_MAX))


def check_certify(pkg, rows, out, n_max: int) -> tuple[bool, list]:
    """A certificate exactly for primitive matrices; its witnesses at N0 and
    n_max are admissible cycles of that length carrying every 2-word."""
    primitive = oracles.is_primitive_wielandt(rows)
    if isinstance(out, pkg.DensePeriodsCertificate):
        ok = primitive and out.word_length == 2 and out.n_max == n_max \
            and 2 <= out.N0 < n_max
        words = []
        for n in (out.N0, n_max):
            w = out.witnesses[n].states
            ok = ok and len(w) == n and oracles.is_admissible_cycle(rows, w) \
                and oracles.is_dense_cycle(rows, w, 2)
            words.append(_text(w))
        return ok, ["certificate", out.N0, *words]
    ok = not primitive and isinstance(out, pkg.DensePeriodsRefutation) \
        and 2 <= out.blocking_n <= n_max
    return ok, ["refutation", out.blocking_n, out.exhaustive]


# -- shadow-smooth and shadow-symbolic -----------------------------------------


TOL = 1e-12


class Shadow:
    """One op per period n in [N0, N0 + width) of each anchor: build the
    pseudo-orbit, verify it against the homoclinic reference set, shadow it
    and check the orbit's density at 3 epsilon."""

    def __init__(self, name: str, anchors: tuple, ops_per_anchor_second: float):
        self.name = name
        self.anchors = anchors  # (system file, anchor text, delta)
        self.rate = ops_per_anchor_second

    def make_inputs(self, seed: int, seconds: float) -> dict:
        rng = random.Random(seed)
        width = max(1, round(self.rate * seconds))
        ops = [[a, k] for a in range(len(self.anchors)) for k in range(width)]
        rng.shuffle(ops)
        systems = {f: _system_config(f) for f, _, _ in self.anchors}
        return {"anchors": [list(a) for a in self.anchors], "systems": systems,
                "width": width, "ops": ops}

    def prepare(self, pkg, inputs: dict) -> list[Op]:
        width = inputs["width"]
        anchors = [_Anchor(pkg, inputs["systems"][f], text, delta, width)
                   for f, text, delta in inputs["anchors"]]
        return [anchors[a].op(pkg, anchors[a].params.N0 + k) for a, k in inputs["ops"]]


def _system_config(file: str) -> dict:
    config = json.loads((DATA / file).read_text())
    return config if "kind" in config else {"kind": "sft", "matrix": config}


class _Anchor:
    def __init__(self, pkg, config: dict, text: str, delta: float, width: int):
        self.label = f"{config['kind']}:{text}"
        self.kind = config["kind"]
        self.config = config
        self.delta = delta
        self.system = pkg.parse_system(config)
        if self.kind == "toral":
            point = tuple(Fraction(c) for c in text.split(","))
        else:
            point = _word(text)
        forward, backward = 160, 80
        while True:
            datum = pkg.homoclinic_point(self.system, point, delta=delta,
                                         forward_length=forward,
                                         backward_length=backward)
            params = pkg.compute_excursion_parameters(datum)
            need = params.x_index + params.N0 + width  # last near-p iterate used
            if need <= datum.k_fwd:
                break
            forward = need + 40
        self.datum, self.params = datum, params
        self.reference = list(datum.segment) + list(datum.p_orbit)
        self.C = oracles.shadowing_constant(config)

    def op(self, pkg, n: int) -> Op:
        datum, params, system, reference = self.datum, self.params, self.system, self.reference

        def run():
            po = pkg.build_periodic_pseudo_orbit(datum, params, n)
            report = pkg.verify_pseudo_orbit(po, datum.delta, reference=reference)
            orbit = pkg.shadow_periodic(system, po, tol=TOL)
            eps = max(report["hausdorff_to_reference"], orbit.shadow_distance, 1e-12)
            dense = pkg.density_check(system, orbit.points, 3.0 * eps,
                                      net_points=reference)
            return po, report, orbit, dense

        check = self.check_symbolic if self.kind == "sft" else self.check_smooth
        return Op(run, lambda out: check(n, out))

    def _common(self, n: int, out) -> bool:
        po, report, orbit, dense = out
        return (len(po.points) == n and po.period == n and len(orbit.points) == n
                and po.defect <= self.delta and report["within_delta"]
                and report["exact_period_ok"] and orbit.residual <= TOL
                and dense.dense)

    def check_smooth(self, n: int, out) -> tuple[bool, list]:
        po, _, orbit, _ = out
        if self.kind == "toral":
            matrix = self.config["matrix"]
            step, dist = (lambda p: oracles.torus_step(matrix, p)), oracles.torus_dist
        else:
            rates = self.config["rates"]
            step, dist = (lambda p: oracles.horseshoe_step(rates, p)), oracles.plane_dist
        pts, orb = po.points, orbit.points
        defect = max(dist(step(pts[i]), pts[(i + 1) % n]) for i in range(n))
        closure = max(dist(step(orb[i]), orb[(i + 1) % n]) for i in range(n))
        shadow = max(dist(p, q) for p, q in zip(orb, pts))
        period = oracles.smallest_point_period(orb, dist)
        ok = (self._common(n, out) and defect <= self.delta and closure <= 1e-10
              and shadow <= self.C * self.delta and period == n)
        return ok, [self.label, n, period, list(po.jump_indices), ok]

    def check_symbolic(self, n: int, out) -> tuple[bool, list]:
        po, _, orbit, _ = out
        m = 0
        while 2.0 ** -m > self.delta:
            m += 1
        window = range(-m + 1, m)
        pts, orb = po.points, orbit.points
        word = tuple(p[0] for p in orb)
        defect_ok = all(pts[i][j + 1] == pts[(i + 1) % n][j] for i in range(n) for j in window)
        closure_ok = all(orb[i][j + 1] == orb[(i + 1) % n][j]
                         for i in range(n) for j in range(-n, n)) \
            and all(orb[0][j] == orb[0][j + n] for j in range(-n, n))
        shadow_ok = all(orb[i][j] == pts[i][j] for i in range(n) for j in window)
        rows = self.config["matrix"]["rows"]
        period = oracles.smallest_period(word)
        ok = (self._common(n, out) and defect_ok and closure_ok and shadow_ok
              and period == n and oracles.is_admissible_cycle(rows, word))
        return ok, [self.label, n, _text(word), ok]


SHADOW_SMOOTH = Shadow("shadow-smooth", (
    ("cat_map.json", "0,0", 0.01),
    ("cat_map.json", "1/5,2/5", 0.01),
    ("horseshoe.json", "0", 0.05),
    ("horseshoe.json", "01", 0.05),
    ("horseshoe.json", "001", 0.05),
), ops_per_anchor_second=5.5)

SHADOW_SYMBOLIC = Shadow("shadow-symbolic", (
    ("full_2_shift.json", "0", 0.125),
    ("full_2_shift.json", "01", 0.125),
    ("golden_mean.json", "0", 0.125),
    ("golden_mean.json", "01", 0.125),
), ops_per_anchor_second=1.1)


# -- measure -------------------------------------------------------------------


class Measure:
    """A fixed mix of approximation requests per round.  The seed orders the
    requests and picks each one's target among choices of equal cost
    (symbol relabelings, nearby weights), so the mix costs the same on
    every seed."""

    name = "measure"
    SYSTEMS = {"full": "full_2_shift.json", "golden": "golden_mean.json",
               "torus": "cat_map.json"}
    DEPTH = 3
    FREQUENCY = 3
    ROUND_SECONDS = 3.3
    # (max_period choices, max_denominator) of the torus requests: the scan
    # costs about max_denominator^3 and grows with max_period
    TORUS = (((24, 25), 28), ((29, 30), 33))

    def make_inputs(self, seed: int, seconds: float) -> dict:
        rng = random.Random(seed)
        rounds = max(1, round(seconds / self.ROUND_SECONDS))
        requests = []
        for _ in range(rounds):
            requests.extend(self._round(rng))
        rng.shuffle(requests)
        return {"systems": {k: _system_config(f) for k, f in self.SYSTEMS.items()},
                "requests": requests}

    def _round(self, rng: random.Random) -> list[dict]:
        def weights(lo: int, hi: int) -> tuple[str, str]:
            w = Fraction(rng.randint(lo, hi), 100)
            return str(w), str(1 - w)

        def swap(word: str) -> str:  # the 0 <-> 1 relabeling of the full shift
            return word.translate(str.maketrans("01", "10"))

        flip = rng.random() < 0.5
        word5, single, pair = "00011", ("0", "1"), ("0", "01")
        if flip:
            word5, single, pair = swap(word5), ("1", "0"), ("1", "10")
        third = rng.choice(["1/3", "1/2", "2/3"])
        w_gold, w_full, w_pg = weights(60, 90), weights(45, 55), weights(45, 55)
        reqs = [
            {"kind": "bernoulli", "shift": "full", "target": ["bernoulli", weights(42, 58)],
             "cycle": "01", "epsilon": 0.3, "m_max": 10},
            {"kind": "bernoulli", "shift": "golden",
             "target": ["cycles", [["01", w_gold[0]], ["0", w_gold[1]]]],
             "cycle": "01", "epsilon": 0.3, "m_max": 10},
            {"kind": "bernoulli", "shift": "full", "target": ["cycles", [[word5, "1"]]],
             "cycle": None, "epsilon": 0.1, "m_max": 5},
            {"kind": "bernoulli", "shift": "full",
             "target": ["cycles", [[single[0], third],
                                   [single[1], str(1 - Fraction(third))]]],
             "cycle": None, "epsilon": 0.1, "m_max": 6},
            {"kind": "periodic", "shift": "full",
             "target": ["cycles", [[pair[0], w_full[0]], [pair[1], w_full[1]]]],
             "epsilon": 0.1, "max_period": 12},
            {"kind": "periodic", "shift": "golden",
             "target": ["cycles", [["0", w_pg[0]], ["001", w_pg[1]]]],
             "epsilon": 0.1, "max_period": 12},
            {"kind": "periodic", "shift": "full", "target": ["bernoulli", weights(42, 58)],
             "epsilon": 0.1, "max_period": 12},
        ]
        for periods, denominator in self.TORUS:
            reqs.append({"kind": "torus", "epsilon": 0.05,
                         "max_period": rng.choice(periods),
                         "max_denominator": denominator})
        return reqs

    def prepare(self, pkg, inputs: dict) -> list[Op]:
        configs = inputs["systems"]
        systems = {}
        for key, config in configs.items():
            system = pkg.parse_system(config)
            family = (pkg.fourier_family(self.FREQUENCY) if key == "torus"
                      else pkg.cylinder_family(system.matrix, self.DEPTH))
            systems[key] = (config, system, family)
        return [self._op(pkg, req, systems) for req in inputs["requests"]]

    def _op(self, pkg, req: dict, systems: dict) -> Op:
        eps = req["epsilon"]
        if req["kind"] == "torus":
            config, system, family = systems["torus"]
            target = pkg.LebesgueTorus()
            matrix_rows = config["matrix"]

            def run():
                return pkg.approximate_by_periodic(
                    target, system, eps, family, max_period=req["max_period"],
                    max_denominator=req["max_denominator"])

            def check(res):
                atoms = res.measure.atoms
                d = oracles.weak_star(("lebesgue",), ("atoms", atoms), family)
                ok = (res.within_epsilon and oracles.is_toral_orbit(matrix_rows, atoms)
                      and len(atoms) <= req["max_period"]
                      and abs(d - res.distance) <= 1e-9 and d <= eps)
                return ok, ["torus", res.description, len(atoms), ok]
            return Op(run, check)

        config, system, family = systems[req["shift"]]
        matrix, rows = system.matrix, config["matrix"]["rows"]
        target = self._target(pkg, matrix, req["target"])
        spec = _target_spec(req["target"])
        if req["kind"] == "periodic":
            def run():
                return pkg.approximate_by_periodic(target, system, eps, family,
                                                   max_period=req["max_period"])

            def check(res):
                atoms = res.measure.atoms
                word = tuple(atoms[0][0][i] for i in range(len(atoms)))
                d = oracles.weak_star(spec, ("atoms", atoms), family)
                ok = (res.within_epsilon and oracles.is_shift_orbit(atoms, word)
                      and oracles.is_admissible_cycle(rows, word)
                      and abs(d - res.distance) <= 1e-9 and d <= eps)
                return ok, ["periodic", res.description, len(atoms), ok]
            return Op(run, check)

        cycle = _word(req["cycle"]) if req["cycle"] else None

        def run():
            return pkg.bernoulli_approximation(target, matrix, eps, family, cycle=cycle,
                                               m_max=req["m_max"])

        def check(ba):
            scan = [d for _, d in ba.scan]
            ok = (ba.within_epsilon
                  and all(b <= a + 1e-15 for a, b in zip(scan, scan[1:]))
                  and oracles.is_primitive_wielandt(ba.subshift.matrix.rows)
                  and oracles.is_shift_orbit(ba.periodic_measure.atoms, ba.cycle)
                  and (cycle is None or ba.cycle == cycle)
                  and ba.subshift.matrix.size <= 64)
            return ok, ["bernoulli", _text(ba.cycle), ba.m, ba.subshift.matrix.size, ok]
        return Op(run, check)

    @staticmethod
    def _target(pkg, matrix, target: list):
        kind, value = target
        if kind == "bernoulli":
            return pkg.BernoulliProduct([float(Fraction(p)) for p in value])
        atoms = []
        for word, weight in value:
            for point, w in pkg.cycle_measure(matrix, _word(word)).atoms:
                atoms.append((point, Fraction(weight) * w))
        return pkg.FiniteSupportMeasure(atoms)


def _target_spec(target: list):
    """Benchmark-side description of a target for :func:`oracles.weak_star`."""
    kind, value = target
    if kind == "bernoulli":
        return ("bernoulli", [float(Fraction(p)) for p in value])
    return ("cycles", [(_word(w), Fraction(x)) for w, x in value])


WORKLOADS = {w.name: w for w in (Certify(), SHADOW_SMOOTH, SHADOW_SYMBOLIC, Measure())}
