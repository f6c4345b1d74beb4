"""Command-line front end: file-based, deterministic experiment runner.

Subcommands
    analyze        subshift report: irreducibility, primitivity, class
                   period and cyclic decomposition, entropy, exact
                   periodic-point counts
    lpp            certificate or refutation that every large period has
                   an epsilon-dense periodic point
    pseudo-shadow  homoclinic pseudo-orbits of every length in a range,
                   shadowed into true periodic orbits, with per-n defect,
                   residual, shadowing and Hausdorff distance columns
    approx-measure best periodic or mixing-Markov approximation of a
                   target measure, with a CSV scan trace
    perturb-smoke  horseshoe rates perturbed by a relative magnitude;
                   certificates before and after are compared
    coding-table   horseshoe word <-> point table at a requested depth

All inputs and outputs are JSON (CSV for scan traces); every report
embeds the fully resolved configuration and the package version, and
reruns are byte-identical.  Exit codes: 0 success, 2 invalid input,
3 horizon or precondition failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dense_periods import (BlockGraphTooLargeError, DensePeriodsCertificate,
                            DensePeriodsRefutation, HorizonTooSmallError,
                            dense_periods_certificate, homoclinic_restricted_certificate)
from .homoclinic import (InsufficientSegmentError, build_periodic_pseudo_orbit,
                         compute_excursion_parameters, verify_pseudo_orbit)
from .measures import (BernoulliProduct, BlockSubshiftTooLargeError, FiniteSupportMeasure,
                       LebesgueTorus, approximate_by_periodic, bernoulli_approximation,
                       cycle_measure, cylinder_family, fourier_family, weak_star_distance)
from .sft import (ConvergenceError, NonEssentialMatrixError, ReducibleMatrixError,
                  SymbolicCycle, TransitionMatrix, count_periodic_points,
                  cyclic_decomposition, is_irreducible, is_primitive, topological_entropy)
from .shadowing import ShadowingError, shadow_periodic
from .systems import (Horseshoe, SftSystem, ToralAutomorphism, homoclinic_point,
                      parse_system)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class PreconditionError(RuntimeError):
    """Horizon or precondition failures mapped to exit code 3."""


# coding-table depths above this are refused: the table has 4^depth rows,
# and depth 9 already peaks near 400 MB and writes 35 MB of JSON
MAX_CODING_DEPTH = 9

# pseudo-shadow lengths above this are refused before the homoclinic segment is sized
# from N0 and --n-to (a defaulted N0 + 30 too): the symbolic run grows near n^2.7, about
# 5 s at n = 300 and 2 min with 420 MB at n = 1000 on the full 2-shift (2-core x86_64)
MAX_SHADOW_LENGTH = 512

# torus approx-measure requests walking more lattice steps than this are refused: each
# of the sum of q^2 lattice points over q <= Q = --max-denominator takes up to
# min(--max-period, Q^2) steps, as an orbit of points of exact order q has fewer than q^2
# points, and each step costs about 1,024 more for its fixed array passes.  The cat map at
# --max-period 30 runs Q = 376 (the last kept) in 1.6 s near 147 MB; in the library
# Q = 400 takes 2.0 s and Q = 500 3.9 s, both near 148 MB, and Q = 100,000 ran past 60 s
# (2-core x86_64)
MAX_LATTICE_STEPS = 1 << 29

# lpp reports listing more witness symbols than this (the sum of n over [N0, n_max])
# are refused: golden mean, epsilon 1/4, n_max 8000 lists 32M symbols in 10.5 s,
# peaks near 520 MB and writes 32 MB of JSON; n_max 30,000 ran out of memory
MAX_WITNESS_SYMBOLS = 1 << 25


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_matrix(path: str) -> TransitionMatrix:
    system = parse_system(_load_json(path))
    if not isinstance(system, SftSystem):
        raise ValueError(f"{path}: expected a transition matrix or an sft system")
    return system.matrix


def _parse_word(text: str, what: str = "cycle word") -> tuple[int, ...]:
    if not text.strip().isdecimal():  # the characters int reads as one digit each
        raise ValueError(f"{what} must be one or more digits, got {text!r}")
    return tuple(int(c) for c in text.strip())


def _parse_rational_point(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x,y', got {text!r}")
    return tuple(_fraction(part, "point coordinates") for part in parts)


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)  # spaces around the number are allowed
    except ZeroDivisionError as exc:
        raise ValueError(f"{what} must be rationals, got {text!r}") from exc


def _emit(args, parameters: dict, report: dict, table: list | None = None) -> None:
    """Write the JSON report, headed by the fully resolved parameters so no
    default stays hidden, into --out as <command>.json, and given a table
    (header row first) its CSV trace; echo the one --format names to stdout."""
    config = {"command": args.command, "parameters": parameters,
              "seed": args.seed, "version": __version__}
    text = json.dumps({"config": config, **report}, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    name = args.command.replace("-", "_")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(text)
    if table is not None:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        (out / f"{name}.csv").write_text(buf.getvalue())
    sys.stdout.write(buf.getvalue() if getattr(args, "format", "json") == "csv" else text)


def _refuse_below_one(args, *names: str) -> None:
    """ValueError naming the first option of ``names`` whose value is below 1."""
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {getattr(args, name)}")


# -- subcommands ----------------------------------------------------------


def cmd_analyze(args) -> int:
    matrix = _load_matrix(args.matrix)
    _refuse_below_one(args, "max_period")
    parameters = {"matrix": [list(r) for r in matrix.rows], "max_period": args.max_period}
    irreducible = is_irreducible(matrix)
    report: dict = {
        "size": matrix.size,
        "irreducible": irreducible,
        "primitive": is_primitive(matrix),
        "periodic_counts": {str(n): _printable(count_periodic_points(matrix, n))
                            for n in range(1, args.max_period + 1)},
    }
    if irreducible:
        decomp = cyclic_decomposition(matrix)
        report["class_period"] = decomp.class_period
        report["classes"] = [sorted(c) for c in decomp.classes]
        report["entropy"] = topological_entropy(matrix)
    _emit(args, parameters, report)
    return EXIT_OK


def _printable(count: int) -> int:
    """count, refused past the int-to-str digit limit (0 for none); each
    count is checked, as those of a periodic matrix need not grow."""
    limit = sys.get_int_max_str_digits()  # counts of at most 3 limit bits are below 10^limit
    if limit and count.bit_length() > 3 * limit and count >= 10 ** limit:
        raise PreconditionError(f"a periodic-point count of {count.bit_length()} bits "
                                f"has more than {limit} digits")
    return count


def cmd_lpp(args) -> int:
    matrix = _load_matrix(args.matrix)
    parameters = {"matrix": [list(r) for r in matrix.rows], "epsilon": args.epsilon,
                  "n_max": args.n_max, "cycle": args.cycle}
    if args.cycle is not None:
        cyc = SymbolicCycle.from_word(matrix, _parse_word(args.cycle, "--cycle"))
        result = homoclinic_restricted_certificate(matrix, cyc, args.epsilon, args.n_max)
    else:
        result = dense_periods_certificate(matrix, args.epsilon, args.n_max)
    verdict = "certificate" if isinstance(result, DensePeriodsCertificate) else "refutation"
    if verdict == "certificate":  # witnesses are built as the report lists them
        symbols = (result.N0 + args.n_max) * (args.n_max - result.N0 + 1) // 2
        if symbols > MAX_WITNESS_SYMBOLS:
            raise PreconditionError(f"--n-max {args.n_max} lists {symbols} witness symbols "
                                    f"(N0 = {result.N0}), more than {MAX_WITNESS_SYMBOLS}")
    report = {"verdict": verdict, **result.to_json_dict()}
    _emit(args, parameters, report)
    return EXIT_OK


def cmd_pseudo_shadow(args) -> int:
    system = parse_system(_load_json(args.system))
    if isinstance(system, ToralAutomorphism):
        anchor = _parse_rational_point(args.point_or_cycle)
    else:
        anchor = _parse_word(args.point_or_cycle)
    if args.delta <= 0:
        raise ValueError(f"--delta must be > 0, got {args.delta}")
    if args.tol < 0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    for flag, bound in (("--n-from", args.n_from), ("--n-to", args.n_to)):
        if bound is not None and bound > MAX_SHADOW_LENGTH:
            raise PreconditionError(f"{flag} {bound} exceeds {MAX_SHADOW_LENGTH}: the "
                                    "segment and the orbits grow with the length")
    datum = homoclinic_point(system, anchor, delta=args.delta)
    params = compute_excursion_parameters(datum)
    n_from = params.N0 if args.n_from is None else args.n_from
    n_to = n_from + 30 if args.n_to is None else args.n_to
    if n_from < params.N0:
        raise PreconditionError(f"n range starts below N0 = {params.N0}")
    if n_to < n_from:
        raise PreconditionError(f"empty length range [{n_from}, {n_to}] "
                                f"(N0 = {params.N0})")
    if n_to > MAX_SHADOW_LENGTH:  # a defaulted range [N0, N0 + 30] can reach past it
        raise PreconditionError(f"length range [{n_from}, {n_to}] (N0 = {params.N0}) exceeds "
                                f"{MAX_SHADOW_LENGTH}: the orbits grow with the length")
    datum = datum.covering(params, n_to)
    parameters = {"system": system.to_config(), "anchor": str(args.point_or_cycle),
                  "delta": args.delta, "n_from": n_from, "n_to": n_to, "tol": args.tol}

    reference = datum.reference
    rows = []
    dumps = []
    for n in range(n_from, n_to + 1):
        po = build_periodic_pseudo_orbit(datum, params, n)
        check = verify_pseudo_orbit(po, datum.delta, reference=reference)
        orbit = shadow_periodic(system, po, tol=args.tol)
        if args.dump_orbits:
            dumps.append({"pseudo_orbit": po.to_json_dict(),
                          "orbit": orbit.to_json_dict()})
        rows.append({
            "n": n,
            "defect": po.defect,
            "exact_period": check["exact_period_ok"],
            "residual": orbit.residual,
            "shadow_distance": orbit.shadow_distance,
            "hausdorff_to_reference": check["hausdorff_to_reference"],
        })
    report = {
        "excursion": {"N": params.N, "l": params.l, "N0": params.N0},
        "shadowing_constant": None if isinstance(system, SftSystem) else system.shadowing_constant,
        "rows": rows,
        "all_pass": all(r["defect"] <= args.delta and r["residual"] <= args.tol
                        and r["exact_period"] for r in rows),
    }
    if args.dump_orbits:
        report["orbits"] = dumps
    columns = ["n", "defect", "residual", "shadow_distance", "hausdorff_to_reference"]
    _emit(args, parameters, report, [columns] + [[r[c] for c in columns] for r in rows])
    return EXIT_OK


def _finite_number(value) -> bool:
    """Is ``value`` a number, finite as a float (not NaN, infinite or too large)?"""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _load_target(path: str, system):
    """The target measure and its report id, checked against the system: a
    lebesgue target needs a toral system, a bernoulli target an sft system
    with one probability per symbol, a periodic_mix target an sft system."""
    data = _load_json(path)
    kind = data.get("kind")
    matrix = system.matrix if isinstance(system, SftSystem) else None
    if kind == "lebesgue":
        if not isinstance(system, ToralAutomorphism):
            raise ValueError("lebesgue target needs a toral system")
        return LebesgueTorus(), "lebesgue"
    if kind == "bernoulli":
        probs = data["p"]
        if matrix is None or not isinstance(probs, list) or len(probs) != matrix.size \
                or not all(_finite_number(x) for x in probs):
            raise ValueError("bernoulli target needs an sft system and one "
                             "finite probability per symbol")
        return BernoulliProduct(probs), f"bernoulli({probs})"
    if kind == "periodic_mix":
        if matrix is None:
            raise ValueError("periodic_mix target needs an sft system")
        components = data["components"]
        if not isinstance(components, list) or not all(
                isinstance(c, dict) and isinstance(c.get("cycle"), str)
                and (isinstance(c.get("weight"), str) or _finite_number(c.get("weight")))
                for c in components):
            raise ValueError('periodic_mix components must be a list of {"cycle": '
                             '"<digits>", "weight": <string or finite number>} objects')
        atoms = []
        for k, comp in enumerate(components):
            try:
                mu = cycle_measure(matrix, _parse_word(comp["cycle"]))
            except ValueError as exc:  # name the file: alone it reads as a fault of --cycle
                raise ValueError(f"target {path}: components[{k}]: {exc}") from exc
            w = _fraction(comp["weight"], "periodic_mix weights") \
                if isinstance(comp["weight"], str) \
                else Fraction(comp["weight"]).limit_denominator(10**9)
            for p, wp in mu.atoms:
                atoms.append((p, w * wp))
        return FiniteSupportMeasure(atoms), "periodic_mix"
    raise ValueError(f"unknown target kind {kind!r}")


def cmd_approx_measure(args) -> int:
    system = parse_system(_load_json(args.system))
    matrix = system.matrix if isinstance(system, SftSystem) else None
    _refuse_below_one(args, "depth", "max_period", "max_denominator")
    if args.epsilon <= 0:  # a radius, as in lpp and perturb-smoke
        raise ValueError(f"--epsilon must be > 0, got {args.epsilon}")
    if args.mode == "periodic" and args.cycle is not None:
        raise ValueError(f"--cycle applies to bernoulli mode only, got {args.cycle!r}")
    target, target_id = _load_target(args.target, system)
    parameters = {"system": system.to_config(), "target": target_id, "epsilon": args.epsilon,
                  "mode": args.mode, "depth": args.depth, "max_period": args.max_period,
                  "max_denominator": args.max_denominator}

    table: list = [["target", "method", "parameter", "distance"]]
    if args.mode == "periodic":
        q = args.max_denominator  # the torus walk is counted before any lattice is listed
        steps = min(args.max_period, q * q) * (q * (q + 1) * (2 * q + 1) // 6 + 1024)
        if matrix is None and steps > MAX_LATTICE_STEPS:
            raise PreconditionError(f"--max-period {args.max_period} and --max-denominator {q} "
                                    f"walk {steps} lattice steps, more than {MAX_LATTICE_STEPS}")
        family = (cylinder_family(matrix, args.depth) if matrix is not None
                  else fourier_family(args.depth))
        res = approximate_by_periodic(target, system, args.epsilon, family,
                                      max_period=args.max_period,
                                      max_denominator=args.max_denominator)
        report = {
            "mode": "periodic", "family": family.description,
            "best": res.measure.to_json_dict(), "method": res.description,
            "distance": res.distance, "within_epsilon": res.within_epsilon,
        }
        table.append([target_id, "periodic", res.description, res.distance])
    else:
        if matrix is None:
            raise ValueError("bernoulli mode needs an sft system")
        family = cylinder_family(matrix, args.depth)
        parameters["cycle"] = args.cycle
        cycle = None if args.cycle is None else _parse_word(args.cycle, "--cycle")
        ba = bernoulli_approximation(target, matrix, args.epsilon, family, cycle=cycle,
                                     max_period=args.max_period)
        report = {
            "mode": "bernoulli", "family": family.description,
            "cycle": "".join(map(str, ba.cycle)), "m": ba.m,
            "excursion": "".join(map(str, ba.subshift.excursion_word)),
            "block_states": ba.subshift.matrix.size,
            "measure": ba.measure.to_json_dict(),
            "distance_to_target": ba.distance_to_target,
            "distance_to_periodic": ba.distance_to_periodic,
            "within_epsilon": ba.within_epsilon,
            "scan": [[m, d] for m, d in ba.scan],
        }
        table.append([target_id, "periodic", report["cycle"],
                      weak_star_distance(ba.periodic_measure, target, family)])
        table.extend([target_id, "bernoulli", f"m={m}", d] for m, d in ba.scan)
    _emit(args, parameters, report, table)
    return EXIT_OK


def cmd_perturb_smoke(args) -> int:
    system = parse_system(_load_json(args.system))
    if not isinstance(system, Horseshoe):
        raise ValueError("perturb-smoke runs on horseshoe systems")
    mag = args.magnitude
    new_c = system.mu_s * (1.0 + mag)
    new_e = system.mu_u * (1.0 - mag)
    if not (0.0 < new_c < 0.5 and new_e > 2.0):
        raise ValueError(f"magnitude {mag} exceeds the hyperbolicity margin: "
                         f"perturbed rates ({new_c:.4g}, {new_e:.4g})")
    perturbed = Horseshoe(new_c, new_e)
    parameters = {"system": system.to_config(), "magnitude": mag, "epsilon": args.epsilon,
                  "n_max": args.n_max}

    def certificate_for(h: Horseshoe):
        m_geo = h.word_length(args.epsilon)
        result = dense_periods_certificate(h.coding_matrix, 2.0 ** (-m_geo), args.n_max)
        if isinstance(result, DensePeriodsRefutation):
            raise ShadowingError("horseshoe coding shift refuted; impossible")
        return {"word_length": m_geo, "N0": result.N0, "rates": [h.mu_s, h.mu_u]}

    before = certificate_for(system)
    after = certificate_for(perturbed)
    report = {"before": before, "after": after,
              "same_N0": before["N0"] == after["N0"]}
    _emit(args, parameters, report)
    return EXIT_OK


def cmd_coding_table(args) -> int:
    system = parse_system(_load_json(args.system))
    if not isinstance(system, Horseshoe):
        raise ValueError("coding-table runs on horseshoe systems")
    if args.depth < 0:
        raise ValueError(f"--depth must be >= 0, got {args.depth}")
    if args.depth > MAX_CODING_DEPTH:
        raise PreconditionError(f"--depth {args.depth} exceeds {MAX_CODING_DEPTH}: "
                                f"the table would have 4^{args.depth} rows")
    _emit(args, {"system": system.to_config(), "depth": args.depth},
          {"table": system.coding_table(args.depth)})
    return EXIT_OK


# -- entry point ----------------------------------------------------------


class _UsageError(Exception):
    """argparse's usage error (parser, message), raised where argparse would exit,
    so ``_parse_args`` can name the --config file when the file's token caused it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symshadow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace: bool = False):
        if trace:
            p.add_argument("--format", choices=["json", "csv"], default="json",
                           help="echo the JSON report or the CSV trace to stdout")
        p.add_argument("--config", default=None,
                       help="JSON file of option values (explicit flags win)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="recorded in reports")

    p = sub.add_parser("analyze", help="subshift structure report")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--max-period", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lpp", help="dense-periods certificate or refutation")
    p.add_argument("matrix")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--cycle", default=None,
                   help="restrict witnesses to this cycle's component")
    common(p)
    p.set_defaults(func=cmd_lpp)

    p = sub.add_parser("pseudo-shadow", help="build and shadow pseudo-orbits")
    p.add_argument("system")
    p.add_argument("point_or_cycle",
                   help="rational point 'x,y' (toral) or cycle word (sft/horseshoe)")
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--n-from", type=int, default=None)
    p.add_argument("--n-to", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--dump-orbits", action="store_true",
                   help="include full orbit serializations in the report")
    common(p, trace=True)
    p.set_defaults(func=cmd_pseudo_shadow)

    p = sub.add_parser("approx-measure", help="approximate a target measure")
    p.add_argument("target")
    p.add_argument("system")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=["periodic", "bernoulli"], required=True)
    p.add_argument("--depth", type=int, default=3,
                   help="cylinder depth (sft) or mode bound (torus)")
    p.add_argument("--max-period", type=int, default=12)
    p.add_argument("--max-denominator", type=int, default=40)
    p.add_argument("--cycle", default=None, help="bernoulli mode: fix the base cycle")
    common(p, trace=True)
    p.set_defaults(func=cmd_approx_measure)

    p = sub.add_parser("perturb-smoke", help="horseshoe rate-perturbation smoke test")
    p.add_argument("system")
    p.add_argument("--magnitude", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--n-max", type=int, default=40)
    common(p)
    p.set_defaults(func=cmd_perturb_smoke)

    p = sub.add_parser("coding-table", help="horseshoe coding map table")
    p.add_argument("system")
    p.add_argument("--depth", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_coding_table)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the options of its --config file read as the tokens
    they name: --key=value, a bare --key for true, none for false or null,
    put right after the subcommand so explicit flags win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    path = pre.parse_known_args(argv)[0].config
    config = {str(k).replace("-", "_"): v for k, v in (_load_json(path) if path else {}).items()}
    tokens = {}  # token -> its key
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if "--help".startswith(flag) or key == "config":  # a file cannot print help
            raise ValueError(f"{path}: option {key!r} cannot come from a config file")
        if value is True:
            tokens[flag] = key
        elif value is not None and value is not False:
            tokens[f"{flag}={value if isinstance(value, str) else json.dumps(value)}"] = key
    try:
        args = build_parser().parse_args(argv[:1] + list(tokens) + argv[1:])
    except _UsageError as exc:
        parser, message = exc.args
        for token, key in tokens.items():
            flag, _, text = token.partition("=")
            if message.startswith("unrecognized arguments:") and token in message:
                raise ValueError(f"{path}: unknown option {key!r}") from None
            if text and f"argument {flag}" in message and repr(text) in message:
                raise ValueError(f"{path}: option {key}: {message}") from None
        argparse.ArgumentParser.error(parser, message)  # the command line's own: usage, exit 2
    for key, value in config.items():
        if key not in vars(args):  # an abbreviation argparse accepted
            raise ValueError(f"{path}: unknown option {key!r}")
        if value is False and not isinstance(getattr(args, key), bool):
            raise ValueError(f"{path}: option {key}: false sets only a flag")
    for key, value in sorted(vars(args).items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"option {key}: {value} is not a finite number")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        return args.func(args)
    except (PreconditionError, InsufficientSegmentError, HorizonTooSmallError,
            BlockGraphTooLargeError, BlockSubshiftTooLargeError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ShadowingError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, NonEssentialMatrixError, ReducibleMatrixError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
