"""End-to-end CLI runs: file IO, exit codes, determinism."""

import hashlib
import json
import math
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symshadow.cli
from conftest import index_builds
from symshadow.cli import (MAX_CODING_DEPTH, MAX_LATTICE_STEPS, MAX_PLANAR_SHADOW_LENGTH,
                           MAX_SHIFT_SHADOW_LENGTH, MAX_WITNESS_SYMBOLS, _parse_args,
                           _parse_word, build_parser, main)
from symshadow.dense_periods import WitnessMap
from symshadow.measures import (FAMILY_SIZE, LebesgueTorus, approximate_by_periodic,
                                cylinder_family, fourier_family)
from symshadow.sft import LETTERS, TransitionMatrix, spell
from symshadow.systems import Horseshoe, SftSystem, ToralAutomorphism, cat_map

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def readme_commands() -> list[list[str]]:
    """The argument lists of the symshadow commands in README's "Command line"
    block, with backslash continuations joined and comments dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [words for words in commands if words]


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "golden": write("golden.json", {"rows": [[1, 1], [1, 0]]}),
        "parity": write("parity.json", {"rows": [[0, 1], [1, 0]]}),
        "bad": write("bad.json", {"rows": [[1, 0], [0, 0]]}),
        "cat": write("cat.json", {"kind": "toral", "matrix": [[2, 1], [1, 1]]}),
        "full2": write("full2.json", {"kind": "sft",
                                      "matrix": {"rows": [[1, 1], [1, 1]]}}),
        "horseshoe": write("horseshoe.json",
                           {"kind": "horseshoe", "rates": [1 / 3, 3.0]}),
        "mix": write("mix.json", {"kind": "periodic_mix", "components": [
            {"cycle": "0", "weight": 0.5}, {"cycle": "1", "weight": 0.5}]}),
        "lebesgue": write("lebesgue.json", {"kind": "lebesgue"}),
        "out": str(tmp_path / "out"),
        "tmp": tmp_path,
    }


def read_report(files, name):
    return json.loads((Path(files["out"]) / name).read_text())


def test_analyze_golden_mean(files, capsys):
    code = main(["analyze", files["golden"], "--out", files["out"]])
    assert code == 0
    report = read_report(files, "analyze.json")
    assert report["primitive"] is True
    assert report["class_period"] == 1
    assert abs(report["entropy"] - 0.4812118250596) < 1e-10
    assert report["periodic_counts"]["4"] == 7
    assert report["config"]["command"] == "analyze"


def test_analyze_parity_decomposition(files):
    assert main(["analyze", files["parity"], "--out", files["out"]]) == 0
    report = read_report(files, "analyze.json")
    assert report["primitive"] is False
    assert report["class_period"] == 2
    assert report["classes"] == [[0], [1]]


def test_analyze_invalid_input_exit_2(files, capsys):
    assert main(["analyze", files["bad"], "--out", files["out"]]) == 2
    assert main(["analyze", str(files["tmp"] / "missing.json"),
                 "--out", files["out"]]) == 2


@pytest.mark.parametrize("rows, max_period", [
    ([[1, 1], [1, 1]], None),  # 2^n: the last count is the first past the limit
    ([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], 2129),  # 0 at odd n
], ids=["full2", "period2"])
def test_analyze_counts_past_the_digit_limit_exit_3(files, capsys, rows, max_period):
    # a count past sys.get_int_max_str_digits used to exit 2 while writing the
    # report; 640 digits, the least limit Python allows, keeps the counts short
    path = files["tmp"] / "matrix.json"
    path.write_text(json.dumps({"rows": rows}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        last = max(n for n in range(2200) if 2 ** n < 10 ** 640)  # 2^2126
        if max_period is None:
            assert main(["analyze", str(path), "--max-period", str(last),
                         "--out", files["out"]]) == 0
            assert len(str(read_report(files, "analyze.json")["periodic_counts"][str(last)])) \
                == 640
            max_period = last + 1
        assert main(["analyze", str(path), "--max-period", str(max_period),
                     "--out", str(files["tmp"] / "refused")]) == 3
    finally:
        sys.set_int_max_str_digits(limit)
    assert "has more than 640 digits" in capsys.readouterr().err
    assert not (files["tmp"] / "refused").exists()


def test_lpp_certificate_and_refutation(files):
    assert main(["lpp", files["golden"], "--epsilon", "0.25", "--n-max", "30",
                 "--out", files["out"]]) == 0
    cert = read_report(files, "lpp.json")
    assert cert["verdict"] == "certificate" and cert["N0"] == 3

    assert main(["lpp", files["parity"], "--epsilon", "0.5", "--n-max", "20",
                 "--out", files["out"]]) == 0
    ref = read_report(files, "lpp.json")
    assert ref["verdict"] == "refutation"
    assert ref["blocking_n"] == 3 and ref["exhaustive"] is True


def test_lpp_refutes_the_loop_free_star_without_a_residue_search(files, tmp_path):
    # class period 2 decides it on A; the residue search over its 5 deficit
    # nodes would need 2 * 5^5 states (exit 3)
    star = tmp_path / "star.json"
    star.write_text(json.dumps({"rows": [[0, 1, 1, 1, 1, 1]] + [[1, 0, 0, 0, 0, 0]] * 5}))
    assert main(["lpp", str(star), "--epsilon", "0.125", "--n-max", "100",
                 "--out", files["out"]]) == 0
    ref = read_report(files, "lpp.json")
    assert ref["verdict"] == "refutation"
    assert ref["blocking_n"] == 2 and ref["exhaustive"] is True


def test_lpp_past_n_max_reports_the_exact_n0(files, tmp_path):
    # N0 = 5 > n_max = 3 used to exit 3; n_max bounds only the listing
    wheel4 = tmp_path / "wheel4.json"
    wheel4.write_text(json.dumps({"rows": [[1, 1, 0, 0], [0, 0, 1, 0],
                                           [0, 0, 0, 1], [1, 0, 0, 0]]}))
    assert main(["lpp", str(wheel4), "--epsilon", "0.25", "--n-max", "3",
                 "--out", files["out"]]) == 0
    cert = read_report(files, "lpp.json")
    assert (cert["verdict"], cert["N0"], cert["n_max"], cert["witnesses"]) == \
        ("certificate", 5, 3, {})
    assert cert["proof"] == {"girth": 1, "girth_cycle": "0", "classes": {"0": "00123"}}


def test_lpp_epsilon_one_exit_2(files, capsys):
    # at epsilon = 1 every cycle is dense: there is no verdict to give
    assert main(["lpp", files["golden"], "--epsilon", "1", "--n-max", "30",
                 "--out", files["out"]]) == 2
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_lpp_block_graph_too_large_exit_3(files, capsys):
    # epsilon = 1e-6 is m = 20: 2^19 block nodes, refused before the graph is
    # built, at the 12-words, the first count past the bound
    assert main(["lpp", str(DATA / "full_2_shift.json"), "--epsilon", "1e-6",
                 "--n-max", "100", "--out", files["out"]]) == 3
    assert "needs at least 4096 block nodes > 2048" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("rows", [
    [[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
    [[0, 1, 1, 1, 1, 1, 0]] + [[0] * 6 + [1]] * 5 + [[1] + [0] * 6],
], ids=["reducible", "fan"])
def test_lpp_refutes_a_non_primitive_matrix_at_any_scale(files, tmp_path, rows):
    # at m = 20 the block graphs would need 3,407,872 and 109,375 nodes (a
    # primitive matrix there exits 3, as the full 2-shift does above); A is
    # refuted by a closed set of symbols and by its class period 3
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"rows": rows}))
    assert main(["lpp", str(matrix), "--epsilon", "1e-6", "--n-max", "100",
                 "--out", files["out"]]) == 0
    ref = read_report(files, "lpp.json")
    assert ref["verdict"] == "refutation"
    assert ref["blocking_n"] == 2 and ref["exhaustive"] is True


@pytest.mark.parametrize("cycle", [[], ["--cycle", "01"]], ids=["plain", "cycle"])
def test_lpp_past_the_witness_budget_exit_3_before_any_witness(files, capsys, monkeypatch,
                                                                cycle):
    # n_max 30,000 lists 450M witness symbols; it used to end in a MemoryError
    def no_witness(self, n):
        raise AssertionError("witness built")

    monkeypatch.setattr(WitnessMap, "__getitem__", no_witness)
    start = time.perf_counter()
    assert main(["lpp", files["golden"], "--epsilon", "0.25", "--n-max", "30000", *cycle,
                 "--out", files["out"]]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"lists 450014997 witness symbols (N0 = 3), more than {MAX_WITNESS_SYMBOLS}" \
        in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_witness_budget_counts_the_symbols_the_report_lists(files, monkeypatch):
    # golden mean at epsilon 1/4: N0 = 3, one witness of each length 3..n_max
    monkeypatch.setattr(symshadow.cli, "MAX_WITNESS_SYMBOLS", sum(range(3, 101)))
    argv = ["lpp", files["golden"], "--epsilon", "0.25", "--out", files["out"]]
    assert main(argv + ["--n-max", "100"]) == 0
    witnesses = read_report(files, "lpp.json")["witnesses"].values()
    assert sum(map(len, witnesses)) == sum(range(3, 101))
    assert main(argv + ["--n-max", "101"]) == 3


def test_pseudo_shadow_cat_table(files):
    code = main(["pseudo-shadow", files["cat"], "1/5,2/5", "--delta", "0.01",
                 "--n-to", "50", "--out", files["out"]])
    assert code == 0
    report = read_report(files, "pseudo_shadow.json")
    assert report["all_pass"] is True
    assert report["rows"][0]["n"] == report["excursion"]["N0"]
    assert (Path(files["out"]) / "pseudo_shadow.csv").exists()


@pytest.mark.parametrize("point, bounds", [
    ("1/2,0", []), ("1/3,0", []), ("1/2,0", ["--n-from", "190", "--n-to", "192"]),
], ids=["tau3", "tau4", "tau3-past-the-default-segment"])
def test_pseudo_shadow_segment_is_sized_from_n0(files, point, bounds):
    # tau = 3 and 4: the default range starts at N0 = l*tau^2 + 1; a range
    # past the default 160-step forward segment rebuilds it to reach n_to
    assert main(["pseudo-shadow", files["cat"], point, "--delta", "0.01", *bounds,
                 "--out", files["out"]]) == 0
    report = read_report(files, "pseudo_shadow.json")
    assert report["all_pass"] is True
    n0 = report["excursion"]["N0"]
    assert [row["n"] for row in report["rows"]] \
        == (list(range(190, 193)) if bounds else list(range(n0, n0 + 31)))


def test_pseudo_shadow_segment_reaches_back_to_the_first_excursion(files):
    # tau = 8 and l = 12: the first of 8 excursions starts at f^-81(q), one
    # point before the default backward segment; this exited 3 at n = 776
    assert main(["pseudo-shadow", files["cat"], "1/7,3/7", "--delta", "1e-6",
                 "--out", files["out"]]) == 0
    report = read_report(files, "pseudo_shadow.json")
    assert report["all_pass"] is True
    assert report["excursion"] == {"N": 10, "l": 12, "N0": 769}
    assert [row["n"] for row in report["rows"]] == list(range(769, 800))


def test_pseudo_shadow_below_threshold_exit_3(files):
    assert main(["pseudo-shadow", files["cat"], "1/5,2/5", "--delta", "0.01",
                 "--n-from", "3", "--out", files["out"]]) == 3


@pytest.mark.parametrize("bound", ["--n-from", "--n-to"])
def test_pseudo_shadow_zero_length_bounds_exit_3(files, bound, capsys):
    # 0 is a given bound, not a missing one: below N0, or an empty range
    assert main(["pseudo-shadow", files["full2"], "01", "--delta", "0.125",
                 bound, "0", "--out", files["out"]]) == 3
    assert ("below N0" if bound == "--n-from" else "empty length range") \
        in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("bound", ["--n-from", "--n-to"])
def test_pseudo_shadow_overlong_bounds_exit_3_before_the_segment(files, bound, capsys,
                                                                monkeypatch):
    # the segment is sized from N0 and --n-to; 10^8 used to grow until the process died
    def no_segment(*args, **kwargs):
        raise AssertionError("homoclinic segment built")

    monkeypatch.setattr(symshadow.cli, "homoclinic_point", no_segment)
    argv = ["pseudo-shadow", str(DATA / "full_2_shift.json"), "01", "--delta", "0.125",
            "--n-from", "40", "--n-to", "100000000", "--out", files["out"]]
    if bound == "--n-from":
        argv[argv.index("--n-from") + 1:argv.index("--n-to") + 2] = ["100000000"]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert f"{bound} 100000000 exceeds {MAX_SHIFT_SHADOW_LENGTH}" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("bound", ["--n-from", "--n-to"])
def test_pseudo_shadow_bounds_are_per_system_kind(files, bound, capsys, monkeypatch):
    # a planar length past the shift bound runs; one past the planar bound
    # exits 3 before the segment is built
    assert MAX_SHIFT_SHADOW_LENGTH < 600 < MAX_PLANAR_SHADOW_LENGTH
    argv = ["pseudo-shadow", files["cat"], "1/5,2/5", "--delta", "0.01", "--out", files["out"]]
    assert main(argv + ["--n-from", "600", "--n-to", "602"]) == 0
    assert [row["n"] for row in read_report(files, "pseudo_shadow.json")["rows"]] \
        == [600, 601, 602]

    def no_segment(*args, **kwargs):
        raise AssertionError("homoclinic segment built")

    monkeypatch.setattr(symshadow.cli, "homoclinic_point", no_segment)
    n = MAX_PLANAR_SHADOW_LENGTH + 1
    lengths = ["--n-from", str(n), "--n-to", str(n)] if bound == "--n-from" \
        else ["--n-from", "40", "--n-to", str(n)]
    assert main(argv + lengths) == 3
    assert f"{bound} {n} exceeds {MAX_PLANAR_SHADOW_LENGTH}" in capsys.readouterr().err


def test_pseudo_shadow_defaulted_overlong_range_exit_3_before_the_extension(files, capsys,
                                                                            monkeypatch):
    # tau = 8: N0 = 577 is read off the default segment, f^k(q) for k <= 160, and
    # the defaulted range [577, 607] is refused before the segment is extended
    evaluated = []
    homoclinic_orbit = SftSystem.homoclinic_orbit

    def recorded(self, cycle):
        p_orbit, orbit = homoclinic_orbit(self, cycle)
        return p_orbit, lambda k: evaluated.append(k) or orbit(k)

    monkeypatch.setattr(SftSystem, "homoclinic_orbit", recorded)
    start = time.perf_counter()
    assert main(["pseudo-shadow", files["full2"], "00000001", "--delta", "0.125",
                 "--out", files["out"]]) == 3
    assert time.perf_counter() - start < 1.0
    assert max(evaluated) == 160
    assert f"length range [577, 607] (N0 = 577) exceeds {MAX_SHIFT_SHADOW_LENGTH}" \
        in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("system, delta, tail", [
    ("horseshoe.json", "1e-20", "forward tail"),
    ("full_2_shift.json", "1e-30", "backward tail"),
    ("golden_mean.json", "1e-30", "backward tail"),
], ids=["horseshoe", "full2", "golden"])
def test_pseudo_shadow_segment_short_of_delta_exit_3(files, capsys, system, delta, tail):
    # the homoclinic segment's tails miss the delta/2-ball; this exited 2 as
    # invalid input, though a short segment is a precondition failure
    assert main(["pseudo-shadow", str(DATA / system), "01", "--delta", delta,
                 "--out", files["out"]]) == 3
    assert f"precondition failed: {tail} of homoclinic segment not within delta/2" \
        in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_pseudo_shadow_zero_denominator_exit_2(files, capsys):
    assert main(["pseudo-shadow", files["cat"], "1/0,1/2", "--delta", "0.01",
                 "--out", files["out"]]) == 2
    assert "invalid input: point coordinates must be rationals" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("system, anchor, flag, value, bound", [
    ("cat_map.json", "1/5,2/5", "--delta", "0", "> 0"),
    ("full_2_shift.json", "01", "--delta", "0", "> 0"),
    ("horseshoe.json", "01", "--delta", "-0.05", "> 0"),
    ("cat_map.json", "1/5,2/5", "--tol", "-1", ">= 0"),
    ("golden_mean.json", "0", "--tol", "-0.001", ">= 0"),
], ids=["cat_delta_0", "full2_delta_0", "horseshoe_delta_negative", "cat_tol_negative",
        "golden_tol_negative"])
def test_pseudo_shadow_delta_and_tol_out_of_range_exit_2(files, capsys, monkeypatch, system,
                                                         anchor, flag, value, bound):
    # these failed late: "datum tolerances inconsistent", "forward tail ... not within
    # delta/2", or a tol of -1 exiting 4 as a numerical failure of the shadow solve
    def no_segment(*args, **kwargs):
        raise AssertionError("homoclinic segment built")

    monkeypatch.setattr(symshadow.cli, "homoclinic_point", no_segment)
    assert main(["pseudo-shadow", str(DATA / system), anchor, flag, value,
                 "--out", files["out"]]) == 2
    assert f"invalid input: {flag} must be {bound}, got {float(value)}" \
        in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("argv", [["pseudo-shadow", "01", "--delta", "0.05"],
                                  ["coding-table"], ["perturb-smoke", "--magnitude", "0.01"]],
                         ids=["pseudo-shadow", "coding-table", "perturb-smoke"])
def test_infinite_horseshoe_rate_exit_2(files, capsys, argv):
    # an infinite expansion rate passed the "> 2" check: pseudo-shadow wrote a
    # report with NaN defects and residuals and Infinity in its config
    path = files["tmp"] / "wide.json"
    path.write_text('{"kind": "horseshoe", "rates": [0.3, Infinity]}')
    assert main([argv[0], str(path), *argv[1:], "--out", files["out"]]) == 2
    assert "expansion rate must be a finite number above 2" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("argv, payload, message", [
    (["analyze"], {"rows": [[True, 1], [1, 0]]}, "transition matrix rows must be lists of 0/1"),
    (["analyze"], {"rows": [[1]], "size": True}, "declared size does not match rows"),
    (["pseudo-shadow", "0,0"], {"kind": "toral", "matrix": [[2, True], [True, True]]},
     "toral matrix must be a list of integer rows"),
    (["pseudo-shadow", "01"], {"kind": "horseshoe", "rates": [True, 3.0]},
     "horseshoe rates must be [contraction, expansion]"),
    (["approx-measure", "golden", "--epsilon", "0.1", "--mode", "periodic"],
     {"kind": "periodic_mix", "components": [{"cycle": "01", "weight": True}]},
     "periodic_mix components must be a list"),
    (["approx-measure", "golden", "--epsilon", "0.1", "--mode", "bernoulli"],
     {"kind": "bernoulli", "p": [True, 0]}, "bernoulli target needs an sft system and one"),
], ids=["matrix_rows", "matrix_size", "toral_matrix", "horseshoe_rates", "mix_weight",
        "bernoulli_probability"])
def test_json_booleans_are_refused_where_a_number_is_read_exit_2(files, capsys, argv, payload,
                                                                 message):
    # bool is an int in Python, so an int or 0/1 check alone reads true as 1
    path = files["tmp"] / "booleans.json"
    path.write_text(json.dumps(payload))
    rest = [files.get(a, a) for a in argv[1:]]
    assert main([argv[0], str(path), *rest, "--out", files["out"]]) == 2
    err = capsys.readouterr().err
    assert f"invalid input: {message}" in err and "Traceback" not in err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("probability", ['"0.5"', "9" * 400], ids=["string", "past_float"])
def test_bernoulli_probability_strings_and_huge_ints_exit_2(files, capsys, probability):
    # math.isfinite raises on a string (TypeError) and on an int too large for
    # a float (OverflowError); both are refused as no finite probability
    path = files["tmp"] / "target.json"
    path.write_text(f'{{"kind": "bernoulli", "p": [{probability}, {probability}]}}')
    assert main(["approx-measure", str(path), files["full2"], "--epsilon", "0.1",
                 "--mode", "bernoulli", "--out", files["out"]]) == 2
    err = capsys.readouterr().err
    assert "one finite probability per symbol" in err and "Traceback" not in err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("argv, message", [
    (["pseudo-shadow", "cat_map.json", "1/5"], "point must be 'x,y', got '1/5'"),
    (["pseudo-shadow", "full_2_shift.json", "2"], "cycle (2,) not admissible"),
    (["pseudo-shadow", "horseshoe.json", "2"], "cycle (2,) not admissible"),
    (["approx-measure", "target_lebesgue.json", "cat_map.json", "--epsilon", "0.1",
      "--mode", "bernoulli"], "bernoulli mode needs an sft system"),
    (["approx-measure", "nope.json", "full_2_shift.json", "--epsilon", "0.1",
      "--mode", "periodic"], "unknown target kind 'nope'"),
    (["perturb-smoke", "golden_mean.json", "--magnitude", "0.01"],
     "perturb-smoke runs on horseshoe systems"),
    (["coding-table", "cat_map.json"], "coding-table runs on horseshoe systems"),
    (["lpp", "golden_mean.json", "--epsilon", "0.25", "--n-max", "1"],
     "n_max must be at least 2"),
    (["lpp", "golden_mean.json", "--epsilon", "0.25", "--n-max", "30", "--cycle", "5"],
     "word (5,) is not an admissible cycle"),
    (["pseudo-shadow", "swap.json", "1/5,2/5"], "matrix is not hyperbolic (|eigenvalue| = 1)"),
    (["pseudo-shadow", "wide.json", "01"], "contraction rate must lie in (0, 1/2)"),
], ids=["point_not_a_pair", "full2_symbol_2", "horseshoe_symbol_2", "bernoulli_on_torus",
        "unknown_target", "perturb_smoke_on_sft", "coding_table_on_torus", "n_max_1",
        "inadmissible_cycle", "swap_matrix", "wide_contraction"])
def test_input_guards_exit_2(files, capsys, argv, message):
    made = {"nope.json": {"kind": "nope"},
            "swap.json": {"kind": "toral", "matrix": [[0, 1], [1, 0]]},
            "wide.json": {"kind": "horseshoe", "rates": [0.7, 3]}}
    for name, payload in made.items():
        (files["tmp"] / name).write_text(json.dumps(payload))
    paths = [str((files["tmp"] if a in made else DATA) / a) if a.endswith(".json") else a
             for a in argv]
    assert main([*paths, "--out", files["out"]]) == 2
    assert f"invalid input: {message}" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_a_missed_shadow_tol_exit_4(files, capsys):
    # the closed-form cat map shadow misses --tol 0 by rounding: a numerical failure
    assert main(["pseudo-shadow", str(DATA / "cat_map.json"), "1/5,2/5", "--delta", "0.01",
                 "--tol", "0", "--out", files["out"]]) == 4
    assert "numerical failure: closed-form orbit misses tol 0.0" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_non_finite_report_exit_2_and_is_not_written(files, capsys, monkeypatch):
    # reports are strict JSON: a NaN that reaches one stops the run before any file
    monkeypatch.setattr(symshadow.cli, "topological_entropy", lambda matrix: math.nan)
    assert main(["analyze", files["golden"], "--out", files["out"]]) == 2
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_pseudo_shadow_symbolic(files):
    code = main(["pseudo-shadow", files["full2"], "01", "--delta", "0.125",
                 "--out", files["out"]])
    assert code == 0
    report = read_report(files, "pseudo_shadow.json")
    assert report["all_pass"] is True
    assert all(row["defect"] <= 0.125 for row in report["rows"])


@pytest.mark.parametrize("system, anchor, delta", [("cat_map.json", "1/5,2/5", "0.01"),
                                                   ("full_2_shift.json", "01", "0.125")],
                         ids=["cat", "full2"])
def test_pseudo_shadow_indexes_its_reference_once(files, system, anchor, delta):
    with index_builds() as builds:
        assert main(["pseudo-shadow", str(DATA / system), anchor, "--delta", delta,
                     "--out", files["out"]]) == 0
    assert len(read_report(files, "pseudo_shadow.json")["rows"]) == 31
    assert len(builds) == 1


def test_approx_measure_periodic_mode(files):
    code = main(["approx-measure", files["lebesgue"], files["cat"],
                 "--epsilon", "0.05", "--mode", "periodic", "--depth", "3",
                 "--max-period", "30", "--out", files["out"]])
    assert code == 0
    report = read_report(files, "approx_measure.json")
    assert report["within_epsilon"] is True
    assert report["distance"] <= 0.05


def test_approx_measure_bernoulli_mode(files):
    code = main(["approx-measure", files["mix"], files["full2"],
                 "--epsilon", "0.1", "--mode", "bernoulli", "--out", files["out"]])
    assert code == 0
    report = read_report(files, "approx_measure.json")
    assert report["within_epsilon"] is True
    scan = report["scan"]
    assert all(b[1] <= a[1] + 1e-12 for a, b in zip(scan, scan[1:]))
    csv_text = (Path(files["out"]) / "approx_measure.csv").read_text()
    assert csv_text.splitlines()[0] == "target,method,parameter,distance"


def test_bernoulli_csv_trace_starts_with_the_periodic_step(tmp_path):
    # the README run: d(mu_p, target) for the cycle 000111, then one row per scanned m
    assert main(["approx-measure", str(DATA / "target_half_mix.json"),
                 str(DATA / "full_2_shift.json"), "--epsilon", "0.1", "--mode", "bernoulli",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "approx_measure.csv").read_text().splitlines()
    assert lines[1] == "periodic_mix,periodic,000111,0.0426025390625"
    scan = json.loads((tmp_path / "approx_measure.json").read_text())["scan"]
    assert lines[2:] == [f"periodic_mix,bernoulli,m={m},{d!r}" for m, d in scan]


@pytest.mark.parametrize("argv, name", [
    (["pseudo-shadow", "cat_map.json", "1/5,2/5", "--delta", "0.01", "--n-to", "35"],
     "pseudo_shadow"),
    (["approx-measure", "target_half_mix.json", "full_2_shift.json", "--epsilon", "0.1",
      "--mode", "bernoulli"], "approx_measure"),
], ids=["pseudo_shadow", "approx_measure"])
def test_format_csv_echoes_the_csv_trace(tmp_path, capsys, argv, name):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main([*argv, "--format", "csv", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / f"{name}.csv").read_text()
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / f"{name}.json").read_text()


def test_format_is_refused_where_no_csv_trace_is_written(files):
    for argv in (["analyze", files["golden"]],
                 ["lpp", files["golden"], "--epsilon", "0.25", "--n-max", "30"],
                 ["perturb-smoke", files["horseshoe"], "--magnitude", "0.033"],
                 ["coding-table", files["horseshoe"]]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "json", "--out", files["out"]])
        assert exc.value.code == 2


@pytest.mark.parametrize("max_period, cycle", [("12", "0011"), ("4", "0011"), ("2", "01")])
def test_bernoulli_mode_searches_its_cycle_up_to_max_period(tmp_path, max_period, cycle):
    # the periodic step ran at max_period 12 whatever --max-period said
    target = tmp_path / "bernoulli.json"
    target.write_text(json.dumps({"kind": "bernoulli", "p": [0.45, 0.55]}))
    assert main(["approx-measure", str(target), str(DATA / "full_2_shift.json"),
                 "--epsilon", "0.1", "--mode", "bernoulli", "--max-period", max_period,
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "approx_measure.json").read_text())
    assert report["cycle"] == cycle and report["within_epsilon"]
    assert report["config"]["parameters"]["max_period"] == int(max_period)


def test_approx_measure_records_cycle_in_bernoulli_mode_and_refuses_it_in_periodic(
        files, tmp_path, capsys):
    for cycle in (None, "01"):
        out = tmp_path / str(cycle)
        assert main(["approx-measure", files["mix"], files["full2"], "--epsilon", "0.1",
                     "--mode", "bernoulli", *(["--cycle", cycle] if cycle else []),
                     "--out", str(out)]) == 0
        report = json.loads((out / "approx_measure.json").read_text())
        assert report["config"]["parameters"]["cycle"] == cycle
    assert report["cycle"] == "01"
    # periodic mode searches: --cycle was accepted there and had no effect
    assert main(["approx-measure", files["mix"], files["full2"], "--epsilon", "0.1",
                 "--mode", "periodic", "--cycle", "01", "--out", files["out"]]) == 2
    assert "invalid input: --cycle applies to bernoulli mode only" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("command", ["lpp", "bernoulli"])
@pytest.mark.parametrize("cycle", ["", " "], ids=["empty", "blank"])
def test_an_empty_cycle_exit_2(files, capsys, command, cycle):
    # an empty word is no admissible cycle; it was read as no --cycle and searched
    argv = (["lpp", files["golden"], "--epsilon", "0.25", "--n-max", "30"]
            if command == "lpp" else
            ["approx-measure", files["mix"], files["full2"], "--epsilon", "0.1",
             "--mode", "bernoulli"])
    assert main(argv + ["--cycle", cycle, "--out", files["out"]]) == 2
    assert "invalid input: --cycle must be one or more digits" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_a_unicode_digit_is_no_symbol_exit_2(files, capsys):
    # str.isdecimal let "\u0663" (ARABIC-INDIC DIGIT THREE) through, and int read it as 3
    assert main(["lpp", files["golden"], "--epsilon", "0.25", "--n-max", "30",
                 "--cycle", "\u0663", "--out", files["out"]]) == 2
    assert "invalid input: --cycle must be one or more digits" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@given(st.lists(st.integers(0, 63), min_size=1, max_size=80))
def test_a_word_reads_back_from_its_spelling(word):
    assert _parse_word(spell(word)) == tuple(word)
    assert _parse_word(f" {spell(word)} ") == tuple(word)  # spaces around it allowed


def test_the_alphabet_spells_text_order_as_word_order():
    assert LETTERS == "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz{}"
    assert list(LETTERS) == sorted(set(LETTERS))  # 64 letters, rising code points
    words = [(), (0,), (0, 63), (9,), (10,), (10, 0), (35,), (36,), (61,), (62,), (63,)]
    assert sorted(map(spell, words)) == list(map(spell, sorted(words)))


def test_words_past_ten_symbols_take_one_letter_each(tmp_path):
    # symbol 10 is "A": a word's text has one letter per symbol, so an n-witness
    # has n letters, and "10" is the word (1, 0), not the symbol 10
    paths = {}
    for name, rows in (("full11", [[1] * 11] * 11),
                       ("full10_and_loop", [[1] * 10 + [0]] * 10 + [[0] * 10 + [1]])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"rows": rows}))

    def lpp(name, *cycle):
        out = tmp_path / f"{name}{''.join(cycle)}"
        assert main(["lpp", str(paths[name]), "--epsilon", "0.5", "--n-max", "12", *cycle,
                     "--out", str(out)]) == 0
        return json.loads((out / "lpp.json").read_text())

    report = lpp("full11")
    assert report["witnesses"] == {"11": "0A987654321", "12": "00A987654321"}
    assert report["proof"]["classes"] == {"0": "0A987654321"}
    loop = lpp("full10_and_loop", "--cycle", "A")
    assert loop["proof"] == {"girth": 1, "girth_cycle": "A", "classes": {"0": "A"}}
    assert loop["witnesses"] == {str(n): "A" * n for n in range(2, 13)}
    ten = lpp("full10_and_loop", "--cycle", "10")
    assert ten["N0"] == 10 and "A" not in "".join(ten["witnesses"].values())


def test_cycle_names_every_symbol_of_64(tmp_path):
    # each symbol of the 64-symbol identity matrix is its own component
    matrix = tmp_path / "identity64.json"
    matrix.write_text(json.dumps({"rows": [[int(i == j) for j in range(64)]
                                           for i in range(64)]}))
    for letter in LETTERS:
        assert main(["lpp", str(matrix), "--epsilon", "0.5", "--n-max", "3", "--cycle", letter,
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "lpp.json").read_text())
        assert report["witnesses"] == {"2": letter * 2, "3": letter * 3}


def test_shift_orbits_past_ten_symbols_dump_one_letter_a_coordinate(tmp_path):
    matrix = tmp_path / "full11.json"
    matrix.write_text(json.dumps({"rows": [[1] * 11] * 11}))
    assert main(["pseudo-shadow", str(matrix), "0A", "--delta", "0.125", "--n-to", "27",
                 "--dump-orbits", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pseudo_shadow.json").read_text())
    assert report["all_pass"] and len(report["orbits"]) == 3
    words = [w for dump in report["orbits"] for kind in ("pseudo_orbit", "orbit")
             for w in dump[kind]["points"]]
    assert {len(w) for w in words} == {2 * 12 + 1}  # radius 12 a side and the dot
    assert "A" in "".join(words)


def test_a_repeated_anchor_cycle_exit_2(files, capsys):
    # 00 is the fixed point 0 read twice: its homoclinic orbit would take tau = 2
    # for a period-1 point, and every even length failed with an internal defect
    assert main(["pseudo-shadow", str(DATA / "full_2_shift.json"), "00", "--delta", "0.125",
                 "--out", files["out"]]) == 2
    assert "invalid input: cycle 00 repeats the block 0" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_approx_measure_nonprimitive_bernoulli_exit_2(files, tmp_path):
    parity_system = tmp_path / "paritysys.json"
    parity_system.write_text(json.dumps(
        {"kind": "sft", "matrix": {"rows": [[0, 1], [1, 0]]}}))
    mix01 = tmp_path / "mix01.json"
    mix01.write_text(json.dumps({"kind": "periodic_mix", "components": [
        {"cycle": "01", "weight": 1.0}]}))
    assert main(["approx-measure", str(mix01), str(parity_system),
                 "--epsilon", "0.1", "--mode", "bernoulli",
                 "--out", files["out"]]) == 2


def test_approx_measure_bernoulli_past_the_state_cap_exit_3(files, capsys):
    # a valid 64-symbol cycle: its least block subshift, m = 1 with the excursion,
    # already has more than 64 letter states
    assert main(["approx-measure", str(DATA / "target_half_mix.json"),
                 str(DATA / "full_2_shift.json"), "--epsilon", "0.1", "--mode", "bernoulli",
                 "--cycle", "0" * 63 + "1", "--out", files["out"]]) == 3
    assert "no primitive block subshift fits the 64-state cap" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("target, system, mode", [
    ("lebesgue", "full2", "periodic"),
    ("lebesgue", "horseshoe", "periodic"),
    ("bernoulli", "cat", "periodic"),
    ("bernoulli", "horseshoe", "periodic"),
    ("bernoulli3", "full2", "periodic"),
    ("bernoulli3", "full2", "bernoulli"),
    ("mix", "horseshoe", "periodic"),
    ("mix", "cat", "periodic"),
    ("lebesgue", "full2", "bernoulli"),
])
def test_approx_measure_target_must_fit_the_system_exit_2(files, capsys, target, system,
                                                          mode):
    targets = {"bernoulli": {"kind": "bernoulli", "p": [0.5, 0.5]},
               "bernoulli3": {"kind": "bernoulli", "p": [0.2, 0.3, 0.5]}}
    if target in targets:
        path = files["tmp"] / f"{target}.json"
        path.write_text(json.dumps(targets[target]))
        files[target] = str(path)
    assert main(["approx-measure", files[target], files[system], "--epsilon", "0.1",
                 "--mode", mode, "--out", files["out"]]) == 2
    assert "invalid input: " in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("mode", ["periodic", "bernoulli"])
def test_approx_measure_inadmissible_mix_component_names_the_target(capsys, tmp_path, mode):
    # the golden mean has no cycle "1"; the bare "word (1,) is not an admissible
    # cycle" read as if --cycle were wrong
    target = DATA / "target_half_mix.json"
    assert main(["approx-measure", str(target), str(DATA / "golden_mean.json"),
                 "--epsilon", "0.1", "--mode", mode, "--out", str(tmp_path / "out")]) == 2
    assert f"invalid input: target {target}: components[1]: word (1,) is not an " \
        "admissible cycle" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [["--max-period", "0"], ["--max-denominator", "0"]])
def test_approx_measure_empty_torus_horizon_exit_2(files, capsys, horizon):
    # refused before the scan, which had found "no periodic candidates within the horizon"
    assert main(["approx-measure", files["lebesgue"], files["cat"], "--epsilon", "0.1",
                 "--mode", "periodic", *horizon, "--out", files["out"]]) == 2
    assert f"invalid input: {horizon[0]} must be >= 1, got 0" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, option", [("analyze", "--max-period"),
                                             ("approx-measure", "--max-period"),
                                             ("approx-measure", "--max-denominator")])
def test_horizon_below_one_exit_2(files, capsys, command, option, value):
    # approx-measure --max-period 0 on the full shift ran, reporting "max_period": 0
    # and a "blocks x39" method; analyze --max-period 0 reported no periodic counts
    runs = ([[files["golden"]]] if command == "analyze" else
            [[files[target], files[system], "--epsilon", "0.1", "--mode", mode]
             for target, system, mode in (("mix", "full2", "periodic"),
                                          ("mix", "full2", "bernoulli"),
                                          ("lebesgue", "cat", "periodic"))])
    for argv in runs:
        assert main([command, *argv, option, value, "--out", files["out"]]) == 2
        assert f"invalid input: {option} must be >= 1, got {value}" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_approx_measure_depth_below_one_exit_2(files, capsys, depth):
    # depth 0 made an empty test family: every distance 0.0, always "within epsilon"
    for target, system in (("mix", "full2"), ("lebesgue", "cat")):
        assert main(["approx-measure", files[target], files[system], "--epsilon", "0.1",
                     "--mode", "periodic", "--depth", depth, "--out", files["out"]]) == 2
        assert "--depth must be >= 1" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("epsilon", ["0", "-1"])
def test_approx_measure_epsilon_not_positive_exit_2(files, capsys, epsilon):
    # both modes ran and reported "within_epsilon": false
    for target, system, mode in (("mix", "full2", "periodic"), ("lebesgue", "cat", "periodic"),
                                 ("mix", "full2", "bernoulli")):
        assert main(["approx-measure", files[target], files[system], "--epsilon", epsilon,
                     "--mode", mode, "--out", files["out"]]) == 2
        assert "--epsilon must be > 0" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_matrix_commands_read_matrix_and_sft_files_only(files, tmp_path, capsys):
    # a toral file ended analyze in an AttributeError traceback
    assert main(["analyze", str(DATA / "cat_map.json"), "--out", files["out"]]) == 2
    assert "expected a transition matrix or an sft system" in capsys.readouterr().err
    resized = tmp_path / "resized.json"
    resized.write_text(json.dumps({"size": 3, "rows": [[1, 1], [1, 0]]}))
    assert main(["analyze", str(resized), "--out", files["out"]]) == 2
    assert "declared size does not match rows" in capsys.readouterr().err
    assert main(["analyze", files["full2"], "--out", files["out"]]) == 0


@pytest.mark.parametrize("role, payload", [
    ("system", [[1, 1], [1, 0]]),
    ("target", [[1, 1], [1, 0]]),
    ("system", {"rows": 5}),
    ("system", {"kind": "sft", "matrix": [[1, 1], [1, 0]]}),
    ("system", {"kind": "horseshoe", "rates": 0.3}),
    ("system", {"kind": "horseshoe", "rates": [0.3]}),
    ("system", {"kind": "toral", "matrix": 5}),
    ("target", {"kind": "periodic_mix", "components": 5}),
    ("target", {"kind": "periodic_mix", "components": [{"cycle": "0", "weight": math.inf}]}),
    ("target", {"kind": "periodic_mix", "components": [{"cycle": "0", "weight": math.nan}]}),
    ("target", {"kind": "bernoulli", "p": [math.nan, 1]}),
    ("target", {"kind": "bernoulli", "p": [0.5, -math.inf]}),
    ("target", {"kind": "periodic_mix", "components": [{"cycle": "0", "weight": "1/0"}]}),
    ("system", {"kind": "horseshoe", "rates": [0.3, math.inf]}),
    ("system", {"kind": "horseshoe", "rates": [0.3, 10 ** 400]}),
], ids=["array_system", "array_target", "rows_5", "sft_matrix_array", "rates_0.3",
        "rates_[0.3]", "toral_matrix_5", "components_5", "weight_Infinity", "weight_NaN",
        "p_NaN", "p_-Infinity", "weight_1/0", "rates_Infinity", "rates_10^400"])
def test_malformed_files_exit_2(files, capsys, role, payload):
    # each of these ended in a traceback (exit 1) where the file is read, or,
    # for the non-finite numbers (which Python's json reads), in a NaN report
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(payload))
    approx = ["approx-measure", "--epsilon", "0.1", "--mode"]
    if role == "target":
        runs = [approx + [mode, str(path), files["full2"]] for mode in ("periodic", "bernoulli")]
    else:
        runs = [["analyze", str(path)], ["pseudo-shadow", str(path), "0"],
                approx + ["periodic", files["mix"], str(path)]]
    for argv in runs:
        assert main(argv + ["--out", files["out"]]) == 2
        assert "invalid input: " in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("argv, config", [
    (["pseudo-shadow", "cat", "1/5,2/5", "--delta", "0.01", "--tol", "nan"], None),
    (["pseudo-shadow", "cat", "1/5,2/5", "--delta", "nan"], None),
    (["pseudo-shadow", "cat", "1/5,2/5", "--delta", "inf"], None),
    (["pseudo-shadow", "cat", "1/5,2/5"], {"delta": math.nan}),
    (["approx-measure", "lebesgue", "cat", "--epsilon", "nan", "--mode", "periodic"], None),
    (["approx-measure", "lebesgue", "cat", "--mode", "periodic"], {"epsilon": math.inf}),
    (["lpp", "golden", "--epsilon=-inf", "--n-max", "30"], None),
    (["perturb-smoke", "horseshoe", "--magnitude", "nan"], None),
], ids=["tol_nan", "delta_nan", "delta_inf", "config_delta_NaN", "epsilon_nan",
        "config_epsilon_Infinity", "lpp_epsilon_-inf", "magnitude_nan"])
def test_non_finite_options_exit_2(files, capsys, argv, config):
    # NaN slipped through every comparison: reports held NaN, or the run exited 3
    argv = [files.get(a, a) for a in argv]
    if config is not None:
        path = files["tmp"] / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv + ["--out", files["out"]]) == 2
    err = capsys.readouterr().err
    assert "invalid input: " in err and "not a finite number" in err
    assert not Path(files["out"]).exists()


def test_approx_measure_reads_a_bare_matrix(files, tmp_path):
    target = tmp_path / "golden_mix.json"
    target.write_text(json.dumps({"kind": "periodic_mix", "components": [
        {"cycle": "0", "weight": 0.5}, {"cycle": "01", "weight": 0.5}]}))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"kind": "sft", "matrix": {"rows": [[1, 1], [1, 0]]}}))
    reports = []
    for system in (files["golden"], str(wrapped)):
        out = tmp_path / Path(system).stem
        assert main(["approx-measure", str(target), system, "--epsilon", "0.1",
                     "--mode", "periodic", "--out", str(out)]) == 0
        reports.append((out / "approx_measure.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, sha256", [
    (["target_half_mix.json", "full_2_shift.json", "--epsilon", "0.1",
      "--mode", "bernoulli"],
     "e844703e232d6b462064e60fb0852a42a5e1e5b7060e19233b71c61cacbd1624"),
    (["target_lebesgue.json", "cat_map.json", "--epsilon", "0.05",
      "--mode", "periodic", "--max-period", "30"],
     "e8f60f2d24dbe73792b5bcb112742c407988498866381fafbe73e965ced57bef"),
    (["target_lebesgue.json", "cat_map.json", "--epsilon", "0.05",
      "--mode", "periodic", "--max-period", "30", "--depth", "3"],
     "e8f60f2d24dbe73792b5bcb112742c407988498866381fafbe73e965ced57bef"),
], ids=["bernoulli", "periodic_torus", "periodic_torus_depth_3"])
def test_readme_approx_measure_reports_are_pinned(tmp_path, argv, sha256):
    # the README runs; a change in the last bit of a distance, P or pi changes the digest
    out = tmp_path / "out"
    assert main(["approx-measure", str(DATA / argv[0]), str(DATA / argv[1]), *argv[2:],
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "approx_measure.json").read_bytes()).hexdigest() == sha256


def test_readme_bernoulli_report_without_its_distances_is_pinned(tmp_path):
    # the chosen cycle, m, block subshift and its Parry measure byte for byte,
    # the chain as its closed form from the renewal root writes it; only the scan
    # and distance floats, read off the renewal masses, may move in their last bits
    out = tmp_path / "out"
    assert main(["approx-measure", str(DATA / "target_half_mix.json"),
                 str(DATA / "full_2_shift.json"), "--epsilon", "0.1", "--mode", "bernoulli",
                 "--out", str(out)]) == 0
    report = json.loads((out / "approx_measure.json").read_text())
    kept = {key: report[key] for key in ("cycle", "m", "excursion", "block_states",
                                         "measure", "within_epsilon")}
    assert hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest() == \
        "b99d2ee68846a7d7652e187e0ef3c7be4f13f60de2e8b08b36dd8202235baa98"


def test_perturb_smoke(files):
    code = main(["perturb-smoke", files["horseshoe"], "--magnitude", "0.033",
                 "--out", files["out"]])
    assert code == 0
    report = read_report(files, "perturb_smoke.json")
    assert report["same_N0"] is True
    assert abs(report["after"]["rates"][0] - (1 / 3) * 1.033) < 1e-12

    assert main(["perturb-smoke", files["horseshoe"], "--magnitude", "0.9",
                 "--out", files["out"]]) == 2

    assert main(["perturb-smoke", files["horseshoe"], "--magnitude", "0",
                 "--out", files["out"]]) == 0
    zero = read_report(files, "perturb_smoke.json")
    assert zero["before"] == zero["after"]


def test_perturb_smoke_reads_n0_past_any_listing(files):
    # at epsilon 0.001 (m = 7) N0 = 128 exceeded the former default n_max of
    # 40, and the run exited 3
    assert main(["perturb-smoke", str(DATA / "horseshoe.json"), "--magnitude", "0.033",
                 "--epsilon", "0.001", "--out", files["out"]]) == 0
    report = read_report(files, "perturb_smoke.json")
    assert (report["before"]["N0"], report["after"]["N0"], report["same_N0"]) == (128, 128, True)
    assert report["config"]["parameters"].keys() == {"system", "magnitude", "epsilon"}


@pytest.mark.parametrize("epsilon", ["0", "-0.1"])
def test_perturb_smoke_non_positive_epsilon_exit_2(files, epsilon, capsys):
    assert main(["perturb-smoke", files["horseshoe"], "--magnitude", "0.033",
                 "--epsilon", epsilon, "--out", files["out"]]) == 2
    assert "scale must be positive" in capsys.readouterr().err


def test_coding_table(files):
    assert main(["coding-table", files["horseshoe"], "--depth", "2",
                 "--out", files["out"]]) == 0
    report = read_report(files, "coding_table.json")
    assert len(report["table"]) == 16


def test_coding_table_negative_depth_exit_2(files, capsys):
    assert main(["coding-table", files["horseshoe"], "--depth", "-2",
                 "--out", files["out"]]) == 2
    assert "--depth must be >= 0" in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_coding_table_explosive_depth_exit_3(files, capsys, monkeypatch):
    def no_rows(self, depth):
        raise AssertionError("coding table built")

    monkeypatch.setattr(Horseshoe, "coding_table", no_rows)
    assert main(["coding-table", files["horseshoe"], "--depth", str(MAX_CODING_DEPTH + 1),
                 "--out", files["out"]]) == 3
    assert f"--depth {MAX_CODING_DEPTH + 1} exceeds {MAX_CODING_DEPTH}" \
        in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("target, system, mode", [
    ("target_half_mix.json", "full_2_shift.json", "periodic"),
    ("target_half_mix.json", "full_2_shift.json", "bernoulli"),
    ("target_lebesgue.json", "cat_map.json", "periodic"),
], ids=["periodic", "bernoulli", "torus"])
def test_approx_measure_huge_depth_reads_the_filled_family(tmp_path, target, system, mode):
    # a family ends at FAMILY_SIZE observables, where its weights underflow, so
    # --depth 10^9 runs at once (depth 16 on the full 2-shift took 18 s near 1 GB
    # in bernoulli mode, and the torus 23 s at depth 181) and reports the distance
    # of the least depth whose family has FAMILY_SIZE observables
    def run(depth):
        out = tmp_path / str(depth)
        assert main(["approx-measure", str(DATA / target), str(DATA / system),
                     "--epsilon", "0.05", "--mode", mode, "--depth", str(depth),
                     "--out", str(out)]) == 0
        return json.loads((out / "approx_measure.json").read_text())

    if system == "cat_map.json":
        build = fourier_family
    else:
        build = lambda depth: cylinder_family(TransitionMatrix.full_shift(2), depth)
    filled = next(depth for depth in range(1, 100) if len(build(depth)) == FAMILY_SIZE)
    start = time.perf_counter()
    report = run(10 ** 9)
    assert time.perf_counter() - start < 2.0
    keys = (["distance", "method"] if mode == "periodic" else
            ["distance_to_target", "distance_to_periodic", "scan", "m", "measure"])
    assert {k: report[k] for k in keys} == {k: run(filled)[k] for k in keys}


def test_torus_lattice_walk_exit_3(files, capsys, monkeypatch):
    # --max-denominator Q walks sum(q^2, q <= Q) lattice points, --max-period steps
    # each: Q = 100,000 at --max-period 30 ran past a minute; Q = 376 is the last kept
    def no_walk(*args):
        raise AssertionError("lattice walked")

    monkeypatch.setattr(ToralAutomorphism, "rational_orbit_spans", no_walk)
    for q in (377, 100_000):
        steps = 30 * (q * (q + 1) * (2 * q + 1) // 6 + 1024)
        assert steps > MAX_LATTICE_STEPS >= 30 * (376 * 377 * 753 // 6 + 1024)
        start = time.perf_counter()
        assert main(["approx-measure", files["lebesgue"], files["cat"], "--epsilon", "0.05",
                     "--mode", "periodic", "--max-period", "30", "--max-denominator", str(q),
                     "--out", files["out"]]) == 3
        assert time.perf_counter() - start < 1.0
        assert f"walk {steps} lattice steps, more than {MAX_LATTICE_STEPS}" \
            in capsys.readouterr().err
    assert not Path(files["out"]).exists()


def test_torus_lattice_walk_is_counted_at_most_q_squared_steps(files, capsys):
    # an orbit of points of exact order q has fewer than q^2 points, so Q = 40 walks
    # at most 40^2 steps whatever --max-period says: 37,062,400 lattice steps
    assert min(100_000, 40 * 40) * (40 * 41 * 81 // 6 + 1024) == 37_062_400 < MAX_LATTICE_STEPS
    assert main(["approx-measure", files["lebesgue"], files["cat"], "--epsilon", "0.05",
                 "--mode", "periodic", "--max-period", "100000", "--max-denominator", "40",
                 "--out", files["out"]]) == 0
    report = json.loads(capsys.readouterr().out)
    res = approximate_by_periodic(LebesgueTorus(), cat_map(), 0.05, fourier_family(3),
                                  max_period=100_000, max_denominator=40)
    assert report["method"] == res.description == "orbit(0/25,3/25)"
    assert report["distance"] == res.distance == 0.00048317675951971213


def strict_json(text: str):
    """json.loads refusing NaN, Infinity and -Infinity, which strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: "_".join(argv[1:]))
def test_readme_commands_exit_0(argv, tmp_path, monkeypatch):
    # every README command runs as written, so the README cannot drift from the CLI,
    # and each report it writes is strict JSON, without NaN or Infinity
    assert argv[0] == "symshadow"
    monkeypatch.chdir(ROOT)
    assert main([*argv[1:], "--out", str(tmp_path)]) == 0
    reports = list(tmp_path.glob("*.json"))
    assert reports
    for report in reports:
        strict_json(report.read_text())


def test_reports_are_byte_identical_across_reruns(files, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["pseudo-shadow", files["cat"], "1/5,2/5", "--delta", "0.01"]
    assert main(argv + ["--out", out_a]) == 0
    assert main(argv + ["--out", out_b]) == 0
    for name in ("pseudo_shadow.json", "pseudo_shadow.csv"):
        assert (Path(out_a) / name).read_bytes() == (Path(out_b) / name).read_bytes()


@pytest.mark.parametrize("argv, sha256", [
    (["cat_map.json", "1/5,2/5", "--delta", "0.01"],
     "5a1522eaf94a8648e258c6ee843c79cbf6071fda9c8b2b897b200d36f9210c0c"),
    (["horseshoe.json", "01", "--delta", "0.05"],
     "48e7f75562879be1b2a3e9554268c04ec803938e3991621cd8f95d16b4e9eb86"),
    (["cat_map.json", "0,0", "--delta", "0.01"],
     "ab04828914406661e0c77e87efb7f89b16113e361562193a46c9e8a007a83f2f"),
    (["horseshoe.json", "0", "--delta", "0.05"],
     "8d790d7b34973978631ff4f2ed123104f57d8aa77d67bf027a3ccf6d55de0ece"),
], ids=["cat_map", "horseshoe", "cat_map_fixed_point", "horseshoe_fixed_point"])
def test_float_pseudo_shadow_reports_are_pinned(tmp_path, argv, sha256):
    # a change in the last bit of a float distance or defect changes the digest; the
    # fixed-point anchors' references are all distinct points, so there every
    # pseudo-orbit point reads its row of the reference's own gauge matrix
    out = tmp_path / "out"
    assert main(["pseudo-shadow", str(DATA / argv[0]), *argv[1:], "--out", str(out)]) == 0
    assert hashlib.sha256((out / "pseudo_shadow.json").read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("system, wrap, argv, sha256", [
    ("full_2_shift.json", False, ["01", "--delta", "0.125", "--dump-orbits"],
     "f9302e332e896d830a16304520ac1ae348ed13f48524ce1447e899ee620b2ab1"),
    ("golden_mean.json", True, ["0", "--delta", "0.125"],
     "1c0aacadb34e9c5439050a34a2e4a458596bbf3433ff97b45bb5f8c1585b66aa"),
    ("golden_mean.json", False, ["0", "--delta", "0.125"],
     "1c0aacadb34e9c5439050a34a2e4a458596bbf3433ff97b45bb5f8c1585b66aa"),
    ("full_2_shift.json", False, ["0", "--delta", "0.125"],
     "4a0afa699ed69d2f374b8c58439b4d6ad43bafdefc220991957e07a3dcb1c441"),
    ("golden_mean.json", False, ["01", "--delta", "0.125"],
     "af2fcb4139e8884b7ab99b8d026c636327fa3a4ce20e8c9121dc91b27a4bb7f5"),
    ("full_2_shift.json", False, ["01", "--delta", "0.125", "--n-from", "482", "--n-to", "512",
                                  "--dump-orbits"],
     "d2449df5204c6712208dc7359ea4a2fd8f87d0ca20d76bd2035cb1f4c0c1aa7a"),
], ids=["full_2_shift", "golden_mean", "golden_mean_bare", "full_2_shift_fixed_point",
        "golden_mean_01", "full_2_shift_long"])
def test_symbolic_pseudo_shadow_reports_are_pinned(tmp_path, system, wrap, argv, sha256):
    # every shadow distance, Hausdorff distance to the reference and dumped
    # orbit of the shift-space pipeline; a bare transition matrix and its
    # {"kind": "sft"} wrapping are one system
    path, out = DATA / system, tmp_path / "out"
    if wrap:
        path = tmp_path / system
        path.write_text(json.dumps({"kind": "sft",
                                    "matrix": json.loads((DATA / system).read_text())}))
    assert main(["pseudo-shadow", str(path), *argv, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "pseudo_shadow.json").read_bytes()).hexdigest() == sha256


# -- --config files ----------------------------------------------------------------


def write_config(files, payload):
    path = files["tmp"] / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_sets_a_boolean_flag(files):
    config = write_config(files, {"dump_orbits": True, "n_to": 10})
    assert main(["pseudo-shadow", files["full2"], "0", "--delta", "0.125",
                 "--config", config, "--out", files["out"]]) == 0
    report = read_report(files, "pseudo_shadow.json")
    assert [row["n"] for row in report["rows"]] == [9, 10]
    assert len(report["orbits"]) == 2


def test_config_sets_valued_and_required_options(files):
    config = write_config(files, {"max_period": 4})
    assert main(["analyze", files["golden"], "--config", config,
                 "--out", files["out"]]) == 0
    report = read_report(files, "analyze.json")
    assert sorted(report["periodic_counts"]) == ["1", "2", "3", "4"]
    assert report["config"]["parameters"]["max_period"] == 4

    config = write_config(files, {"epsilon": 0.25, "n_max": 30})
    assert main(["lpp", files["golden"], "--config", config, "--out", files["out"]]) == 0
    report = read_report(files, "lpp.json")
    assert report["N0"] == 3 and report["config"]["parameters"]["epsilon"] == 0.25


def test_explicit_flag_overrides_config(files):
    config = write_config(files, {"max_period": 4})
    assert main(["analyze", files["golden"], "--max-period", "6", "--config", config,
                 "--out", files["out"]]) == 0
    report = read_report(files, "analyze.json")
    assert len(report["periodic_counts"]) == 6


def test_config_rejects_unknown_or_mistyped_options(files, capsys):
    analyze = ["analyze", files["golden"]]
    shadow = ["pseudo-shadow", files["full2"], "0", "--delta", "0.125", "--n-to", "9"]
    approx = ["approx-measure", files["lebesgue"], files["cat"], "--epsilon", "0.1"]
    for argv, payload in ((analyze, {"no_such_option": 1}),
                          (analyze, {"matrix": "x.json"}),
                          (analyze, {"max_period": "many"}),
                          (shadow, {"dump_orbits": "yes"}),
                          (approx, {"mode": "sideways"})):
        config = write_config(files, payload)
        assert main(argv + ["--config", config, "--out", files["out"]]) == 2
    assert main(shadow + ["--config", write_config(files, {"dump_orbits": False}),
                          "--out", files["out"]]) == 0


def test_config_key_argparse_rejects_names_the_file(files, capsys):
    # both messages named only the token the file became, not the file or its key
    analyze = ["analyze", files["golden"], "--out", files["out"]]
    for payload, message in (({"matrix": "x.json"}, "unknown option 'matrix'"),
                             ({"max_period": [1, 2]},
                              "option max_period: argument --max-period: "
                              "invalid int value: '[1, 2]'")):
        config = write_config(files, payload)
        assert main(analyze + ["--config", config]) == 2
        out, err = capsys.readouterr()
        assert err == f"invalid input: {config}: {message}\n" and out == ""
    # a bad value on the command line is still argparse's, with its usage
    config = write_config(files, {"max_period": 4})
    with pytest.raises(SystemExit) as exc:
        main(analyze + ["--max-period", "many", "--config", config])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: symshadow analyze")
    assert "invalid int value: 'many'" in err and config not in err


def exit_code(argv):
    """main's exit code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def config_file_argv(argv, tmp_path):
    """argv with its options moved into a --config file: each --name value pair
    becomes a key, its value a JSON number where the text is one, else a string."""
    positional, config = [], {}
    words = iter(argv)
    for word in words:
        if not word.startswith("--"):
            positional.append(word)
            continue
        text = next(words)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        config[word[2:]] = value if json.dumps(value) == text else text
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return positional + ["--config", str(path)]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: "_".join(argv[1:]))
def test_a_config_file_reads_as_its_flags(argv, tmp_path, monkeypatch, capsys):
    # every README command writes the same files and stdout, byte for byte, when
    # its options come from a --config file
    monkeypatch.chdir(ROOT)
    runs = []
    for name, args in (("flags", argv[1:]), ("config", config_file_argv(argv[1:], tmp_path))):
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out,
                     {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    assert "--config" not in argv and runs[0] == runs[1]


def test_config_null_false_and_reserved_keys(files, capsys):
    analyze = ["analyze", files["golden"], "--out", files["out"]]
    lpp = ["lpp", files["golden"], "--out", files["out"]]
    # null gives no token: a required option stays missing, an optional one
    # keeps its default; both files ended in a TypeError traceback (exit 1)
    assert exit_code(lpp + ["--config", write_config(files, {"epsilon": None,
                                                             "n_max": 30})]) == 2
    assert "the following arguments are required: --epsilon" in capsys.readouterr().err
    assert main(analyze + ["--config", write_config(files, {"max_period": None})]) == 0
    assert read_report(files, "analyze.json")["config"]["parameters"]["max_period"] == 10
    capsys.readouterr()
    # true and false set only a flag (a bare --depth took the system file as
    # its value); help and config cannot come from a file, nor can an
    # abbreviation argparse would accept on the command line
    coding = ["coding-table", files["horseshoe"], "--out", files["out"]]
    for argv, payload, message in (
            (analyze, {"max_period": False}, "false sets only a flag"),
            (coding, {"depth": True}, "option depth: true sets only a flag"),
            (lpp + ["--n-max", "30"], {"epsilon": True}, "option epsilon: true sets only a flag"),
            (coding, {"dep": True}, "unknown option 'dep'"),
            (lpp, {"epsilon": False, "n_max": 30}, "required: --epsilon"),
            (analyze, {"help": True}, "cannot come from a config file"),
            (analyze, {"h": True}, "cannot come from a config file"),
            (analyze, {"config": "other.json"}, "cannot come from a config file"),
            (lpp, {"eps": 0.25, "n_max": 30}, "unknown option 'eps'")):
        config = write_config(files, payload)
        assert exit_code(argv + ["--config", config]) == 2
        out, err = capsys.readouterr()
        assert message in err and "usage: symshadow analyze" not in out
        assert "sets only a flag" not in message or f"{config}: option" in err


def config_option_cases() -> list[tuple[str, str]]:
    """(subcommand, dest) of every valued option and flag build_parser gives a
    subcommand, --help and --config aside."""
    return [(name, action.dest) for name, command in build_parser().commands.items()
            for action in command._actions
            if action.option_strings and action.dest not in ("help", "config")]


def sample_value(action):
    """A value for ``action`` that is none of the defaults: true for a flag."""
    if action.nargs == 0:
        return True
    return action.choices[-1] if action.choices else {int: 7, float: 0.375, None: "01"}[action.type]


@pytest.mark.parametrize("command, dest", config_option_cases())
def test_each_option_parses_alike_from_config_and_command_line(command, dest, tmp_path):
    # every option, those no README command passes too, gives the Namespace its
    # flag gives, keyed by its dest or with dashes, as a JSON value or its text
    actions = build_parser().commands[command]._actions
    action = next(a for a in actions if a.dest == dest)
    base = [command] + [f"arg{k}" for k, a in enumerate(actions) if not a.option_strings]
    base += [word for a in actions if a.required and a.option_strings and a is not action
             for word in (a.option_strings[0], str(sample_value(a)))]
    value = sample_value(action)
    flag = [action.option_strings[0]] + ([] if value is True else [str(value)])
    want = vars(_parse_args(base + flag))
    assert want.pop("config") is None and want[dest] != action.default
    path = tmp_path / "config.json"
    text = value if value is True else str(value)
    for payload in ({dest: value}, {dest.replace("_", "-"): text}):
        path.write_text(json.dumps(payload))
        got = vars(_parse_args(base + ["--config", str(path)]))
        assert got.pop("config") == str(path) and got == want
