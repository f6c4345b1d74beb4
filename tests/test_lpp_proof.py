"""An independent check of the proof an lpp certificate carries.

The checker reads the lpp report alone: the matrix and the cycle from its
config, and m, N0, the proof and the listed witnesses from the report.  It
uses nothing of the certificate engine and scans cyclic words on its own.
The proof holds a cycle C of length c (the girth) and, per residue class
r mod c, a least dense word.  Copies of C spliced into a class word at the
block b that C repeated starts with give every longer length of that class.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symshadow.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
# the fan 0 -> 1..5 -> 6 -> 0 with a return path 6 -> 7 -> 0: cycles of lengths 3 and 4
FAN_BACK = [[0, 1, 1, 1, 1, 1, 0, 0]] + [[0, 0, 0, 0, 0, 0, 1, 0]] * 5 \
    + [[1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]]


def component(rows, symbol):
    """The symbols that ``symbol`` reaches and that reach it."""
    def reached(step):
        seen, stack = {symbol}, [symbol]
        while stack:
            u = stack.pop()
            for v in range(len(rows)):
                if step(u, v) and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    return reached(lambda u, v: rows[u][v]) & reached(lambda u, v: rows[v][u])


def m_words(rows, symbols, m):
    """Every admissible m-word over ``symbols``."""
    words = [(s,) for s in sorted(symbols)]
    for _ in range(m - 1):
        words = [w + (t,) for w in words for t in sorted(symbols) if rows[w[-1]][t]]
    return words


def cyclic_factors(word, k):
    """The k-words read cyclically in ``word``, one starting at each position."""
    tiled = word * (k // len(word) + 2)
    return [tiled[i:i + k] for i in range(len(word))]


def splice(word, cycle, copies, b):
    """``word`` with ``copies`` copies of ``cycle`` put in where b first
    starts cyclically, so that the copies are followed by b."""
    i = cyclic_factors(word, len(b)).index(b)
    return word[:i] + cycle * copies + word[i:]


def digits(text):
    return tuple(map(int, text))


def check_proof(report):
    """Assert that the report's proof shows a dense cycle of every length
    n >= N0, and that its listed witnesses at the class lengths are the
    class words.  Returns the class lengths by residue."""
    config = report["config"]["parameters"]
    rows, m, proof = config["matrix"], report["m"], report["proof"]
    symbols = (set(range(len(rows))) if config["cycle"] is None
               else component(rows, int(config["cycle"][0])))
    targets = set(m_words(rows, symbols, m))

    def admissible(word):
        return set(word) <= symbols and all(rows[a][b] for a, b in cyclic_factors(word, 2))

    def dense(word):
        return admissible(word) and targets <= set(cyclic_factors(word, m))

    c, cycle = proof["girth"], digits(proof["girth_cycle"])
    assert len(cycle) == c and admissible(cycle)
    classes = {int(r): digits(word) for r, word in proof["classes"].items()}
    assert sorted(classes) == list(range(c))
    assert all(len(word) % c == r and dense(word) for r, word in classes.items())
    assert report["N0"] == max(2, max(map(len, classes.values())) - c + 1)
    b = (cycle * m)[:max(m - 1, 1)]
    for word in classes.values():
        for copies in range(1, 9):
            longer = splice(word, cycle, copies, b)
            assert len(longer) == len(word) + copies * c and dense(longer)
    for r, word in classes.items():
        listed = report["witnesses"].get(str(len(word)))
        assert listed is None or listed == proof["classes"][str(r)]
    return {r: len(word) for r, word in classes.items()}


def lpp(out, rows, epsilon, n_max=40, cycle=None):
    """The lpp report on ``rows``, written under the directory ``out``, or
    None if the run exits 3 (a search too large)."""
    matrix = Path(out) / "matrix.json"
    matrix.write_text(json.dumps({"rows": rows}))
    argv = ["lpp", str(matrix), "--epsilon", str(epsilon), "--n-max", str(n_max)]
    code = main(argv + (["--cycle", cycle] if cycle else []) + ["--out", str(out)])
    assert code in (0, 3)
    return json.loads((Path(out) / "lpp.json").read_text()) if code == 0 else None


def test_the_readme_golden_mean_proof(tmp_path, monkeypatch):
    monkeypatch.chdir(DATA.parent)
    assert main(["lpp", "data/golden_mean.json", "--epsilon", "0.25", "--n-max", "100",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "lpp.json").read_text())
    assert report["proof"] == {"girth": 1, "girth_cycle": "0", "classes": {"0": "001"}}
    assert check_proof(report) == {0: 3}


def test_a_girth_two_proof_at_m_one(tmp_path):
    report = lpp(tmp_path, [[0, 0, 1], [1, 0, 1], [0, 1, 0]], 0.5)
    assert report["proof"] == {"girth": 2, "girth_cycle": "12",
                               "classes": {"0": "021021", "1": "021"}}
    assert report["N0"] == 5
    assert check_proof(report) == {0: 6, 1: 3}


@pytest.mark.parametrize("epsilon, lengths, N0", [
    (0.5, {0: 18, 1: 16, 2: 17}, 16),
    (0.25, {0: 18, 1: 16, 2: 17}, 16),
    (0.125, {0: 39, 1: 43, 2: 35}, 41),
])
def test_girth_three_proofs_on_the_fan_with_a_return_path(tmp_path, epsilon, lengths, N0):
    report = lpp(tmp_path, FAN_BACK, epsilon)
    assert report["N0"] == N0 and report["proof"]["girth"] == 3
    assert check_proof(report) == lengths


def test_a_cycle_restricted_proof_stays_in_its_component(tmp_path):
    # {0, 2} reaches the golden mean on {1, 3}, where the cycle 13 lies
    rows = [[1, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    report = lpp(tmp_path, rows, 0.25, cycle="13")
    assert report["proof"] == {"girth": 1, "girth_cycle": "1", "classes": {"0": "113"}}
    assert check_proof(report) == {0: 3}
    assert all(set(word) <= set("13") for word in report["witnesses"].values())


@pytest.mark.parametrize("epsilon", [0.5, 0.25])
def test_a_lone_loop_symbol_proof(tmp_path, epsilon):
    # the component {1} of [[1, 0], [1, 1]]: at m = 1 the least walk through
    # every symbol is the loop, not the empty walk (which spelled no word)
    report = lpp(tmp_path, [[1, 0], [1, 1]], epsilon, n_max=3, cycle="1")
    assert report["proof"] == {"girth": 1, "girth_cycle": "1", "classes": {"0": "1"}}
    assert (report["N0"], report["witnesses"]) == (2, {"2": "11", "3": "111"})
    assert check_proof(report) == {0: 1}


def draw(rng, size):
    """An essential 0/1 matrix, loop-free half the time, and a loop symbol
    or None."""
    density, loops = rng.choice([0.25, 0.4, 0.6]), rng.random() < 0.5
    rows = [[int(rng.random() < density and (loops or i != j)) for j in range(size)]
            for i in range(size)]
    for i in range(size):  # every symbol gets a successor and a predecessor
        rows[i][(i + rng.randrange(1, size)) % size] = 1
        rows[(i + rng.randrange(1, size)) % size][i] = 1
    return rows, rng.choice([str(i) for i in range(size) if rows[i][i]] + [None])


@given(st.integers(2, 5), st.sampled_from([0.5, 0.25, 0.125]), st.integers(0, 10**9))
def test_every_drawn_certificate_carries_a_sound_proof(size, epsilon, seed):
    # plain, or restricted to the component of a loop
    rows, cycle = draw(random.Random(seed), size)
    with tempfile.TemporaryDirectory() as out:
        report = lpp(out, rows, epsilon, n_max=30, cycle=cycle)
    if report is not None and report["verdict"] == "certificate":
        check_proof(report)
