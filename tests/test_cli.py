import json
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_geom import cli
from cluster_geom.errors import ValidationError
from cluster_geom.intmat import Matrix, smith_diagonal
from cluster_geom.rank2 import Rank2Data
from cluster_geom.seeds import FixedData
from golden_cases import (
    A3_FROZEN,
    A4,
    B3,
    CASES,
    CYCLE4,
    D4,
    EXIT_CODES,
    G2,
    GOLDEN,
    ISOLATED,
    MARKOV,
    NINE_RAY,
    RANK4_FROZEN,
    TRIANGLE,
    WEIGHTED_TRIANGLE,
)
from test_rank2 import random_mixed_area_data

CLI = [sys.executable, "-m", "cluster_geom"]
A2_SKEW = [[0, 1], [-1, 0]]
# the golden cases (see golden_cases.py): rank2, the Laurent workloads
# (explore, laurent-check) and the seed commands (mutate, picard), each in
# the order of CASES
RANK2_GOLDEN = [
    (name, doc, argv[1:]) for name, (doc, argv) in CASES.items() if argv[0] == "rank2"
]
LAURENT_GOLDEN = [
    (name, doc, argv[0], argv[1:]) for name, (doc, argv) in CASES.items()
    if argv[0] in ("explore", "laurent-check")
]
SEED_GOLDEN = [
    (name, doc, argv[0], argv[1:]) for name, (doc, argv) in CASES.items()
    if argv[0] in ("mutate", "picard")
]


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env
    )


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({
        "rank": 2,
        "skew": [[0, 1], [-1, 0]],
        "d": [1, 1],
        "frozen": [],
    }))
    return str(path)


@pytest.fixture
def markov_file(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(json.dumps({
        "rank": 3,
        "skew": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
    }))
    return str(path)


@pytest.fixture
def nine_ray_file(tmp_path):
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({
        "w": [[1, 0]] * 3 + [[0, 1]] * 3 + [[-1, -1]] * 3,
        "nu": [1] * 9,
    }))
    return str(path)


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"w": [[1, 0], [0, 1], [-1, -1]]}))
    return str(path)


class TestMutate:
    def test_single_step(self, a2_file):
        out = run_cli("mutate", a2_file, "--path", "0")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["epsilon"] == [[0, -1], [1, 0]]
        assert doc["path"] == [0]

    def test_empty_path_echoes(self, a2_file):
        out = run_cli("mutate", a2_file)
        doc = json.loads(out.stdout)
        assert doc["epsilon"] == [[0, 1], [-1, 0]]
        assert doc["seed"]["basis"] == [[1, 0], [0, 1]]

    def test_involution(self, markov_file):
        out = run_cli("mutate", markov_file, "--path", "1,1")
        doc = json.loads(out.stdout)
        assert doc["epsilon"] == [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]

    def test_frozen_path_rejected(self, tmp_path):
        path = tmp_path / "frozen.json"
        path.write_text(json.dumps({
            "rank": 2, "skew": [[0, 1], [-1, 0]], "frozen": [1],
        }))
        out = run_cli("mutate", str(path), "--path", "1")
        assert out.returncode == 2
        assert "frozen" in out.stderr

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    def test_result_past_the_int_digit_limit_exits_three(self, tmp_path):
        # each entry loads (3001 digits), but mutation squares them, and
        # Python refuses to print ints of more than 4300 digits
        b = 10 ** 3000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "rank": 3, "skew": [[0, b, -b], [-b, 0, b], [b, -b, 0]],
        }))
        out = run_cli("mutate", str(path), "--path", "0,1")
        assert out.returncode == 3
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_roundtrip_canonical(self, a2_file, tmp_path):
        out1 = run_cli("mutate", a2_file, "--path", "0")
        seed_doc = json.loads(out1.stdout)["seed"]
        reload_path = tmp_path / "reload.json"
        reload_path.write_text(json.dumps(seed_doc))
        out2 = run_cli("mutate", str(reload_path))
        assert json.loads(out2.stdout)["seed"] == seed_doc


class TestExplore:
    def test_a2_unlabeled_five_clusters(self, a2_file):
        out = run_cli("explore", a2_file, "--depth", "12", "--dedup", "unlabeled")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["clusters"] == 5
        assert doc["nodes"] == 5
        assert doc["laurent_ok"] is True

    def test_depth_zero(self, a2_file):
        doc = json.loads(run_cli("explore", a2_file, "--depth", "0").stdout)
        assert doc["nodes"] == 1

    def test_huge_depth_stops_when_graph_is_complete(self, a2_file, capsys):
        assert cli.main(["explore", a2_file, "--depth", "10"]) == 0
        shallow = json.loads(capsys.readouterr().out)
        started = time.perf_counter()
        assert cli.main(["explore", a2_file, "--depth", str(10**18)]) == 0
        elapsed = time.perf_counter() - started
        deep = json.loads(capsys.readouterr().out)
        assert elapsed < 1, f"explore kept looping for {elapsed:.2f}s"
        assert deep["depth"] == 10**18
        for key in ("nodes", "edges", "clusters"):
            assert deep[key] == shallow[key]

    def test_violation_exit_four(self, a2_file, monkeypatch, capsys):
        from importlib import import_module

        explore = import_module("cluster_geom.explore")  # not the function
        monkeypatch.setattr(explore, "exact_divide", lambda *args: None)
        assert cli.main(["explore", a2_file, "--depth", "2"]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        # one line, naming the path of the first step's child
        assert out.err.startswith("laurent violation:")
        assert out.err.endswith(" on path [0]\n") and out.err.count("\n") == 1

    def test_markov_determinism(self, markov_file):
        a = run_cli("explore", markov_file, "--depth", "4")
        b = run_cli("explore", markov_file, "--depth", "4")
        assert a.stdout == b.stdout
        assert a.returncode == 0

    def test_truncation_exit_code(self, markov_file):
        out = run_cli(
            "explore", markov_file, "--depth", "8", "--max-terms", "4"
        )
        assert out.returncode == 3
        assert json.loads(out.stdout)["truncated"] is True

    def test_env_cap(self, markov_file):
        out = run_cli(
            "explore", markov_file, "--depth", "8",
            env={"CLUSTER_GEOM_MAX_TERMS": "4"},
        )
        assert out.returncode == 3

    def test_exponent_overflow_truncates(self, tmp_path):
        path = tmp_path / "huge.json"
        big = 1 << 62
        path.write_text(json.dumps({"rank": 2, "skew": [[0, big], [-big, 0]]}))
        out = run_cli("explore", str(path), "--depth", "2")
        assert out.returncode == 3
        assert json.loads(out.stdout)["truncated"] is True
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("option", [
        ("--workers", "0"), ("--max-terms", "0"), ("--max-terms", "-1"),
    ])
    def test_nonpositive_options_rejected(self, a2_file, option):
        out = run_cli("explore", a2_file, "--depth", "2", *option)
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert out.stdout == ""

    @pytest.mark.parametrize("command", [
        ("explore",), ("laurent-check", "--side", "A", "--q", "1,0"),
        ("laurent-check", "--side", "X", "--q", "1,0"),
    ])
    def test_negative_depth_rejected(self, a2_file, command):
        out = run_cli(command[0], a2_file, *command[1:], "--depth", "-1")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert out.stdout == ""

    def test_laurent_check_depth_zero_accepted(self, a2_file):
        out = run_cli(
            "laurent-check", a2_file, "--side", "A", "--q", "1,0", "--depth", "0"
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["paths_checked"] == 0

    def test_nonpositive_env_cap_rejected(self, a2_file):
        out = run_cli(
            "explore", a2_file, "--depth", "2",
            env={"CLUSTER_GEOM_MAX_TERMS": "-5"},
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error:")


class TestMalformedSeedFile:
    def test_ragged_skew(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"rank": 2, "skew": [[0, 1], [-1]]}))
        out = run_cli("explore", str(path), "--depth", "1")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("doc", [
        {"rank": 2, "skew": 5},
        {"rank": 2, "skew": A2_SKEW, "d": 5},
        {"rank": "2", "skew": A2_SKEW},
        {"rank": 2, "skew": A2_SKEW, "frozen": 5},
        {"rank": 2, "skew": A2_SKEW, "basis": [[1, "a"], [0, 1]]},
        {"rank": 2, "skew": A2_SKEW, "basis": [[1, True], [0, 1]]},
        {"w": 5},
    ])
    def test_wrong_types(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = run_cli("picard", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr

    # plane data mixed with skew-form fields, and plane data nested in a block
    @pytest.mark.parametrize("doc", [
        {**TRIANGLE, "rank": 3, "skew": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]},
        {**TRIANGLE, "d": [1, 1, 1]},
        {**TRIANGLE, "frozen": []},
        {**TRIANGLE, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"rank": 2, "skew": A2_SKEW, "nu": [1, 1]},
        {"rank2": TRIANGLE},
    ])
    def test_one_of_the_two_shapes(self, tmp_path, capsys, doc):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["picard", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:")

    # a misspelled optional field must not silently take its default
    @pytest.mark.parametrize("doc, key", [
        ({"rank": 2, "skew": A2_SKEW, "frozn": [1]}, "frozn"),
        ({**TRIANGLE, "weights": [1, 1, 1]}, "weights"),
        ({"skew": A2_SKEW, "rank": 2, "": 0}, ""),
    ])
    def test_unknown_key(self, tmp_path, doc, key):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        out = run_cli("mutate", str(path), "--path", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"error: seed file has unknown key(s): {key!r}\n"

    @pytest.mark.parametrize("key", ["rank", "skew", "d", "frozen", "basis", "w", "nu"])
    def test_a_null_field(self, tmp_path, capsys, key):
        # a null d or nu must not stand for the default
        doc = TRIANGLE if key in ("w", "nu") else {"rank": 2, "skew": A2_SKEW}
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({**doc, key: None}))
        assert cli.main(["picard", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: seed file has null field(s): {key!r}\n")

    def test_directory_as_seed_file(self, tmp_path):
        out = run_cli("picard", str(tmp_path))
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr


# malformed values of the fields that FixedData and Rank2Data check
FIELD_CASES = [
    ("rank", "2"), ("rank", 2.5), ("rank", True), ("rank", 3), ("rank", -1),
    ("d", 5), ("d", [1]), ("d", [1, "1"]), ("d", [True, 1]), ("d", [2, 2]), ("d", [0, 1]),
    ("frozen", 5), ("frozen", [2]), ("frozen", ["0"]), ("frozen", [False]), ("frozen", [[0]]),
    ("w", 5), ("w", [5]), ("w", [[1, 0, 0]]), ("w", [["1", 0]]), ("w", [[2, 0]]),
    ("nu", 5), ("nu", [1, 1]), ("nu", [1, 1, 0]), ("nu", ["1", 1, 1]), ("nu", [1, 1, 1.0]),
]


class TestFieldErrors:
    @pytest.mark.parametrize("key, value", FIELD_CASES)
    def test_the_cli_prints_the_constructors_message(self, tmp_path, capsys, key, value):
        if key in ("w", "nu"):
            doc = {**TRIANGLE, "nu": [1, 1, 1], key: value}
            build, args = Rank2Data, (doc["w"], doc["nu"])
        else:
            doc = {"rank": 2, "skew": A2_SKEW, key: value}
            build = FixedData
            args = (doc["rank"], Matrix(A2_SKEW), doc.get("d"), doc.get("frozen", ()))
        with pytest.raises(ValidationError) as exc:
            build(*args)
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["picard", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")


_small_or_huge = st.one_of(
    st.integers(-3, 3), st.sampled_from([1 << 62, -(1 << 62), 1 << 200])
)
_junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _small_or_huge,
        st.sampled_from(["1/2", "-3", "a", "1/0", "1/2/3", ""]),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
_FIELDS = ("rank", "skew", "d", "frozen", "basis", "w", "nu", "rank2")
_PLANE = ([1, 0], [0, 1], [-1, -1], [1, 1], [-1, 0], [0, -1], [1, 2])


@st.composite
def _seed_docs(draw):
    """A mostly valid seed document (skew form or plane data) with up to two
    fields replaced by arbitrary JSON."""
    if draw(st.booleans()):
        w = draw(st.lists(st.sampled_from(_PLANE), min_size=2, max_size=5))
        doc = {"w": w, "nu": [draw(st.integers(1, 2)) for _ in w]}
    else:
        n = draw(st.integers(1, 3))
        skew = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                skew[i][j] = draw(_small_or_huge)
                skew[j][i] = -skew[i][j]
        shear = draw(_small_or_huge)
        doc = {
            "rank": n,
            "skew": skew,
            "d": [draw(st.integers(1, 2)) for _ in range(n)],
            "frozen": draw(st.lists(st.integers(0, n - 1), max_size=1)),
            "basis": [[int(i == j) + shear * (i < j) for j in range(n)]
                      for i in range(n)],
        }
    for key in draw(st.lists(st.sampled_from(_FIELDS), max_size=2)):
        doc[key] = draw(_junk)
    return doc


class TestFuzzSeedDocuments:
    @settings(max_examples=150, deadline=None)
    @given(doc=st.one_of(_seed_docs(), _junk))
    def test_documented_exit_codes(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz_seed.json"
        path.write_text(json.dumps(doc))
        for argv in (["picard", str(path)],
                     ["explore", str(path), "--depth", "1"]):
            assert cli.main(argv) in (0, 2, 3, 4)


# generated argv: every subcommand on skew-form and plane files, with list
# options drawn from -3..10, empty items, non-integers and 20-digit numbers.
# explore and laurent-check run at depth <= 3, where the exchange-polynomial
# product, which has no cap yet, stays small on these seeds.
_ARGV_FILES = {
    "a2": {"rank": 2, "skew": A2_SKEW}, "markov": MARKOV, "g2": G2, "b3": B3,
    "isolated": ISOLATED, "rank4_frozen": RANK4_FROZEN, "nine_ray": NINE_RAY,
    "triangle": TRIANGLE, "weighted_triangle": WEIGHTED_TRIANGLE,
}
_integer = st.integers(-3, 10).map(str)
_junk_item = st.one_of(
    st.sampled_from(["", "a", "1.5", "0x3"]), st.integers(10**19, 10**20 - 1).map(str)
)


def _list_option(min_size=0, max_size=5):
    """Integers in -3..10; half the time also empty items, non-integers and
    20-digit numbers."""
    return st.one_of(
        st.lists(_integer, min_size=min_size, max_size=max_size),
        st.lists(_integer | _junk_item, min_size=min_size, max_size=max_size),
    ).map(",".join)


_depth = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
_max_terms = st.sampled_from(["0", "1", "4", "40", "many"])
_OPTIONS = {
    "mutate": {"--path": _list_option()},
    "explore": {
        "--depth": _depth, "--dedup": st.sampled_from(["labeled", "unlabeled"]),
        "--workers": st.sampled_from(["0", "1", "2"]), "--max-terms": _max_terms,
    },
    "laurent-check": {
        "--side": st.sampled_from(["A", "X"]), "--q": _list_option(),
        "--depth": _depth, "--max-terms": _max_terms,
    },
    "picard": {},
    "rank2": {"--mutations": _list_option()},
}


@st.composite
def _argv(draw):
    """A subcommand on one of the files.  Half the time one option, required
    or not, is left out, and half the time --q has the seed's rank as its
    length."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    name = draw(st.sampled_from(sorted(_ARGV_FILES)))
    options = dict(_OPTIONS[command])
    if command == "laurent-check" and draw(st.booleans()):
        doc = _ARGV_FILES[name]
        n = len(doc["w"]) if "w" in doc else doc["rank"]
        options["--q"] = _list_option(n, n)
    omit = draw(st.sampled_from(sorted(options))) if options and draw(st.booleans()) else None
    return [command, name] + [
        f"{option}={draw(values)}" for option, values in options.items() if option != omit
    ]


class TestGeneratedArgv:
    @settings(max_examples=500, deadline=None)
    @given(argv=_argv())
    def test_documented_exit_codes(self, tmp_path_factory, argv):
        path = tmp_path_factory.getbasetemp() / f"argv_{argv[1]}.json"
        path.write_text(json.dumps(_ARGV_FILES[argv[1]]))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([argv[0], str(path), *argv[2:]])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
        if code == 3:
            assert out or err.startswith("error:")


class TestLaurentCheck:
    def test_a_side_pass(self, a2_file):
        out = run_cli(
            "laurent-check", a2_file, "--side", "A", "--q", "1,0", "--depth", "6"
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["laurent_ok"] is True

    def test_zero_monomial(self, a2_file):
        out = run_cli(
            "laurent-check", a2_file, "--side", "A", "--q", "0,0", "--depth", "3"
        )
        assert out.returncode == 0

    def test_precondition_exit_two(self, a2_file):
        # values starting with "-" need the --q=... form
        out = run_cli(
            "laurent-check", a2_file, "--side", "A", "--q=-1,0", "--depth", "3"
        )
        assert out.returncode == 2
        assert "negatively" in out.stderr

    def test_term_cap_exit_three(self, markov_file):
        out = run_cli(
            "laurent-check", markov_file, "--side", "A", "--q=1,0,0",
            "--depth", "5", "--max-terms", "3",
        )
        assert out.returncode == 3
        assert out.stderr.startswith("error:")
        assert out.stdout == ""

    def test_violation_exit_four(self, a2_file, monkeypatch, capsys):
        from importlib import import_module

        from cluster_geom.laurent import LaurentPolynomial, RationalExpression

        explore = import_module("cluster_geom.explore")  # not the function
        real = explore.inverse_pullback_A

        def broken(seed, k, expr):
            if seed.path == (0,):  # every child of path [0] is non-Laurent
                one = LaurentPolynomial.one(2)
                return RationalExpression(one, one + LaurentPolynomial.variable(2, 0))
            return real(seed, k, expr)

        monkeypatch.setattr(explore, "inverse_pullback_A", broken)
        code = cli.main(
            ["laurent-check", a2_file, "--side", "A", "--q", "1,0", "--depth", "3"]
        )
        # as in explore: no report, and one line that names the first path
        # whose step is not Laurent
        assert code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("laurent violation:")
        assert out.err.endswith(" on path [0, 1]\n") and out.err.count("\n") == 1

    def test_x_side(self, a2_file):
        out = run_cli(
            "laurent-check", a2_file, "--side", "X", "--q", "1,-1", "--depth", "5"
        )
        assert out.returncode == 0

    def test_a_long_pascal_row_is_not_kept(self, a2_file, capsys):
        # the twist reads the row of (1 + t)^30000, about 80 MB of ints,
        # which must not outlive the job
        tracemalloc.start()
        try:
            code = cli.main(
                ["laurent-check", a2_file, "--side", "A", "--q=30000,0", "--depth", "1"]
            )
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "depth": 1, "laurent_ok": True, "max_degree": 30000, "max_terms": 30001,
            "paths_checked": 2, "q": [30000, 0], "side": "A", "witnesses": [],
        }
        assert kept < 1 << 20, kept


class TestPicard:
    def test_markov(self, markov_file):
        out = run_cli("picard", markov_file)
        doc = json.loads(out.stdout)
        assert doc["invariant_factors"] == [2, 2, 0]
        assert doc["factoriality"] == "not_guaranteed"

    def test_a2(self, a2_file):
        doc = json.loads(run_cli("picard", a2_file).stdout)
        assert doc["invariant_factors"] == []
        assert doc["torsion_free"] is True

    def test_frozen_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "rank": 2, "skew": [[0, 1], [-1, 0]], "frozen": [0],
        }))
        out = run_cli("picard", str(path))
        assert out.returncode == 2


class TestRank2:
    def test_nine_ray(self, nine_ray_file):
        out = run_cli("rank2", nine_ray_file)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["classification"] == "negative_semidefinite_degenerate"
        assert doc["fg_conjecture_possible"] is False
        assert doc["all_minus_two"] is True
        assert doc["non_noetherian_principal"] is True
        assert doc["is_coprime_seed"] is False

    def test_cubic(self, cubic_file):
        doc = json.loads(run_cli("rank2", cubic_file).stdout)
        assert doc["gram"] == [[-2]]
        assert doc["classification"] == "negative_definite"
        assert doc["fg_conjecture_possible"] is True
        assert doc["non_noetherian_principal"] is False

    def test_two_vector_trivial(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"w": [[1, 0], [0, 1]], "nu": [1, 1]}))
        doc = json.loads(run_cli("rank2", str(path)).stdout)
        assert doc["K_basis"] == []
        assert doc["fg_conjecture_possible"] is True

    def test_invariance_path(self, nine_ray_file):
        out = run_cli("rank2", nine_ray_file, "--mutations", "0,4,8")
        doc = json.loads(out.stdout)
        assert doc["invariance_ok"] is True
        assert doc["invariance_checked_paths"] == [[0, 4, 8]]

    def test_weighted_unsupported_fields(self, tmp_path):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({
            "w": [[1, 0], [0, 1], [-1, -1]], "nu": [3, 3, 3],
        }))
        out = run_cli("rank2", str(path))
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["supported"] is False
        assert doc["gram"] is None
        assert doc["epsilon"] == [[0, 3, -3], [-3, 0, 3], [3, -3, 0]]

    @pytest.mark.parametrize("name, doc, extra", RANK2_GOLDEN)
    def test_golden_stdout(self, tmp_path, capsys, name, doc, extra):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["rank2", str(path), *extra]) == EXIT_CODES.get(name, 0)
        out, err = capsys.readouterr()
        assert (out, err) == ((GOLDEN / f"{name}.json").read_text(), "")
        keys = set(json.loads(out))
        assert ("note" in keys) == ("nu" in doc)
        assert "criterion" not in keys

    @pytest.mark.parametrize(
        "nu", [[1, 1, 1], [2, 2, 2]], ids=["weight-one", "weighted"]
    )
    @pytest.mark.parametrize("mutations", ["9", "0,3", "-1"])
    def test_mutation_index_out_of_range(self, tmp_path, capsys, nu, mutations):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"w": [[1, 0], [0, 1], [-1, -1]], "nu": nu}))
        code = cli.main(["rank2", str(path), "--mutations", mutations])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "out of range" in out.err


# (w, mutation path): nine-ray, the cubic and 40 random weight-one
# configurations, some with steep rays
QUARTER_TURN_CASES = [(NINE_RAY["w"], "0,4,8"), (TRIANGLE["w"], "0,1,2")] + [
    ([list(w) for w in data.w], "0,1") for data in random_mixed_area_data()
]


class TestQuarterTurns:
    @pytest.mark.parametrize(
        "w, path", QUARTER_TURN_CASES,
        ids=["nine-ray", "cubic"] + [f"random{i}" for i in range(len(QUARTER_TURN_CASES) - 2)],
    )
    def test_reports_are_invariant(self, tmp_path, capsys, w, path):
        # a quarter turn keeps every determinant det(w_i, w_j), so the
        # exchange matrix, the kernel and its pairing; the fan turns with
        # the plane, so only the start of its ray cycle moves
        def report(w):
            file = tmp_path / "w.json"
            file.write_text(json.dumps({"w": w}))
            assert cli.main(["rank2", str(file), "--mutations", path]) == 0
            return json.loads(capsys.readouterr().out)

        base = report(w)
        cycle = base.pop("boundary_self_intersections")
        for _ in range(3):
            w = [[-y, x] for x, y in w]
            turned = report(w)
            shifted = turned.pop("boundary_self_intersections")
            assert turned == base
            assert len(shifted) == len(cycle)
            assert any(shifted == cycle[s:] + cycle[:s] for s in range(len(cycle)))


def _permuted(rows, order):
    """The square matrix with entry (i, j) taken from (order[i], order[j])."""
    return [[rows[a][b] for b in order] for a in order]


def _relabeled(doc, order):
    """The seed document with index i renamed from order[i]; absent keys
    stay absent."""
    out = {"rank": doc["rank"], "skew": _permuted(doc["skew"], order)}
    if "d" in doc:
        out["d"] = [doc["d"][a] for a in order]
    if "frozen" in doc:
        out["frozen"] = sorted(order.index(f) for f in doc["frozen"])
    if "basis" in doc:
        out["basis"] = _permuted(doc["basis"], order)
    return out


def _command_report(tmp_path, capsys, command, doc, *extra):
    file = tmp_path / "seed.json"
    file.write_text(json.dumps(doc))
    assert cli.main([command, str(file), *extra]) == 0
    return json.loads(capsys.readouterr().out)


# (seed document, mutation path): every path label is unfrozen
RELABELING_CASES = {
    "Markov": (MARKOV, [0, 1, 0, 2]),
    "A4": (A4, [1, 3, 0, 2]),
    "D4": (D4, [1, 0, 3]),
    "cycle4": (CYCLE4, [3, 1, 2]),
    "B3": (B3, [2, 1, 0, 2]),
    "G2": (G2, [1, 0, 1]),
    "A3-frozen": (A3_FROZEN, [2, 0, 1]),
    "rank4-frozen": (RANK4_FROZEN, [0, 1, 0]),
}


class TestRelabeling:
    # renaming the indices of a seed file renames the indices of every seed
    # mutated from it: picard's Smith invariants stay, and mutate along the
    # renamed path gives the renamed seed and exchange matrix
    # picard takes seeds without frozen indices
    @pytest.mark.parametrize("doc", [
        doc for doc, _ in RELABELING_CASES.values() if not doc.get("frozen")
    ], ids=[name for name, (doc, _) in RELABELING_CASES.items() if not doc.get("frozen")])
    def test_picard_is_invariant(self, tmp_path, capsys, doc):
        base = _command_report(tmp_path, capsys, "picard", doc)
        for order in permutations(range(doc["rank"])):
            assert _command_report(tmp_path, capsys, "picard", _relabeled(doc, order)) == base

    @pytest.mark.parametrize("doc, path", RELABELING_CASES.values(), ids=RELABELING_CASES)
    def test_mutate_commutes_with_relabeling(self, tmp_path, capsys, doc, path):
        base = _command_report(tmp_path, capsys, "mutate", doc, "--path", ",".join(map(str, path)))
        for order in permutations(range(doc["rank"])):
            moved = [order.index(k) for k in path]
            out = _command_report(
                tmp_path, capsys, "mutate", _relabeled(doc, order),
                "--path", ",".join(map(str, moved)),
            )
            assert out == {
                "seed": _relabeled(base["seed"], order),
                "path": moved,
                "epsilon": _permuted(base["epsilon"], order),
            }, order


class TestRayPermutations:
    @pytest.mark.parametrize(
        "w, path", QUARTER_TURN_CASES,
        ids=["nine-ray", "cubic"] + [f"random{i}" for i in range(len(QUARTER_TURN_CASES) - 2)],
    )
    def test_reports_are_invariant(self, tmp_path, capsys, w, path):
        # permuting the rays permutes the indices of the seed: the fan, its
        # blowup and the kernel K are the same, but K's basis is another one,
        # so the Gram matrix changes by a unimodular congruence and keeps
        # its Smith diagonal
        def report(w, path):
            out = _command_report(tmp_path, capsys, "rank2", {"w": w}, "--mutations", path)
            gram = out.pop("gram")
            out.pop("K_basis")
            return out, gram and smith_diagonal(Matrix(gram))

        base, diagonal = report(w, path)
        labels = [int(k) for k in path.split(",")]
        rng = random.Random(len(w) * 31 + sum(labels))
        for order in (tuple(reversed(range(len(w)))), tuple(rng.sample(range(len(w)), len(w)))):
            moved = [order.index(k) for k in labels]
            out, gram_diagonal = report([w[a] for a in order], ",".join(map(str, moved)))
            assert out == {
                **base,
                "epsilon": _permuted(base["epsilon"], order),
                "invariance_checked_paths": [moved],
            }, order
            assert gram_diagonal == diagonal


def _golden_stdout(tmp_path, capsys, name, doc, command, extra):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path), *extra]) == EXIT_CODES.get(name, 0)
    assert capsys.readouterr() == ((GOLDEN / f"{name}.json").read_text(), "")


class TestLaurentGolden:
    @pytest.mark.parametrize("name, doc, command, extra", LAURENT_GOLDEN)
    def test_golden_stdout(self, tmp_path, capsys, name, doc, command, extra):
        _golden_stdout(tmp_path, capsys, name, doc, command, extra)


class TestSeedGolden:
    @pytest.mark.parametrize("name, doc, command, extra", SEED_GOLDEN)
    def test_golden_stdout(self, tmp_path, capsys, name, doc, command, extra):
        _golden_stdout(tmp_path, capsys, name, doc, command, extra)

    def test_every_case_is_in_one_group(self):
        assert len(RANK2_GOLDEN) + len(LAURENT_GOLDEN) + len(SEED_GOLDEN) == len(CASES)


def _report(result):
    """The JSON report of a run that must succeed: exit 0 and a JSON object
    on stdout, so two runs that fail alike compare as a failure."""
    assert result.returncode == 0, result.stderr
    assert isinstance(json.loads(result.stdout), dict)
    return result.stdout


class TestDeterminism:
    def test_all_commands_byte_identical(self, a2_file, nine_ray_file):
        pairs = [
            ("mutate", a2_file, "--path", "0,1"),
            ("explore", a2_file, "--depth", "6"),
            ("laurent-check", a2_file, "--side", "A", "--q", "1,1", "--depth", "4"),
            ("picard", a2_file),
            ("rank2", nine_ray_file),
        ]
        for args in pairs:
            assert _report(run_cli(*args)) == _report(run_cli(*args)), args

    def test_workers_identical(self, markov_file):
        a = run_cli("explore", markov_file, "--depth", "4", "--workers", "1")
        b = run_cli("explore", markov_file, "--depth", "4", "--workers", "4")
        assert _report(a) == _report(b)
