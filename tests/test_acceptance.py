"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with -s to see them).  All comparisons are exact; runtime
budgets are part of the criteria and asserted.
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from math import gcd

import pytest

from cluster_geom.explore import explore, root_node, step
from cluster_geom.intmat import Matrix
from cluster_geom.laurent import LaurentPolynomial
from cluster_geom.rank2 import (
    Fan2D,
    Rank2Data,
    _gram_for_vectors,
    _surface_for,
    build_seed,
    classify_definiteness,
    fg_failure_flag,
    invariance_check,
    non_fg_flag,
    symmetric_form,
)
from cluster_geom.seeds import (
    epsilon_from_basis,
    fan_mutation_consistency,
    is_coprime_seed,
    mutate_epsilon,
    mutate_seed,
    picard_invariants,
    principal_double,
    seed_from_epsilon,
    totally_coprime_sufficient,
)
from golden_cases import NINE_RAY, TRIANGLE

A2 = [[0, 1], [-1, 0]]
A3 = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]  # acyclic path quiver
MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def _pass(name, started):
    print(f"[PASS] {name} ({time.time() - started:.1f}s)")


def random_symmetrizable_seed(rng, n):
    while True:
        d = tuple(rng.choice([1, 1, 2, 3]) for _ in range(n))
        g = gcd(*d)
        d = tuple(x // g for x in d)
        if gcd(*d) == 1:
            break
    eps = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.randint(-3, 3)
            g = gcd(d[i], d[j])
            eps[i][j] = t * (d[j] // g)
            eps[j][i] = -t * (d[i] // g)
    return seed_from_epsilon(eps, d)


def test_criterion_1_laurent_phenomenon_depth_5():
    """Every cluster variable on every path to depth 5 is an exact Laurent
    polynomial with integer coefficients, for four standard seeds."""
    started = time.time()
    seeds = {
        "A2": seed_from_epsilon(A2),
        "A3": seed_from_epsilon(A3),
        "Markov": seed_from_epsilon(MARKOV),
        "nine-ray": build_seed(Rank2Data(**NINE_RAY)),
    }
    for name, seed in seeds.items():
        graph = explore(root_node(seed), 5)
        report = graph.report()
        assert report["laurent_ok"], name
        assert not report["truncated"], name
        # integer coefficients are structural (LaurentPolynomial admits no
        # other kind); spot-check the invariant anyway
        for node in graph.nodes:
            for var in node.cluster_vars:
                assert all(isinstance(c, int) for _, c in var.terms())
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 1 exceeded 60s: {elapsed:.1f}s"
    _pass("criterion 1: Laurent phenomenon to depth 5 (A2, A3, Markov, nine-ray)", started)


def test_criterion_2_a2_periodicity():
    """Alternating mutation of the rank-2 unimodular seed returns to the
    initial cluster after 5 distinct clusters, producing exactly the five
    hand-iterated variables."""
    started = time.time()
    expected = {
        LaurentPolynomial(2, {(1, 0): 1}),                        # A1
        LaurentPolynomial(2, {(0, 1): 1}),                        # A2
        LaurentPolynomial(2, {(-1, 0): 1, (-1, 1): 1}),           # (1+A2)/A1
        LaurentPolynomial(2, {(-1, -1): 1, (-1, 0): 1, (0, -1): 1}),  # (1+A1+A2)/(A1 A2)
        LaurentPolynomial(2, {(0, -1): 1, (1, -1): 1}),           # (1+A1)/A2
    }
    node = root_node(seed_from_epsilon(A2))
    initial_cluster = frozenset(v.terms() for v in node.cluster_vars)
    clusters = [initial_cluster]
    produced = set(node.cluster_vars)
    for t in range(10):
        node = step(node, t % 2)
        clusters.append(frozenset(v.terms() for v in node.cluster_vars))
        produced |= set(node.cluster_vars)
    assert produced == expected
    assert len(set(clusters)) == 5
    assert clusters[5] == initial_cluster
    elapsed = time.time() - started
    assert elapsed < 1, f"criterion 2 exceeded 1s: {elapsed:.1f}s"
    _pass("criterion 2: A2 periodicity with the five classical variables", started)


def test_criterion_3_mutation_involutions():
    """On 1000 random d-skew-symmetrizable 3x3 and 4x4 seeds and every
    mutation index: double matrix mutation is the identity, the definitional
    and rule-based exchange matrices of a mutated seed agree, and the
    tropical maps carry fan rays onto mutated fan rays."""
    started = time.time()
    rng = random.Random(2024)
    for trial in range(1000):
        n = 3 if trial % 2 == 0 else 4
        seed = random_symmetrizable_seed(rng, n)
        eps, d = seed.eps, seed.fixed.d
        for k in range(n):
            assert mutate_epsilon(mutate_epsilon(eps, d, k), d, k) == eps
            mutated = mutate_seed(seed, k)
            assert epsilon_from_basis(mutated) == mutate_epsilon(eps, d, k)
            assert fan_mutation_consistency(seed, k)
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 3 exceeded 30s: {elapsed:.1f}s"
    _pass("criterion 3: involution, coherence, tropical/fan consistency x1000", started)


def _minor_gcd_diagonal(mat):
    """Independent Smith-invariant oracle: gcds of k x k minors."""
    def minor_det(rows, cols):
        sub = [[mat[i, j] for j in cols] for i in rows]
        size = len(sub)
        if size == 1:
            return sub[0][0]
        total = 0
        for c in range(size):
            sign = -1 if c % 2 else 1
            rest = [row[:c] + row[c + 1:] for row in sub[1:]]
            total += sign * sub[0][c] * _det_list(rest)
        return total

    def _det_list(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for c in range(len(m)):
            sign = -1 if c % 2 else 1
            total += sign * m[0][c] * _det_list([row[:c] + row[c + 1:] for row in m[1:]])
        return total

    limit = min(mat.rows, mat.cols)
    prev = 1
    out = []
    for k in range(1, limit + 1):
        g = 0
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                g = gcd(g, abs(minor_det(rows, cols)))
        if g == 0:
            out.extend([0] * (limit - k + 1))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_criterion_4_picard_cokernel():
    """Picard invariant factors: Markov gives Z/2 + Z/2 + Z, the rank-2
    unimodular seed gives the trivial group; cross-checked against the
    minor-gcd oracle."""
    started = time.time()
    markov = seed_from_epsilon(MARKOV)
    p = markov.eps.transpose()
    oracle_diag = _minor_gcd_diagonal(p)
    assert oracle_diag == (2, 2, 0)
    assert picard_invariants(markov) == (2, 2, 0)
    a2 = seed_from_epsilon(A2)
    assert _minor_gcd_diagonal(a2.eps.transpose()) == (1, 1)
    assert picard_invariants(a2) == ()
    _pass("criterion 4: Picard cokernel Markov=(2,2,0), A2=()", started)


def test_criterion_5_symmetric_form_invariance():
    """The kernel Gram matrix of the nine-ray data is unchanged by each of
    the 9 single mutations, by 20 random depth-3 paths, and by switching to
    a different smooth fan completion."""
    started = time.time()
    data = Rank2Data(**NINE_RAY)
    base = symmetric_form(data)
    for k in range(9):
        assert invariance_check(base, (k,))
    rng = random.Random(55)
    for _ in range(20):
        path = tuple(rng.randrange(9) for _ in range(3))
        assert invariance_check(base, path)
    alt_fan = Fan2D(((1, 0), (1, 1), (0, 1), (-1, -1)))
    assert _gram_for_vectors(_surface_for(data.w, alt_fan), base.basis) == base.gram
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 5 exceeded 60s: {elapsed:.1f}s"
    _pass("criterion 5: kernel pairing invariant under 29 mutation paths "
          "and a second completion", started)


def test_criterion_6_concrete_form_values():
    """Cubic data: Gram [-2], negative definite, conjecture possible.
    Nine-ray data: <e0 - e1> squared -2, <sum e_i> squared 0, degenerate,
    conjecture impossible.  Values verified against the plane-blowup
    oracle (line class c H minus exceptional parts)."""
    started = time.time()
    cubic_form = symmetric_form(Rank2Data(**TRIANGLE))
    assert cubic_form.gram == Matrix([[-2]])
    assert classify_definiteness(cubic_form.gram) == "negative_definite"
    assert fg_failure_flag(cubic_form)["fg_conjecture_possible"] is True

    data = Rank2Data(**NINE_RAY)
    diff = (1, -1, 0, 0, 0, 0, 0, 0, 0)
    total = (1,) * 9
    gram = _gram_for_vectors(symmetric_form(data).surface, [diff, total])
    assert gram[0, 0] == -2
    assert gram[1, 1] == 0

    # oracle: classes c H - sum a_i E_i on the blown-up plane, H^2 = 1
    def oracle(a, b):
        ca = sum(a[:3])
        cb = sum(b[:3])
        assert ca == sum(a[3:6]) == sum(a[6:9])
        return ca * cb - sum(x * y for x, y in zip(a, b))

    assert oracle(diff, diff) == -2
    assert oracle(total, total) == 0
    # cubic case: one center per line, C = H, class H - E1 - E2 - E3
    assert 1 * 1 - sum(x * x for x in (1, 1, 1)) == -2

    nine_form = symmetric_form(data)
    assert classify_definiteness(nine_form.gram) == "negative_semidefinite_degenerate"
    assert fg_failure_flag(nine_form)["fg_conjecture_possible"] is False
    _pass("criterion 6: concrete Gram values and definiteness flags", started)


def test_criterion_7_non_fg_detector():
    """Nine-ray: all boundary self-intersections -2 and the principal
    coefficient ring is flagged non-Noetherian; cubic: flag false."""
    started = time.time()
    nine = non_fg_flag(symmetric_form(Rank2Data(**NINE_RAY)))
    assert nine["boundary_self_intersections"] == [-2, -2, -2]
    assert nine["all_minus_two"] is True
    assert nine["non_noetherian_principal"] is True
    cubic = non_fg_flag(symmetric_form(Rank2Data(**TRIANGLE)))
    assert cubic["all_minus_two"] is False
    assert cubic["non_noetherian_principal"] is False
    _pass("criterion 7: non-finite-generation detector", started)


def test_criterion_8_coprimality():
    """Principal doubles always satisfy the full-rank sufficient condition
    for total coprimality; the nine-ray seed itself is not coprime."""
    started = time.time()
    for mat in (A2, A3, MARKOV):
        ps = principal_double(seed_from_epsilon(mat))
        assert totally_coprime_sufficient(ps.seed)
    nine = build_seed(Rank2Data(**NINE_RAY))
    assert totally_coprime_sufficient(principal_double(nine).seed)
    assert is_coprime_seed(nine) is False
    _pass("criterion 8: coprimality flags", started)


@pytest.fixture
def cli_files(tmp_path):
    a2 = tmp_path / "a2.json"
    a2.write_text(json.dumps({"rank": 2, "skew": A2}))
    markov = tmp_path / "markov.json"
    markov.write_text(json.dumps({"rank": 3, "skew": MARKOV}))
    nine = tmp_path / "nine.json"
    nine.write_text(json.dumps({
        "w": [[1, 0]] * 3 + [[0, 1]] * 3 + [[-1, -1]] * 3,
    }))
    return {"a2": str(a2), "markov": str(markov), "nine": str(nine)}


def test_criterion_9_cli_determinism(cli_files):
    """Every CLI command produces byte-identical output across two runs and
    across 1 vs 4 worker threads."""
    started = time.time()

    def report(*args):
        """stdout of a run that must exit 0 with a JSON object on stdout."""
        result = subprocess.run(
            [sys.executable, "-m", "cluster_geom", *args],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, (args, result.stderr)
        assert isinstance(json.loads(result.stdout), dict), args
        return result.stdout

    commands = [
        ("mutate", cli_files["a2"], "--path", "0,1,0"),
        ("mutate", cli_files["markov"], "--path", "2,1"),
        ("explore", cli_files["a2"], "--depth", "10"),
        ("explore", cli_files["markov"], "--depth", "4"),
        ("laurent-check", cli_files["a2"], "--side", "A", "--q", "1,1", "--depth", "5"),
        ("laurent-check", cli_files["a2"], "--side", "X", "--q", "1,-1", "--depth", "5"),
        ("picard", cli_files["markov"]),
        ("rank2", cli_files["nine"], "--mutations", "0,4"),
    ]
    for args in commands:
        assert report(*args) == report(*args), args
    markov = ("explore", cli_files["markov"], "--depth", "4", "--workers")
    assert report(*markov, "1") == report(*markov, "4")
    _pass("criterion 9: CLI byte-determinism incl. 1 vs 4 workers", started)
