"""The golden stdout cases: byte-exact stdout of rank2, mutate and picard
and of the Laurent workloads, pinned in golden/<name>.json so that refactors of the pipeline
or of the polynomial kernels show.

CASES maps each name to (seed document, argv), where argv is the command
and its options; the seed file goes right after the command.  Every case
exits 0 unless EXIT_CODES names another code for it.
tests/test_cli.py runs every case in-process.  Run as a script with a
command prefix, this module runs every case through that command and
compares its exit code, and its stdout byte for byte, with the golden file;
its stderr must be empty:

    PYTHONPATH=src python tests/golden_cases.py python -m cluster_geom
    python tests/golden_cases.py cluster-geom

It prints one line per case and exits 1 if any case differs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
MARKOV = {"rank": 3, "skew": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}
# the oriented 4-cycle with double arrows
CYCLE4 = {"rank": 4, "skew": [[0, 2, 0, -2], [-2, 0, 2, 0], [0, -2, 0, 2], [2, 0, -2, 0]]}
A4 = {"rank": 4, "skew": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]}
D4 = {"rank": 4, "skew": [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]}
# skew-symmetrizable with d = (1, 3): type G2, 8 clusters
G2 = {"rank": 2, "skew": [[0, 1], [-1, 0]], "d": [1, 3]}
# type B3 (d = (1, 1, 2)), 20 clusters; and A3 with one frozen index, 14
B3 = {"rank": 3, "skew": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "d": [1, 1, 2]}
A3_FROZEN = {**A4, "frozen": [3]}
# index 2 is isolated (v_2 = 0): the A side twists by the zero vector there,
# which takes monomial_twist's sparse route; on the X side v = e_2 and the
# twist exponent is zero
ISOLATED = {"rank": 3, "skew": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}
WIDE_GAP = {"rank": 3, "skew": [[0, 3, 1], [-3, 0, 0], [-1, 0, 0]], "d": [6, 6, 1]}
# plane data: three rays each through (1, 0), (0, 1) and (-1, -1)
NINE_RAY = {"w": [[1, 0]] * 3 + [[0, 1]] * 3 + [[-1, -1]] * 3}
TRIANGLE = {"w": [[1, 0], [0, 1], [-1, -1]]}
WEIGHTED_TRIANGLE = {**TRIANGLE, "nu": [3, 3, 3]}
# eleven rays: the plane data g11 of the perfbench geometry workload, seed 2
G11 = {"w": [[1, -1], [-1, 0], [1, 0], [-1, -1], [1, 1], [1, 0], [0, -1], [0, -1],
             [1, -1], [-1, 1], [1, 1]]}
# rank 4 with d = (1, 2, 1, 1), frozen indices 2 and 3, a unimodular basis
# that is not the identity, and the rational entry 1/2 in the frozen block
RANK4_FROZEN = {
    "rank": 4,
    "skew": [[0, 1, 1, 0], [-1, 0, 1, 2], [-1, -1, 0, "1/2"], [0, -2, "-1/2", 0]],
    "d": [1, 2, 1, 1],
    "frozen": [2, 3],
    "basis": [[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
}

CASES = {
    "rank2_nine_ray_0_4_8": (NINE_RAY, ["rank2", "--mutations", "0,4,8"]),
    # an empty --mutations is the empty path: it is checked, and listed
    "rank2_nine_ray_empty_path": (NINE_RAY, ["rank2", "--mutations="]),
    "rank2_cubic": (TRIANGLE, ["rank2"]),
    "rank2_weighted_triangle": (WEIGHTED_TRIANGLE, ["rank2"]),
    "rank2_weighted_triangle_0": (WEIGHTED_TRIANGLE, ["rank2", "--mutations", "0"]),
    # a 44-ray fan: the cone from (1, 0) to (1, 40) resolves into a
    # continued-fraction chain of 39 rays
    "rank2_w40_2": ({"w": [[1, 0], [0, 1], [1, 40]]}, ["rank2", "--mutations", "2"]),
    # K_basis is the Hermite form of columns of the Smith transform R, and
    # it keeps -1 and -2 above the pivot 2 of its eighth row: that form is
    # not canonical, so a change to R shows here
    "rank2_g11_6_10_3": (G11, ["rank2", "--mutations", "6,10,3"]),
    "explore_markov_d6": (MARKOV, ["explore", "--depth", "6"]),
    "explore_cycle4_d3": (CYCLE4, ["explore", "--depth", "3"]),
    # unlabeled keys on a seed with eight signed symmetries (117 nodes)
    "explore_cycle4_d4_unlabeled": (
        CYCLE4, ["explore", "--depth", "4", "--dedup", "unlabeled"]
    ),
    "explore_a4_d5_unlabeled": (A4, ["explore", "--depth", "5", "--dedup", "unlabeled"]),
    "laurent_check_markov_A100_d5": (
        MARKOV, ["laurent-check", "--side", "A", "--q", "1,0,0", "--depth", "5"]
    ),
    "explore_g2_d10": (G2, ["explore", "--depth", "10"]),
    # a quotient passes the term cap of 60 before depth 8: the graph found
    # until then, 118 nodes, marked truncated
    "explore_markov_d8_max_terms_60": (
        MARKOV, ["explore", "--depth", "8", "--max-terms", "60"]
    ),
    "laurent_check_d4_X_d5": (
        D4, ["laurent-check", "--side", "X", "--q=0,0,-1,-1", "--depth", "5"]
    ),
    "explore_b3_d8_unlabeled": (B3, ["explore", "--depth", "8", "--dedup", "unlabeled"]),
    "explore_a3_frozen_d8_unlabeled": (
        A3_FROZEN, ["explore", "--depth", "8", "--dedup", "unlabeled"]
    ),
    "laurent_check_b3_A111_d8": (
        B3, ["laurent-check", "--side", "A", "--q=1,1,1", "--depth", "8"]
    ),
    "laurent_check_a3_frozen_A1111_d7": (
        A3_FROZEN, ["laurent-check", "--side", "A", "--q=1,1,1,1", "--depth", "7"]
    ),
    # 4372 paths over the 42 clusters of A4: the walk's twist memo answers
    # 2350 of its steps
    "laurent_check_a4_A1111_d7": (
        A4, ["laurent-check", "--side", "A", "--q=1,1,1,1", "--depth", "7"]
    ),
    # the X side with d != 1 (189 paths)
    "laurent_check_b3_X_d6": (
        B3, ["laurent-check", "--side", "X", "--q=0,0,-1", "--depth", "6"]
    ),
    "laurent_check_isolated_A103_d5": (
        ISOLATED, ["laurent-check", "--side", "A", "--q=1,0,3", "--depth", "5"]
    ),
    "laurent_check_isolated_X_d5": (
        ISOLATED, ["laurent-check", "--side", "X", "--q=0,-1,-3", "--depth", "5"]
    ),
    # labeled graphs whose exchange relations repeat under other labels
    # (384 and 427 nodes)
    "explore_d4_d6": (D4, ["explore", "--depth", "6"]),
    "explore_nine_ray_d3": (NINE_RAY, ["explore", "--depth", "3"]),
    "mutate_nine_ray_0_4_8": (NINE_RAY, ["mutate", "--path", "0,4,8"]),
    "mutate_rank4_frozen_0_1_0": (RANK4_FROZEN, ["mutate", "--path", "0,1,0"]),
    "picard_markov": (MARKOV, ["picard"]),
    "picard_weighted_triangle": (WEIGHTED_TRIANGLE, ["picard"]),
    # on path [1, 2] the twist along v = (-6, 0, 0) meets the six terms of
    # (1 + z^(-18, 0, 0))^5 z^q, three steps apart on one line: a line with
    # wide gaps, which takes monomial_twist's sparse route though v != 0
    "laurent_check_wide_gap_A050_d2": (
        WIDE_GAP, ["laurent-check", "--side", "A", "--q", "0,5,0", "--depth", "2"]
    ),
}
EXIT_CODES = {"explore_markov_d8_max_terms_60": 3}


def main(prefix):
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (doc, argv) in CASES.items():
            seed = Path(tmp) / f"{name}.json"
            seed.write_text(json.dumps(doc))
            run = subprocess.run([*prefix, argv[0], str(seed), *argv[1:]], capture_output=True)
            golden = (GOLDEN / f"{name}.json").read_bytes()
            # a warning or traceback beside the right stdout is a mismatch
            want = (EXIT_CODES.get(name, 0), golden, b"")
            same = (run.returncode, run.stdout, run.stderr) == want
            print(f"{'ok' if same else 'MISMATCH'} {name}")
            if not same:
                failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: golden_cases.py COMMAND [ARG ...]")
    sys.exit(main(sys.argv[1:]))
