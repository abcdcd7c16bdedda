"""Regenerate bench/expected.json, the benchmark's table of expected answers.

Run from the repository root:

    python3 bench/make_expected.py

Each answer names its sources.  Published constants and theorems are
entered as rules below; two brute-force oracles fill in what no theorem
gives: the naive permutation-diagonal count of tests/oracles.py (orders up
to 9) and a subset scan for the k-domination number (orders up to 6).  No
latinplex engine is consulted.  The oracles also cross-check the rules
where both apply, and the script stops if they disagree.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))

import corpus  # noqa: E402
import oracle  # noqa: E402

SOURCES = {
    "A006717": "OEIS A006717, transversals of the cyclic Latin square of odd order "
    "(3, 15, 133, 2025, 37851, ...); McKay, McLeod & Wanless, Des. Codes Cryptogr. 40 (2006)",
    "hall": "Hall (1952): an abelian group has a complete mapping, so its table a transversal, "
    "iff its Sylow 2-subgroup is trivial or noncyclic",
    "parity": "Euler's parity argument: the table of Z_n, n even, has no k-plex for odd k "
    "(Wanless, 'Transversals in Latin squares: a survey', 2011)",
    "complete-mapping": "a group table with one transversal has n disjoint ones (its "
    "translates), so tau = n, an orthogonal mate, 2-plexes, near- and quasi-transversals exist",
    "tarry": "no Latin square of order 6 has an orthogonal mate (Tarry 1900)",
    "cyclic-iso": "Z_m x Z_q with gcd(m,q)=1 is cyclic; tables of isomorphic groups are "
    "isotopic, and every answer in this table is an isotopy invariant",
    "paper-tau": "paper: the doubling-family square of order 2^k splits into 2^k disjoint "
    "transversals (tau = 2^k)",
    "paper-gamma3": "paper: a size-n 3-dominating set is exactly a transversal, and the even "
    "cyclic and q-step families have gamma_3 = n+1 via an explicit quasi-transversal",
    "paper-domatic": "paper: the cyclic square of even order n has d_3 = n-1 = floor(n^2/(n+1))",
    "paper-quasi-packing": "paper: at most and, on this corpus, exactly floor(n^2/(n+1)) "
    "pairwise-disjoint quasi-transversals",
    "paper-2plex": "paper (Rodney's constructions): a quasi-transversal plus a disjoint "
    "near-transversal form a 2-plex of the even cyclic and q-step squares",
    "perm-oracle": "naive permutation-diagonal count, tests/oracles.py "
    "permutation_diagonal_count (orders <= 9)",
    "subset-oracle": "subset scan for the least k-dominating set in bench/make_expected.py "
    "(orders <= 6)",
    "ceiling": "documented engine ceiling: k-plex search is exhaustive only up to order 12, "
    "and the CLI exits 2 when it refuses",
}


def group_of(label: str) -> tuple[bool, list[str]]:
    """(has a complete mapping, sources) for the group whose table `label` is."""
    kind, params = corpus.parse_label(label)
    if kind == "twostep":
        return True, ["hall"]
    if kind == "cyclic":
        return params[0] % 2 == 1, ["hall"]
    m, q = params
    if math.gcd(m, q) == 1:
        return (m * q) % 2 == 1, ["hall", "cyclic-iso"]
    # the Sylow 2-subgroup of Z_m x Z_q is trivial or noncyclic iff m, q have equal parity
    return m % 2 == q % 2, ["hall"]


A006717 = {1: 1, 3: 3, 5: 15, 7: 133, 9: 2025, 11: 37851, 13: 1030367, 15: 36362925}


def perm_count(rows) -> int:
    from oracles import permutation_diagonal_count

    return permutation_diagonal_count(SimpleNamespace(order=len(rows), rows=lambda: rows))


def transversal_count(label: str) -> tuple[int, list[str]]:
    rows = corpus.base_rows(label)
    has_cm, src = group_of(label)
    if not has_cm:
        return 0, src + ["parity"]
    if label.startswith("cyclic("):
        return A006717[len(rows)], ["A006717"]
    return perm_count(rows), ["perm-oracle"]


def gamma_by_subset_scan(rows, k: int) -> int:
    n = len(rows)
    cells = [(i, j) for i in range(n) for j in range(n)]
    nb = []
    for i, j in cells:
        mask = 0
        for v, (a, b) in enumerate(cells):
            if (a, b) != (i, j) and (a == i or b == j or rows[a][b] == rows[i][j]):
                mask |= 1 << v
        nb.append(mask)
    total = n * n
    for size in range(total + 1):
        for combo in itertools.combinations(range(total), size):
            s = 0
            for v in combo:
                s |= 1 << v
            if all((s >> v) & 1 or bin(nb[v] & s).count("1") >= k for v in range(total)):
                return size
    raise AssertionError("the full cell set dominates")


def build() -> dict:
    answers: dict[str, dict] = {}

    def put(key, value, sources):
        answers[key] = {"value": value, "source": sorted(set(sources))}

    for n in (7, 9):  # the published constant and the oracle must agree
        assert perm_count(oracle.cyclic_rows(n)) == A006717[n], n

    # cyclic(4) and (9) are the CLI workload's inputs
    for label in sorted({"cyclic(4)", "cyclic(9)", *corpus.COUNT_BASES}):
        put(f"count/{label}", *transversal_count(label))

    for label in corpus.TAU_BASES:
        n = len(corpus.base_rows(label))
        has_cm, src = group_of(label)
        tau_src = src + (["complete-mapping"] if has_cm else ["parity"])
        if label.startswith("twostep"):
            tau_src.append("paper-tau")
        put(f"tau/{label}", n if has_cm else 0, tau_src)
        put(f"mate/{label}", has_cm, tau_src + (["tarry"] if n == 6 else []))

    for label in corpus.sweep_bases():
        has_cm, src = group_of(label)
        src = src + (["complete-mapping"] if has_cm else ["paper-gamma3", "paper-2plex"])
        for question in ("near", "quasi", "kplex2"):
            put(f"{question}/{label}", True, src)
    for label, k in corpus.NOT_FOUND:
        has_cm, src = group_of(label)
        assert not has_cm
        put(f"kplex{k}/{label}", False, src + ["parity"])

    for label in corpus.GAMMA_BASES:
        rows = corpus.base_rows(label)
        n = len(rows)
        has_cm, src = group_of(label)
        for k in (1, 2):
            put(f"gamma{k}/{label}", gamma_by_subset_scan(rows, k), ["subset-oracle"])
        gamma3 = n if has_cm else n + 1
        if n <= 5:
            assert gamma_by_subset_scan(rows, 3) == gamma3, label
        put(f"gamma3/{label}", gamma3, src + ["paper-gamma3"])
        put(f"mdq/{label}", n * n // (n + 1), ["paper-quasi-packing"])

    for k in corpus.CERT_TWOSTEP_K:
        put(f"twostep-decomp/k={k}", 2 ** k, ["paper-tau"])
    for n in corpus.CERT_EVEN_ORDERS:
        put(f"3ds-q1/n={n}", n + 1, ["paper-gamma3"])
        put(f"domatic-cyclic/n={n}", n - 1, ["paper-domatic"])
        put(f"2plex-q1/n={n}", 2 * n, ["paper-2plex"])
    for m, q in corpus.CERT_QSTEP:
        put(f"3ds-qgen/m={m},q={q}", m * q + 1, ["paper-gamma3"])
        if m >= 4:
            put(f"2plex-gen/m={m},q={q}", 2 * m * q, ["paper-2plex"])
    for q in corpus.CERT_M2_Q:
        put(f"2plex-m2/q={q}", 4 * q, ["paper-2plex"])
    put("refused/kplex/order=13", 2, ["ceiling"])
    return {"sources": SOURCES, "answers": dict(sorted(answers.items()))}


if __name__ == "__main__":
    out = HERE / "expected.json"
    out.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
