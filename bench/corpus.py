"""Which squares and parameters each workload asks about.

Base squares are named as latinplex's generators are: cyclic(n) is
gen_cyclic(n), qstep(m,q) is gen_qstep(m, q) (the table of Z_m x Z_q) and
twostep(k) is gen_two_step_pow2(k) (the table of Z_2^k).  Seeded isotopes
of the cyclic squares are added by the workloads; their expected answers
are those of their base, by isotopy invariance.
"""

from __future__ import annotations

import oracle

# census: transversal counts at orders 7-12, tau and mates at orders 6-8
COUNT_BASES = tuple(f"cyclic({n})" for n in range(7, 13)) + (
    "qstep(2,4)", "qstep(4,2)", "twostep(3)", "qstep(3,3)",
    "qstep(2,5)", "qstep(5,2)", "qstep(3,4)", "qstep(4,3)",
)
COUNT_ISOTOPE_ORDERS = tuple(range(7, 13))
COUNT_ISOTOPES = 2
COUNT_CAPS = (0, 10)
TAU_BASES = ("cyclic(6)", "cyclic(7)", "cyclic(8)", "qstep(2,3)", "qstep(3,2)",
             "qstep(2,4)", "qstep(4,2)", "twostep(3)")
# isotopes per base; the order-8 packings (about 13 ms, one thread) are
# many enough that the run's p50 falls among them, not among the
# threads=2 counts of orders 7-9, whose latency varies up to 4x run to run
TAU_ISOTOPES = {"cyclic(6)": 1, "cyclic(7)": 1, "qstep(2,4)": 3, "qstep(4,2)": 3, "twostep(3)": 3}

# witness: first-witness searches over the sweep corpus of orders 3-12
SWEEP_ORDERS = tuple(range(3, 13))
# the witness isotopes permute symbols only: with rows and columns permuted
# too, one quasi-transversal search on an order-12 isotope took from 0.4 to
# 515 ms across 12 seeds, and the run's p50 and p90 followed the seed
SWEEP_ISOTOPES = 2
# find_kplex(qstep(2,6), 2) takes 8-10 s, 70% of a pass with it, which
# leaves one pass per run and figures that follow the machine's drift
KPLEX_LEFT_OUT = ("qstep(2,6)",)
NOT_FOUND = (("cyclic(4)", 3), ("cyclic(6)", 3), ("qstep(2,3)", 3),
             ("cyclic(8)", 1), ("cyclic(10)", 1))
GAMMA_BASES = ("cyclic(4)", "qstep(2,2)", "cyclic(5)", "cyclic(6)")
GAMMA_ISOTOPE_BASES = ("cyclic(4)", "cyclic(5)")

# certify: every formula construction, orders up to 64
CERT_EVEN_ORDERS = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)
CERT_QSTEP = tuple((m, q) for m in (2, 4, 6, 8) for q in (3, 5, 7, 9) if m * q <= 64)
CERT_M2_Q = (3, 5, 7, 9, 11, 13, 21, 31)
CERT_TWOSTEP_K = (2, 3, 4, 5, 6)
VALIDATION_ORDERS = (64, 256)


def sweep_bases() -> list[str]:
    out = []
    for n in SWEEP_ORDERS:
        out.append(f"cyclic({n})")
        out += [f"qstep({m},{n // m})" for m in range(2, n) if n % m == 0 and n // m >= 2]
    return out


def parse_label(label: str) -> tuple[str, tuple[int, ...]]:
    kind, args = label.rstrip(")").split("(")
    return kind, tuple(int(x) for x in args.split(","))


def base_rows(label: str) -> list[list[int]]:
    """The base square, from the benchmark's own closed-form formulas."""
    kind, params = parse_label(label)
    if kind == "cyclic":
        return oracle.cyclic_rows(*params)
    if kind == "qstep":
        return oracle.qstep_rows(*params)
    return oracle.xor_rows(*params)
