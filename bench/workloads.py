"""The four workloads of the latinplex benchmark.

A workload turns a seed into a fixed list of queries.  A query makes its
calls into latinplex through a tracer and returns what they returned; after
the timed pass, its check compares that against bench/expected.json and the
benchmark's own oracle (oracle.py) and returns a failure reason or None.

- census:  transversal counting (DFS at orders <= 9, MITM at 10-12) plus
           tau and mate packing at orders 6-8.
- witness: first-witness and branch-and-bound searches (near, quasi, k-plex,
           gamma_k, quasi packing) over the sweep corpus of orders 3-12.
- certify: every formula construction to order 64 through its JSON round
           trip and verify_certificate, plus validators and checkers at
           orders 64 and 256.  No search engine runs.
- cli:     one `python -m latinplex.cli` process at a time.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import latinplex as lp
from latinplex import constructions as cons

import corpus
import oracle
import speed

HERE = Path(__file__).resolve().parent
THREADS = 2  # threads= argument of enumerate_transversals: nproc of the reference machine
CLI_PROBE_REF_S = 0.05  # a bare interpreter's start and exit in the fast machine state


class SetupError(Exception):
    """The generated corpus does not match what the expected answers assume."""


@dataclass
class Query:
    qid: str
    run: Callable[[object], object]  # tracer -> result
    check: Callable[[object], str | None]  # result -> failure reason


@dataclass
class Item:
    label: str  # e.g. "cyclic(7)" or "isotope(cyclic(7))#1"
    base: str  # the base square whose expected answers apply
    square: lp.LatinSquare
    rows: list[list[int]]  # the benchmark's own copy, for its checks


class Expected:
    def __init__(self, path: Path = HERE / "expected.json"):
        data = json.loads(path.read_text(encoding="utf-8"))
        self.answers = data["answers"]
        self.used: set[str] = set()

    def __call__(self, key: str):
        entry = self.answers[key]
        self.used.update(entry["source"])
        return entry["value"]


_GENERATORS = {"cyclic": lp.gen_cyclic, "qstep": lp.gen_qstep, "twostep": lp.gen_two_step_pow2}


def base_item(label: str) -> Item:
    kind, params = corpus.parse_label(label)
    square = _GENERATORS[kind](*params)
    rows = corpus.base_rows(label)
    if square.rows() != rows:
        raise SetupError(f"{label}: generator output differs from its closed form")
    return Item(label, label, square, rows)


def random_perms(n: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.sample(range(1, n + 1), n)) for _ in range(3))


def isotope_item(base: Item, rng: random.Random, t: int, symbols_only: bool = False) -> Item:
    """A seeded isotope of `base`.  With symbols_only, rows and columns stay
    in place: the row-by-row searches then walk the same tree as on the base
    square, so the seed changes the input but not the work."""
    f, g, h = random_perms(len(base.rows), rng)
    if symbols_only:
        f = g = tuple(range(1, len(base.rows) + 1))
    square = lp.apply_isotopy(base.square, lp.Isotopy(f, g, h))
    rows = oracle.isotope_rows(base.rows, f, g, h)
    if square.rows() != rows:
        raise SetupError(f"apply_isotopy on {base.label} differs from the benchmark's image")
    return Item(f"isotope({base.label})#{t}", base.base, square, rows)


class Workload:
    """Query list plus whatever the run must release at the end."""

    name = ""

    def __init__(self, seed: int, expected: Expected):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.expected = expected
        self.queries: list[Query] = []
        self.warmup: list[Query] = []

    def speed_probe(self) -> speed.SpeedProbe:
        return speed.SpeedProbe()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# census


def count_query(item: Item, cap: int, want: int) -> Query:
    def run(tr):
        census = tr.call("plexes.enumerate_transversals", lp.enumerate_transversals,
                         item.square, cap=cap, threads=THREADS)
        tr.add("plexes.enumerate_transversals.transversals", census.count)
        return census

    def check(census):
        if census.count != want:
            return f"count {census.count}, expected {want}"
        shown = min(cap, want)
        if len(census.witnesses) != shown or census.truncated != (want > shown):
            return "witness list length or truncation flag is wrong"
        cols = [tuple(c for _, c in w.cells) for w in census.witnesses]
        if cols != sorted(set(cols)):
            return "witnesses are not distinct and in lexicographic order"
        for w in census.witnesses:
            bad = oracle.plex_issue(item.rows, w.cells, 1)
            if bad:
                return f"witness is not a transversal: {bad}"
        return None

    return Query(f"count:{item.label}:cap={cap}", run, check)


def tau_query(item: Item, want: int) -> Query:
    def run(tr):
        return tr.call("plexes.max_disjoint_transversals", lp.max_disjoint_transversals,
                       item.square)

    def check(result):
        tau, family = result
        if tau != want or len(family) != want:
            return f"tau {tau} with {len(family)} transversals, expected {want}"
        for w in family:
            bad = oracle.plex_issue(item.rows, w.cells, 1)
            if bad:
                return f"family member is not a transversal: {bad}"
        return oracle.disjoint_issue([w.cells for w in family])

    return Query(f"tau:{item.label}", run, check)


def mate_query(item: Item, want: bool) -> Query:
    def run(tr):
        return tr.call("plexes.find_orthogonal_mate", lp.find_orthogonal_mate, item.square)

    def check(mate):
        if (mate is not None) != want:
            return f"mate found={mate is not None}, expected {want}"
        return None if mate is None else oracle.orthogonal_issue(item.rows, mate.rows())

    return Query(f"mate:{item.label}", run, check)


class Census(Workload):
    name = "census"

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        bases = {label: base_item(label) for label in corpus.COUNT_BASES + corpus.TAU_BASES}
        counted = [bases[label] for label in corpus.COUNT_BASES]
        counted += [isotope_item(bases[f"cyclic({n})"], self.rng, t)
                    for n in corpus.COUNT_ISOTOPE_ORDERS for t in range(corpus.COUNT_ISOTOPES)]
        packed = [bases[label] for label in corpus.TAU_BASES]
        packed += [isotope_item(bases[label], self.rng, t)
                   for label, count in corpus.TAU_ISOTOPES.items() for t in range(count)]
        for item in counted:
            for cap in corpus.COUNT_CAPS:
                self.queries.append(count_query(item, cap, expected(f"count/{item.base}")))
        for item in packed:
            self.queries.append(tau_query(item, expected(f"tau/{item.base}")))
            self.queries.append(mate_query(item, expected(f"mate/{item.base}")))
        small = bases["cyclic(7)"]
        self.warmup = [count_query(small, 10, expected("count/cyclic(7)")),
                       tau_query(small, expected("tau/cyclic(7)")),
                       mate_query(small, expected("mate/cyclic(7)"))]


# ---------------------------------------------------------------------------
# witness

_FINDERS = {
    "near": ("plexes.find_near_transversal", lp.find_near_transversal, oracle.near_issue),
    "quasi": ("plexes.find_quasi_transversal", lp.find_quasi_transversal, oracle.quasi_issue),
}


def find_query(item: Item, what: str, want: bool) -> Query:
    """First near- or quasi-transversal; None must mean certified not found."""
    name, fn, issue = _FINDERS[what]

    def run(tr):
        found = tr.call(name, fn, item.square)
        tr.add(f"{name}.found", found is not None)
        return found

    def check(found):
        if (found is not None) != want:
            return f"found={found is not None}, expected {want}"
        return None if found is None else issue(item.rows, found.cells)

    return Query(f"{what}:{item.label}", run, check)


def kplex_query(item: Item, k: int, want: bool) -> Query:
    def run(tr):
        found = tr.call("plexes.find_kplex", lp.find_kplex, item.square, k)
        tr.add("plexes.find_kplex.found", found is not None)
        return found

    def check(found):
        if (found is not None) != want:
            return f"found={found is not None}, expected {want}"
        return None if found is None else oracle.plex_issue(item.rows, found.cells, k)

    return Query(f"kplex{k}:{item.label}", run, check)


def gamma_query(item: Item, k: int, want: int) -> Query:
    def run(tr):
        graph = tr.call("lsgraph.build_graph", lp.build_graph, item.square)
        return tr.call("lsgraph.gamma_k_exact", lp.gamma_k_exact, graph, k)

    def check(result):
        size, cells = result
        if size != want or len(cells) != want:
            return f"gamma_{k} {size} with {len(cells)} cells, expected {want}"
        return oracle.dominating_issue(item.rows, cells, k)

    return Query(f"gamma{k}:{item.label}", run, check)


def quasi_packing_query(item: Item, want: int) -> Query:
    name = "plexes.max_disjoint_quasi_transversals"

    def run(tr):
        result = tr.call(name, lp.max_disjoint_quasi_transversals, item.square)
        tr.add(f"{name}.found", result[0] > 0)
        return result

    def check(result):
        size, family = result
        if size != want or len(family) != want:
            return f"{size} quasi-transversals in a family of {len(family)}, expected {want}"
        for w in family:
            bad = oracle.quasi_issue(item.rows, w.cells)
            if bad:
                return f"family member: {bad}"
        return oracle.disjoint_issue([w.cells for w in family])

    return Query(f"mdq:{item.label}", run, check)


class Witness(Workload):
    name = "witness"

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        labels = set(corpus.sweep_bases()) | {lb for lb, _ in corpus.NOT_FOUND}
        bases = {label: base_item(label) for label in sorted(labels | set(corpus.GAMMA_BASES))}
        swept = [bases[label] for label in corpus.sweep_bases()]
        swept += [isotope_item(bases[f"cyclic({n})"], self.rng, t, symbols_only=True)
                  for n in corpus.SWEEP_ORDERS for t in range(corpus.SWEEP_ISOTOPES)]
        for item in swept:
            for what in ("near", "quasi"):
                self.queries.append(find_query(item, what, expected(f"{what}/{item.base}")))
            if item.label not in corpus.KPLEX_LEFT_OUT:
                self.queries.append(kplex_query(item, 2, expected(f"kplex2/{item.base}")))
        for label, k in corpus.NOT_FOUND:
            self.queries.append(kplex_query(bases[label], k, expected(f"kplex{k}/{label}")))
        dominated = [bases[label] for label in corpus.GAMMA_BASES]
        dominated += [isotope_item(bases[label], self.rng, 0, symbols_only=True)
                      for label in corpus.GAMMA_ISOTOPE_BASES]
        for item in dominated:
            for k in (1, 2, 3):
                self.queries.append(gamma_query(item, k, expected(f"gamma{k}/{item.base}")))
            self.queries.append(quasi_packing_query(item, expected(f"mdq/{item.base}")))
        small = bases["cyclic(4)"]
        self.warmup = [find_query(small, "near", True), find_query(small, "quasi", True),
                       kplex_query(small, 2, True),
                       gamma_query(small, 2, expected("gamma2/cyclic(4)")),
                       quasi_packing_query(small, expected("mdq/cyclic(4)"))]


# ---------------------------------------------------------------------------
# certify


def descriptor_rows(desc: dict) -> list[list[int]]:
    """Rows of a certificate's square, rebuilt by the benchmark's own formulas."""
    if "rows" in desc:
        return desc["rows"]
    p = desc["params"]
    if desc["generator"] == "cyclic":
        return oracle.cyclic_rows(p["n"])
    if desc["generator"] == "qstep":
        return oracle.qstep_rows(p["m"], p["q"])
    return oracle.xor_rows(p["k"])


def certificate_issue(obj: dict) -> str | None:
    """Re-check a certificate's JSON form from scratch: the witness sets
    must prove the claim, with the sizes the paper's results fix."""
    rows = descriptor_rows(obj["square"])
    n = len(rows)
    raw = obj["witness"]
    parts = [[tuple(c) for c in w["cells"]] for w in ([raw] if isinstance(raw, dict) else raw)]
    claim = obj["claim"]
    if claim == "twostep-decomp":
        if len(parts) != n:
            return f"{len(parts)} transversals, expected {n}"
        for p in parts:
            bad = oracle.plex_issue(rows, p, 1)
            if bad:
                return f"part is not a transversal: {bad}"
        return oracle.disjoint_issue(parts)
    if claim in ("3ds-q1", "3ds-qgen"):
        if len(parts) != 1:
            return "expected one witness set"
        return oracle.quasi_issue(rows, parts[0]) or oracle.dominating_issue(rows, parts[0], 3)
    if claim == "domatic-cyclic":
        if len(parts) != n - 1:
            return f"{len(parts)} parts, expected {n - 1}"
        if sum(len(p) for p in parts) != n * n:
            return "parts do not cover every cell"
        for p in parts:
            bad = oracle.dominating_issue(rows, p, 3)
            if bad:
                return f"part is not 3-dominating: {bad}"
        return oracle.disjoint_issue(parts)
    if claim in ("2plex-q1", "2plex-m2", "2plex-gen"):
        if len(parts) == 3:
            quasi, near, union = parts
            bad = (oracle.quasi_issue(rows, quasi) or oracle.near_issue(rows, near)
                   or oracle.disjoint_issue([quasi, near]))
            if bad:
                return bad
            if set(union) != set(quasi) | set(near):
                return "union witness is not S union S'"
        elif len(parts) != 1:
            return f"expected 1 or 3 witness sets, got {len(parts)}"
        return oracle.plex_issue(rows, parts[-1], 2)
    return f"unknown claim {claim!r}"


def _dump(cert) -> str:
    return json.dumps(cert.to_json_dict(), sort_keys=True)


def _load(text: str):
    return cons.WitnessCertificate.from_json_dict(json.loads(text))


def build_query(key: str, fn, args: tuple, want: int) -> Query:
    """Build, serialize, parse and re-verify one certificate."""

    def run(tr):
        cert = tr.call("constructions.build", fn, *args)
        tr.add("constructions.build.formula", cert.provenance == cons.PROVENANCE_FORMULA)
        text = tr.call("constructions.json", _dump, cert)
        tr.add("constructions.json.bytes", len(text))
        back = tr.call("constructions.json", _load, text)
        verdict = tr.call("constructions.verify_certificate", cons.verify_certificate, back)
        return cert, text, back, verdict

    def check(result):
        cert, text, back, (ok, issues) = result
        if not (ok and back.verdict) or issues:
            return f"certificate rejected: {issues[:1]}"
        obj = json.loads(text)
        if _dump(back) != text:
            return "JSON round trip changed the certificate"
        parts = obj["witness"] if isinstance(obj["witness"], list) else [obj["witness"]]
        size = len(parts) if cert.claim in ("twostep-decomp", "domatic-cyclic") \
            else len(parts[-1]["cells"])
        if size != want:
            return f"witness size {size}, expected {want}"
        return certificate_issue(obj)

    return Query(f"build:{key}", run, check)


def verify_query(key: str, text: str) -> Query:
    """verify_certificate on a (possibly tampered) certificate must agree
    with the benchmark's own re-check."""
    want = certificate_issue(json.loads(text)) is None

    def run(tr):
        cert = tr.call("constructions.json", _load, text)
        return tr.call("constructions.verify_certificate", cons.verify_certificate, cert)

    def check(result):
        ok, _ = result
        return None if ok == want else f"verify says {ok}, the benchmark's re-check says {want}"

    return Query(f"verify:{key}", run, check)


def tamper(text: str, rng: random.Random) -> str:
    """Move one witness cell to a cell outside its set."""
    obj = json.loads(text)
    raw = obj["witness"]
    parts = [raw] if isinstance(raw, dict) else raw
    part = parts[rng.randrange(len(parts))]
    n = len(descriptor_rows(obj["square"]))
    taken = {tuple(c) for c in part["cells"]}
    free = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) not in taken]
    part["cells"][rng.randrange(len(part["cells"]))] = rng.choice(free)
    return json.dumps(obj, sort_keys=True)


_CHECKERS = {
    "quasi": (lp.check_quasi_transversal, oracle.quasi_issue),
    "near": (lp.check_near_transversal, oracle.near_issue),
    "transversal": (lp.check_transversal, lambda rows, cells: oracle.plex_issue(rows, cells, 1)),
    "2plex": (lambda sq, cells: lp.check_kplex(sq, cells, 2),
              lambda rows, cells: oracle.plex_issue(rows, cells, 2)),
}


# certificate witness kinds -> _CHECKERS keys
_CHECKED_KINDS = {"quasi-transversal": "quasi", "near-transversal": "near",
                  "transversal": "transversal", "k-plex": "2plex"}


def checker_query(key: str, kind: str, square, rows, cells) -> Query:
    fn, issue = _CHECKERS[kind]
    want = issue(rows, cells) is None

    def run(tr):
        return tr.call("plexes.check", fn, square, cells)

    def check(result):
        ok, _ = result
        return None if ok == want else f"check says {ok}, the benchmark's counter says {want}"

    return Query(f"check:{key}:{kind}", run, check)


def dominating_query(key: str, square, rows, cells) -> Query:
    want = oracle.dominating_issue(rows, cells, 3) is None

    def run(tr):
        graph = tr.call("lsgraph.build_graph", lp.build_graph, square)
        return tr.call("lsgraph.is_k_dominating", lp.is_k_dominating, graph, cells, 3)

    def check(cert):
        if cert.verdict != want or cert.verdict == bool(cert.deficient):
            return f"verdict {cert.verdict}, the benchmark's counter says {want}"
        return None

    return Query(f"dominating:{key}", run, check)


def graph_query(item: Item) -> Query:
    """Materialized graph: every vertex must have degree 3(n-1)."""
    n = len(item.rows)

    def run(tr):
        return tr.call("lsgraph.build_graph", lp.build_graph, item.square)

    def check(graph):
        if graph.adj is None or len(graph.adj) != n * n:
            return "adjacency was not materialized"
        if any(bin(mask).count("1") != 3 * (n - 1) for mask in graph.adj):
            return "a vertex degree differs from 3(n-1)"
        return None

    return Query(f"graph:{item.label}", run, check)


def validate_query(key: str, rows) -> Query:
    def run(tr):
        return tr.call("core.LatinSquare", lp.LatinSquare, rows)

    def check(square):
        return None if square.rows() == rows else "stored grid differs from the input"

    return Query(f"validate:{key}", run, check)


def reject_query(key: str, rows, column: int) -> Query:
    """A grid whose first repeated column is `column` must be refused there."""

    def run(tr):
        try:
            tr.call("core.LatinSquare", lp.LatinSquare, rows)
        except lp.core.ColumnRepeatError as exc:
            return exc
        return None

    def check(exc):
        if exc is None or exc.column != column:
            return f"expected a repeat in column {column}, got {exc!r}"
        return None

    return Query(f"reject:{key}", run, check)


def load_query(key: str, text: str, rows) -> Query:
    def run(tr):
        return tr.call("core.load_square_text", lp.core.load_square_text, text)

    def check(square):
        return None if square.rows() == rows else "parsed grid differs from the input"

    return Query(f"load:{key}", run, check)


def gen_query(label: str) -> Query:
    kind, params = corpus.parse_label(label)

    def run(tr):
        return tr.call("core.gen", _GENERATORS[kind], *params)

    def check(square):
        return None if square.rows() == corpus.base_rows(label) else "differs from the formula"

    return Query(f"gen:{label}", run, check)


def ls_text(rows) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


class Certify(Workload):
    name = "certify"

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        builds = [(f"twostep-decomp/k={k}", cons.construct_twostep_decomposition, (k,))
                  for k in corpus.CERT_TWOSTEP_K]
        for n in corpus.CERT_EVEN_ORDERS:
            builds += [(f"3ds-q1/n={n}", cons.build_3ds_q1, (n,)),
                       (f"domatic-cyclic/n={n}", cons.build_domatic_partition_cyclic, (n,)),
                       (f"2plex-q1/n={n}", cons.build_2plex_q1, (n,))]
        for m, q in corpus.CERT_QSTEP:
            builds.append((f"3ds-qgen/m={m},q={q}", cons.build_3ds_qgen, (m, q)))
            if m >= 4:
                builds.append((f"2plex-gen/m={m},q={q}", cons.build_2plex_general, (m, q)))
        builds += [(f"2plex-m2/q={q}", cons.build_2plex_m2, (q,)) for q in corpus.CERT_M2_Q]
        self.queries = [build_query(key, fn, args, expected(key)) for key, fn, args in builds]

        made = {key: _dump(fn(*args)) for key, fn, args in builds
                if key in ("twostep-decomp/k=5", "3ds-q1/n=64", "domatic-cyclic/n=16",
                           "2plex-gen/m=4,q=5", "2plex-m2/q=13")}
        for key, text in made.items():
            self.queries.append(verify_query(key, text))
            self.queries.append(verify_query(f"{key}+tampered", tamper(text, self.rng)))
            obj = json.loads(text)
            rows = descriptor_rows(obj["square"])
            square = cons.square_from_descriptor(obj["square"])
            raw = obj["witness"]
            parts = [raw] if isinstance(raw, dict) else raw
            for idx, part in enumerate(parts[:3]):
                kind = _CHECKED_KINDS.get(part["kind"])
                if kind:
                    cells = [tuple(c) for c in part["cells"]]
                    self.queries.append(checker_query(f"{key}#{idx}", kind, square, rows, cells))
                    broken = json.loads(tamper(json.dumps({**obj, "witness": part}), self.rng))
                    self.queries.append(checker_query(
                        f"{key}#{idx}+tampered", kind, square, rows,
                        [tuple(c) for c in broken["witness"]["cells"]]))

        for n in corpus.VALIDATION_ORDERS:
            f, g, h = random_perms(n, self.rng)
            rows = oracle.isotope_rows(oracle.cyclic_rows(n), f, g, h)
            square = lp.LatinSquare(rows)
            self.queries += [
                validate_query(f"n={n}", rows),
                load_query(f"ls:n={n}", ls_text(rows), rows),
                load_query(f"json:n={n}", json.dumps({"order": n, "rows": rows}), rows),
            ]
            i, j1, j2 = self.rng.randrange(n), *sorted(self.rng.sample(range(n), 2))
            bad = [list(r) for r in rows]
            bad[i][j1], bad[i][j2] = bad[i][j2], bad[i][j1]
            self.queries.append(reject_query(f"n={n}", bad, j1 + 1))
            # the paper's size-(n+1) 3-dominating set of cyclic(n), carried
            # to the isotope; without one cell it cannot dominate
            cells = [(f[r - 1], g[c - 1]) for r, c in cons.build_3ds_q1(n).witness.cells]
            self.queries += [dominating_query(f"n={n}", square, rows, cells),
                             dominating_query(f"n={n}-1cell", square, rows, cells[1:])]
        for label in ("cyclic(64)", "cyclic(256)", "qstep(16,16)", "twostep(8)"):
            self.queries.append(gen_query(label))
        for label in ("cyclic(16)", "qstep(4,4)", "twostep(4)"):
            self.queries.append(graph_query(base_item(label)))
        self.warmup = [build_query("3ds-q1/n=4", cons.build_3ds_q1, (4,), expected("3ds-q1/n=4")),
                       gen_query("cyclic(8)"), graph_query(base_item("cyclic(4)"))]


# ---------------------------------------------------------------------------
# cli


@dataclass
class Process:
    code: int
    stdout: str
    stderr: str


class Cli(Workload):
    """Each query is one `python -m latinplex.cli` process on a file written
    during set-up; the closed loop starts the next only after it exits.

    A pass has 25 queries, an odd count that is not a multiple of ten, so
    that p50 and p90 fall inside the repeats of one query rather than
    between two."""

    name = "cli"

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        # children inherit the pin, so they run on the CPU whose speed the
        # probes between them measure
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        (HERE / "out").mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=HERE / "out"))
        self.env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        self.child_rss_kb = 0
        try:
            self._write_inputs()
        except BaseException:
            self.close()
            raise
        q = self.queries
        q += [self._gen(["gen", "cyclic", "7"], oracle.cyclic_rows(7), json_out=False),
              self._gen(["gen", "cyclic", "12", "--format", "json"], oracle.cyclic_rows(12)),
              self._gen(["gen", "qstep", "--m", "4", "--q", "9", "--format", "json"],
                        oracle.qstep_rows(4, 9)),
              self._gen(["gen", "twostep", "--k", "4"], oracle.xor_rows(4), json_out=False)]
        for name, base in (("sq9.ls", "cyclic(9)"), ("sq11.ls", "cyclic(11)"),
                           ("sq4.ls", "cyclic(4)")):
            q.append(self._count(name, expected(f"count/{base}")))
        q.append(self._transversals("sq7.json", expected("count/cyclic(7)")))
        q.append(self._witness(["search", "kplex", "sq8.json", "--k", "2"], "sq8.json",
                               expected("kplex2/cyclic(8)"),
                               lambda rows, cells: oracle.plex_issue(rows, cells, 2)))
        q.append(self._refused(["search", "kplex", "sq13.ls", "--k", "2"],
                               expected("refused/kplex/order=13")))
        q.append(self._witness(["search", "near", "sq10.ls"], "sq10.ls",
                               expected("near/cyclic(10)"), oracle.near_issue))
        for name, base in (("sq10.ls", "cyclic(10)"), ("sq11.ls", "cyclic(11)")):
            q.append(self._witness(["search", "quasi", name], name,
                                   expected(f"quasi/{base}"), oracle.quasi_issue))
        q.append(self._witness(["search", "near", "sq11.ls"], "sq11.ls",
                               expected("near/cyclic(11)"), oracle.near_issue))
        q.append(self._tau("ts3.json", expected("tau/twostep(3)")))
        q.append(self._mate("sq6.ls", expected("mate/cyclic(6)")))
        for argv, key in ((["--n", "10"], "3ds-q1/n=10"), (["--n", "10"], "domatic-cyclic/n=10"),
                          (["--m", "4", "--q", "5"], "3ds-qgen/m=4,q=5"),
                          (["--n", "12"], "2plex-q1/n=12"), (["--q", "5"], "2plex-m2/q=5"),
                          (["--m", "4", "--q", "3"], "2plex-gen/m=4,q=3"),
                          (["--k", "4"], "twostep-decomp/k=4")):
            q.append(self._construct(key.split("/")[0], argv, expected(key)))
        q.append(self._verify("good.json", True))
        q.append(self._verify("tampered.json", False))
        self.warmup = [self._gen(["gen", "cyclic", "3"], oracle.cyclic_rows(3), json_out=False)]

    def _write_inputs(self) -> None:
        def isotope(label):
            rows = corpus.base_rows(label)
            return oracle.isotope_rows(rows, *random_perms(len(rows), self.rng))

        self.inputs: dict[str, list[list[int]]] = {}
        for name, label in (("sq4.ls", "cyclic(4)"), ("sq6.ls", "cyclic(6)"),
                            ("sq7.json", "cyclic(7)"), ("sq8.json", "cyclic(8)"),
                            ("sq9.ls", "cyclic(9)"), ("sq10.ls", "cyclic(10)"),
                            ("sq11.ls", "cyclic(11)"), ("sq13.ls", "cyclic(13)"),
                            ("ts3.json", "twostep(3)")):
            rows = isotope(label)
            self.inputs[name] = rows
            text = (json.dumps({"order": len(rows), "rows": rows}) if name.endswith(".json")
                    else ls_text(rows))
            (self.dir / name).write_text(text, encoding="utf-8")
        good = _dump(cons.build_2plex_q1(12))
        (self.dir / "good.json").write_text(good, encoding="utf-8")
        bad = tamper(good, self.rng)
        while certificate_issue(json.loads(bad)) is None:
            bad = tamper(good, self.rng)
        (self.dir / "tampered.json").write_text(bad, encoding="utf-8")

    def _process(self, argv: list[str]) -> Process:
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "latinplex.cli", *argv],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.dir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return Process(proc.returncode, out_path.read_text(encoding="utf-8"),
                       err_path.read_text(encoding="utf-8"))

    def _query(self, argv: list[str], want_code: int, check_stdout) -> Query:
        """One CLI process; the exit code, empty stderr on success and the
        stdout check must all hold."""

        def run(tr):
            result = tr.call("cli.process", self._process, argv)
            tr.add("cli.stdout_bytes", len(result.stdout))
            return result

        def check(result):
            if result.code != want_code:
                return f"exit {result.code}, expected {want_code}: {result.stderr.strip()[:200]}"
            if result.code == 0 and result.stderr:
                return f"stderr on success: {result.stderr.strip()[:200]}"
            return check_stdout(result.stdout)

        return Query("cli:" + " ".join(argv), run, check)

    def _gen(self, argv, rows, json_out=True) -> Query:
        def check(stdout):
            got = json.loads(stdout)["rows"] if json_out else _parse_ls(stdout)
            return None if got == rows else "generated square differs from the formula"

        return self._query(argv, 0, check)

    def _count(self, name: str, want: int) -> Query:
        def check(stdout):
            got = int(stdout.rsplit(":", 1)[1])
            return None if got == want else f"count {got}, expected {want}"

        return self._query(["search", "transversal", name, "--count"], 0 if want else 3, check)

    def _transversals(self, name: str, want: int) -> Query:
        rows = self.inputs[name]

        def check(stdout):
            obj = json.loads(stdout)
            if obj["count"] != want or len(obj["witnesses"]) != min(10, want):
                return f"count {obj['count']} with {len(obj['witnesses'])} witnesses"
            for w in obj["witnesses"]:
                bad = oracle.plex_issue(rows, w["cells"], 1)
                if bad:
                    return bad
            return None

        return self._query(["search", "transversal", name, "--format", "json"], 0, check)

    def _witness(self, argv, name: str, want: bool, issue) -> Query:
        rows = self.inputs[name]

        def check(stdout):
            obj = json.loads(stdout)
            if obj["found"] != want:
                return f"found={obj['found']}, expected {want}"
            return issue(rows, [tuple(c) for c in obj["witness"]["cells"]]) if want else None

        return self._query([*argv, "--format", "json"], 0 if want else 3, check)

    def _refused(self, argv, want_code: int) -> Query:
        return self._query(argv, want_code, lambda stdout: "output on refusal" if stdout else None)

    def _tau(self, name: str, want: int) -> Query:
        rows = self.inputs[name]

        def check(stdout):
            obj = json.loads(stdout)
            family = [[tuple(c) for c in w["cells"]] for w in obj["witnesses"]]
            if obj["tau"] != want or len(family) != want:
                return f"tau {obj['tau']}, expected {want}"
            for cells in family:
                bad = oracle.plex_issue(rows, cells, 1)
                if bad:
                    return bad
            return oracle.disjoint_issue(family)

        return self._query(["search", "tau", name, "--format", "json"], 0, check)

    def _mate(self, name: str, want: bool) -> Query:
        rows = self.inputs[name]

        def check(stdout):
            obj = json.loads(stdout)
            if obj["found"] != want:
                return f"found={obj['found']}, expected {want}"
            return oracle.orthogonal_issue(rows, obj["witness"]["rows"]) if want else None

        return self._query(["search", "mate", name, "--format", "json"], 0 if want else 3, check)

    def _construct(self, claim: str, argv, want: int) -> Query:
        def check(stdout):
            obj = json.loads(stdout)
            parts = obj["witness"] if isinstance(obj["witness"], list) else [obj["witness"]]
            size = len(parts) if claim in ("twostep-decomp", "domatic-cyclic") \
                else len(parts[-1]["cells"])
            return f"witness size {size}, expected {want}" if size != want \
                else certificate_issue(obj)

        return self._query(["construct", claim, *argv], 0, check)

    def _verify(self, name: str, accepted: bool) -> Query:
        def check(stdout):
            got = json.loads(stdout)["accepted"]
            return None if got == accepted else f"accepted={got}, expected {accepted}"

        return self._query(["verify", name, "--format", "json"], 0 if accepted else 1, check)

    def _python(self, code: str = "pass") -> float:
        """Wall time of one `python -c code` process."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    def process_baseline(self, repeats: int) -> tuple[float, float]:
        """Median wall time of a bare interpreter and of `import latinplex`."""
        interp = median(self._python() for _ in range(repeats))
        imported = median(self._python("import latinplex") for _ in range(repeats))
        return interp, imported - interp

    def speed_probe(self) -> speed.SpeedProbe:
        """A CLI process is mostly interpreter start, which drifts apart from
        the speed of Python code, so the probe is a bare interpreter."""
        return speed.SpeedProbe(self._python, CLI_PROBE_REF_S, every=0.3, timer=False)

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _parse_ls(text: str) -> list[list[int]]:
    lines = text.split("\n")
    return [[int(x) for x in line.split()] for line in lines[1:int(lines[0]) + 1]]


WORKLOADS = {"census": Census, "witness": Witness, "certify": Certify, "cli": Cli}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed, Expected())
