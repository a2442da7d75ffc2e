"""Job pools, operations, output checks and traced decompositions.

Every operation calls the package's public functions from outside, exactly
as a user would.  The traced variants rebuild the same result from the
layer functions (enumerate_patterns -> decorate -> pattern_coefficient ->
pattern_wt -> accumulation -> JSON) so that each call into a layer can be
timed from here; a traced result that differs from the untraced public
operation counts as a failed op.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import crystalmds  # noqa: E402
from crystalmds import (CartanSpec, CoeffElement, build_root_system,  # noqa: E402
                        character_dimension, decorate, enumerate_patterns,
                        pattern_coefficient, pattern_wt, weyl_character,
                        weyl_dimension)
from crystalmds.series import (character_via_patterns, p_part,  # noqa: E402
                               polynomial_json_obj, specialize_poly_n1,
                               tokuyama_quotient)
from crystalmds.weightpoly import WeightPolynomial, poly_from_int_terms  # noqa: E402
from speed import probed  # noqa: E402

if not Path(crystalmds.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"crystalmds was imported from {crystalmds.__file__}, "
                      f"not from {SRC}")

REFERENCE_FILE = HERE / "reference.json"
ONE_JSON = CoeffElement.one().to_json_obj()
pc = time.perf_counter


class Spans:
    """Per-layer busy seconds and counts, summed over the traced jobs.

    ``seconds`` holds leaf spans, which never overlap, so their sum is the
    traced share of an op; ``parents`` holds spans that enclose leaf spans.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.parents: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def busy(self) -> float:
        return sum(self.seconds.values())


@dataclass(frozen=True)
class Case:
    family: str
    rank: int
    lam: tuple[int, ...]
    n: int = 1

    @property
    def id(self) -> str:
        lam = ",".join(map(str, self.lam))
        return f"{self.family}{self.rank} ({lam}) n={self.n}"

    @property
    def rs(self):
        return build_root_system(CartanSpec(self.family, self.rank))

    @property
    def dim(self) -> int:
        return weyl_dimension(self.rs, self.lam)


def _rho(r: int) -> tuple[int, ...]:
    return (1,) * r


# D5 rho (about 560 s per p_part) is left out of every pool: one job would
# outlast a whole run.
FIXED_CASES = (Case("A", 3, (2, 2, 2), 3), Case("C", 3, (2, 1, 1), 3),
               Case("B", 3, _rho(3), 2), Case("D", 4, _rho(4), 2))

# One pass of each pool.  A case listed more than once runs that often per
# pass: with equal weights the median job of a four-case pool falls between
# two cases' times and reads as the mean of two extreme samples.
POOLS: dict[str, tuple[Case, ...]] = {
    "ppart": (Case("A", 3, (2, 2, 2), 3), Case("A", 3, (3, 2, 3), 2),
              Case("A", 4, _rho(4), 2), Case("B", 3, _rho(3), 2),
              Case("B", 3, (2, 1, 1), 3), Case("C", 3, (2, 1, 1), 3),
              Case("C", 3, _rho(3), 4), Case("D", 4, _rho(4), 2)),
    "character": (Case("A", 4, (2, 1, 1, 2)), Case("A", 4, (2, 2, 2, 2)),
                  Case("B", 3, (2, 2, 2)), Case("C", 3, (2, 2, 2)),
                  Case("D", 4, _rho(4)), Case("D", 4, (2, 1, 1, 1))),
    "tokuyama": (Case("A", 3, (2, 2, 2)), Case("A", 3, (3, 2, 3)),
                 *[Case("A", 3, (3, 3, 3))] * 3, Case("A", 4, (2, 1, 1, 2))),
    "cli": FIXED_CASES + (FIXED_CASES[1],) * 2,
}

# Passes per run at --seconds 20, scaled for other lengths, and at least
# MIN_JOBS jobs so that the tail (ten samples beyond it) lies above the
# median.  The job list depends on the seed and --seconds only, so parent
# and change time the same jobs.  These counts put the median and the tail
# inside one case's cluster of job times at the seed commit; one pass takes
# 3.2/6.0/6.3/4.6 s of op time there (2-core Xeon).
PASSES_AT_20S = {"ppart": 7, "character": 4, "tokuyama": 4, "cli": 4}
MIN_JOBS = 22


def job_list(workload: str, seed: int, seconds: float) -> list[Case]:
    """Seeded draw from the pool: whole passes, each in a shuffled order."""
    pool = POOLS[workload]
    rounds = max(-(-MIN_JOBS // len(pool)),
                 round(PASSES_AT_20S[workload] * seconds / 20))
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Case] = []
    for _ in range(rounds):
        order = list(pool)
        rng.shuffle(order)
        jobs.extend(order)
    return jobs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def term_digests(terms: list[dict]) -> list[list]:
    """(weight, short digest of the term's JSON) per term, in output order."""
    return [[t["wt"], sha256(json.dumps(t))[:12]] for t in terms]


def first_diff(got: list[dict], ref: list[list]) -> str:
    """Witness text: the first term whose weight or coefficient differs."""
    mine = term_digests(got)
    for k, (a, b) in enumerate(zip(mine, ref)):
        if a != b:
            return f"first differing weight {a[0]} (term {k}, reference has {b[0]})"
    if len(mine) != len(ref):
        k = min(len(mine), len(ref))
        extra = mine[k][0] if len(mine) > k else ref[k][0]
        return f"term count {len(mine)} vs reference {len(ref)}, first extra weight {extra}"
    return "terms equal but bytes differ"


def poly_diff(a: WeightPolynomial, b: WeightPolynomial) -> str:
    for w in sorted(set(a.terms) | set(b.terms), key=a.order_key, reverse=True):
        if a.coeff(w) != b.coeff(w):
            return f"first differing weight {list(w)}: {a.coeff(w)!r} vs {b.coeff(w)!r}"
    return "polynomials equal"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def quotient_terms(quot: WeightPolynomial) -> list[dict]:
    return [{"wt": list(w), "coeff": quot.terms[w].to_json_obj()}
            for w in quot.sorted_weights()]


# ---------------------------------------------------------------------------
# Untraced operations: public calls only.  Each returns its output.
# ---------------------------------------------------------------------------

def ppart_op(case: Case) -> str:
    poly = p_part(case.rs, case.lam, case.n)
    return json.dumps(polynomial_json_obj(poly, case.family, case.rank,
                                          case.n, case.lam))


def character_op(case: Case):
    via = character_via_patterns(case.rs, case.lam)
    chi = weyl_character(case.rs, case.lam)
    return via, chi, via == chi


def tokuyama_op(case: Case):
    return tokuyama_quotient(case.rs, case.lam)


# The console script's body, between two speed probes.
CLI_CODE = probed("from crystalmds.cli import main\ncode = main()")


def cli_argv(case: Case) -> list[str]:
    """The CLI entry point, run from the checkout's sources."""
    return [sys.executable, "-c", CLI_CODE, "compute", "--family", case.family,
            "--rank", str(case.rank), "--n", str(case.n),
            "--lambda", ",".join(map(str, case.lam)), "--json"]


def child_env() -> dict[str, str]:
    """The sources first, then this directory (for the speed probe)."""
    env = {k: v for k, v in os.environ.items() if k != "CRYSTALMDS_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a witness.
# ---------------------------------------------------------------------------

class Checker:
    """Holds the recorded references and per-case values the checks reuse."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._support: dict[Case, set] = {}

    def support(self, case: Case) -> set:
        if case not in self._support:
            self._support[case] = set(weyl_character(case.rs, case.lam).terms)
        return self._support[case]

    def ppart(self, case: Case, text: str) -> str | None:
        ref = self.reference["ppart"][case.id]
        obj = json.loads(text)
        if sha256(text) != ref["sha256"]:
            return f"{case.id}: JSON hash differs from reference; " + \
                first_diff(obj["terms"], ref["terms"])
        coeffs = {tuple(t["wt"]): t["coeff"] for t in obj["terms"]}
        if coeffs.get(case.lam) != ONE_JSON:
            return f"{case.id}: coefficient at x^lambda is {coeffs.get(case.lam)}, not 1"
        outside = sorted(set(coeffs) - self.support(case))
        if outside:
            return f"{case.id}: weight {list(outside[0])} lies outside the character support"
        return None

    def character(self, case: Case, out) -> str | None:
        via, chi, equal = out
        if not equal or via != chi:
            return f"{case.id}: character via patterns differs; " + poly_diff(via, chi)
        total = character_dimension(via)
        if total != case.dim:
            return f"{case.id}: coefficient sum {total} != weyl_dimension {case.dim}"
        return None

    def tokuyama(self, case: Case, result) -> str | None:
        if not result.ok:
            rem = result.remainder
            where = poly_diff(rem, WeightPolynomial(rem.height_vec)) if rem else ""
            return f"{case.id}: division not exact ({result.reason}); {where}"
        ref = self.reference["tokuyama"][f"{case.family}{case.rank}"]
        terms = quotient_terms(result.quotient)
        if term_digests(terms) != ref["terms"]:
            return f"{case.id}: quotient differs from the rank's quotient; " + \
                first_diff(terms, ref["terms"])
        return None

    def cli(self, case: Case, returncode: int, stdout: bytes, stderr: bytes,
            expected: str) -> str | None:
        if returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{case.id}: exit code {returncode}: {' '.join(tail)}"
        if stdout != (expected + "\n").encode():
            try:
                got = json.loads(stdout)["terms"]
            except (ValueError, KeyError, TypeError):
                return f"{case.id}: stdout is not polynomial JSON"
            return f"{case.id}: stdout differs from in-process JSON; " + \
                first_diff(got, term_digests(json.loads(expected)["terms"]))
        return None


# ---------------------------------------------------------------------------
# Traced decompositions: spans around each call into a layer.
# ---------------------------------------------------------------------------

def traced_p_part(case: Case, n: int, spans: Spans) -> WeightPolynomial:
    """p_part rebuilt from its layers, timing each call."""
    start = pc()
    rs, lam = case.rs, case.lam
    acc: dict = {}
    it = enumerate_patterns(rs, lam)
    enum = dec = coef = wt = add = 0.0
    leaves = nonzero = 0
    while True:
        t0 = pc()
        L = next(it, None)
        t1 = pc()
        enum += t1 - t0
        if L is None:
            break
        leaves += 1
        dp = decorate(L, lam)
        t2 = pc()
        c = pattern_coefficient(dp, n)
        t3 = pc()
        dec += t2 - t1
        coef += t3 - t2
        if c.is_zero():
            continue
        nonzero += 1
        w = pattern_wt(L, lam)
        t4 = pc()
        acc[w] = acc[w] + c if w in acc else c
        wt += t4 - t3
        add += pc() - t4
    t0 = pc()
    meta = {"family": rs.family, "rank": rs.rank, "n": n, "lambda": list(lam)}
    poly = WeightPolynomial(rs.height_vec, acc, meta)
    end = pc()
    add += end - t0
    spans.parents["series.p_part_s"] += end - start
    s, k = spans.seconds, spans.counts
    s["patterns.enumerate_s"] += enum
    s["decorations.decorate_s"] += dec
    s["coefficients.pattern_coefficient_s"] += coef
    s["patterns.pattern_wt_s"] += wt
    s["coefficients.accumulate_s"] += add
    k["patterns.patterns"] += leaves
    k["decorations.calls"] += leaves
    k["coefficients.nonzero"] += nonzero
    return poly


def count_monomials(poly: WeightPolynomial) -> int:
    return sum(len(c.monomials()) for c in poly.terms.values())


def traced_ppart(case: Case, spans: Spans) -> str:
    poly = traced_p_part(case, case.n, spans)
    t0 = pc()
    text = json.dumps(polynomial_json_obj(poly, case.family, case.rank,
                                          case.n, case.lam))
    spans.seconds["series.json_s"] += pc() - t0
    spans.counts["coefficients.monomials"] += count_monomials(poly)
    spans.counts["series.json_bytes"] += len(text)
    return text


def _traced_weyl_character(rs, lam, spans: Spans) -> WeightPolynomial:
    t0 = pc()
    chi = weyl_character(rs, lam)
    spans.seconds["roots.weyl_character_s"] += pc() - t0
    spans.counts["roots.weyl_character_calls"] += 1
    spans.counts["roots.character_terms"] += len(chi)
    return chi


def traced_character(case: Case, spans: Spans):
    start = pc()
    rs, lam = case.rs, case.lam
    table: dict = {}
    it = enumerate_patterns(rs, lam)
    enum = wt = add = 0.0
    leaves = 0
    while True:
        t0 = pc()
        L = next(it, None)
        t1 = pc()
        enum += t1 - t0
        if L is None:
            break
        leaves += 1
        w = pattern_wt(L, lam)
        t2 = pc()
        table[w] = table.get(w, 0) + 1
        wt += t2 - t1
        add += pc() - t2
    t0 = pc()
    meta = {"family": rs.family, "rank": rs.rank, "lambda": list(lam)}
    via = poly_from_int_terms(rs.height_vec, table, meta)
    end = pc()
    add += end - t0
    spans.parents["series.character_via_patterns_s"] += end - start
    s = spans.seconds
    s["patterns.enumerate_s"] += enum
    s["patterns.pattern_wt_s"] += wt
    s["coefficients.accumulate_s"] += add
    spans.counts["patterns.patterns"] += leaves
    chi = _traced_weyl_character(rs, lam, spans)
    return via, chi, via == chi


def traced_tokuyama(case: Case, spans: Spans):
    """tokuyama_quotient rebuilt: P at n=1, specialization, twisted divisor,
    exact division.  Returns (quotient, remainder)."""
    rs = case.rs
    poly = traced_p_part(case, 1, spans)
    t0 = pc()
    special = specialize_poly_n1(poly)
    spans.seconds["coefficients.specialize_s"] += pc() - t0
    spans.counts["coefficients.monomials"] += count_monomials(special)
    lam_prime = tuple(c - 1 for c in case.lam)
    chi = _traced_weyl_character(rs, lam_prime, spans)
    t0 = pc()
    twisted = {}
    for w, c in chi.terms.items():
        drop = rs.root_coordinates(tuple(a - b for a, b in zip(lam_prime, w)))
        twisted[w] = c * CoeffElement.q_power(int(sum(drop)))
    divisor = WeightPolynomial(rs.height_vec, twisted, chi.meta)
    t1 = pc()
    quot, rem = special.divide(divisor)
    t2 = pc()
    spans.seconds["series.twisted_character_s"] += t1 - t0
    spans.seconds["weightpoly.divide_s"] += t2 - t1
    spans.counts["weightpoly.divide_terms"] += len(special) + len(divisor) + len(quot)
    return quot, rem
