"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = wl.Case("A", 3, (2, 2, 2), 3)


@pytest.fixture(scope="module")
def checker():
    return wl.Checker(wl.load_reference())


def test_tail_matches_hand_computed_values():
    # 30 samples: the 20th smallest has exactly ten above it -> p66.7
    assert run.tail([float(x) for x in range(30, 0, -1)]) == (20.0, pytest.approx(66.666, abs=1e-3))
    # 11 samples: only the minimum has ten samples beyond it
    assert run.tail([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0]) == \
        (1.0, pytest.approx(100 / 11))
    # 56 samples, as in a ppart run: the 46th smallest, p82.1
    assert run.tail([x / 56 for x in range(56)]) == (45 / 56, pytest.approx(82.142857))
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_job_list_repeats_for_a_seed():
    for workload in wl.POOLS:
        first = wl.job_list(workload, 7, 20)
        assert first == wl.job_list(workload, 7, 20)
        other = wl.job_list(workload, 8, 20)
        assert other != first
        assert sorted(map(repr, other)) == sorted(map(repr, first))
        assert len(first) >= wl.MIN_JOBS


def test_ppart_check_counts_a_changed_coefficient(checker):
    text = wl.ppart_op(SMALL)
    assert checker.ppart(SMALL, text) is None
    obj = json.loads(text)
    term = obj["terms"][5]
    term["coeff"]["monomials"][0]["int"] += 1
    witness = checker.ppart(SMALL, json.dumps(obj))
    assert witness is not None and f"first differing weight {term['wt']}" in witness


def test_character_check_counts_a_wrong_character(checker):
    case = wl.Case("A", 2, (2, 1))
    via, chi, equal = wl.character_op(case)
    assert checker.character(case, (via, chi, equal)) is None
    w = via.sorted_weights()[-1]
    wrong = wl.WeightPolynomial(via.height_vec, {**via.terms, w: via.terms[w] + via.terms[w]})
    witness = checker.character(case, (wrong, chi, wrong == chi))
    assert witness is not None and f"first differing weight {list(w)}" in witness


def test_tokuyama_check_counts_a_wrong_quotient(checker):
    case = wl.Case("A", 3, (2, 2, 2))
    result = wl.tokuyama_op(case)
    assert checker.tokuyama(case, result) is None
    quot = result.quotient
    w = quot.sorted_weights()[0]
    bad = wl.WeightPolynomial(quot.height_vec, {**quot.terms, w: -quot.terms[w]})
    witness = checker.tokuyama(case, type(result)(case.lam, result.shift, True, bad, None))
    assert witness is not None and f"first differing weight {list(w)}" in witness


def test_cli_check_counts_exit_code_and_changed_bytes(checker):
    expected = wl.ppart_op(SMALL)
    good = (expected + "\n").encode()
    assert checker.cli(SMALL, 0, good, b"", expected) is None
    assert "exit code 2" in checker.cli(SMALL, 2, b"", b"invalid configuration: x\n", expected)
    obj = json.loads(expected)
    obj["terms"][0]["coeff"]["monomials"][0]["q"] += 1
    witness = checker.cli(SMALL, 0, (json.dumps(obj) + "\n").encode(), b"", expected)
    assert witness is not None and f"first differing weight {obj['terms'][0]['wt']}" in witness


def test_failed_checks_are_counted_per_op(checker):
    class Rejecting(wl.Checker):
        def ppart(self, case, text):
            return f"{case.id}: rejected"

    jobs = [SMALL, SMALL]
    forever = float("inf")
    assert run.run_untraced(wl, "ppart", jobs, checker, forever)["failures"] == []
    failures = run.run_untraced(wl, "ppart", jobs, Rejecting(checker.reference),
                                forever)["failures"]
    assert failures == [f"{SMALL.id}: rejected"] * 2


def test_traced_decomposition_reproduces_public_ops():
    spans = wl.Spans()
    assert wl.traced_ppart(SMALL, spans) == wl.ppart_op(SMALL)
    assert spans.counts["patterns.patterns"] == SMALL.dim
    case = wl.Case("A", 3, (2, 2, 2))
    quot, rem = wl.traced_tokuyama(case, spans)
    assert rem.is_zero() and quot == wl.tokuyama_op(case).quotient
    assert spans.seconds["weightpoly.divide_s"] > 0
