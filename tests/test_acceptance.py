"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them); the assertions pin the tolerances stated in the package contract.
"""
import hashlib
import json

import pytest

from crystalmds import (CartanSpec, CoeffElement, build_root_system, cli, coefficients, p_part,
                        verification)
from crystalmds.coefficients import row_components
from crystalmds.patterns import decorated_crystal
from crystalmds.verification import (_DECORATION_BATTERY, run_branching_suite,
                                     run_character_suite, run_decorations_suite,
                                     run_gauss_suite, run_tokuyama_suite)
from oracles import oracle_masks

_reports: dict[str, dict] = {}


def _suite(name, runner):
    if name not in _reports:
        _reports[name] = runner()
    return _reports[name]


def _verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _failures(report):
    return [c["name"] for c in report["cases"] if c["status"] == "fail"]


def test_criterion_1_character_oracle():
    # exact character equality and crystal size = dimension for every family
    # A1..A3, B2, B3, C2, C3, D4 with coordinates in {0,1,2}, dim <= 5000;
    # the walk's upper bounds are weight coordinates, so this also checks
    # the string-polytope inequalities in every family.
    rep = _suite("character", lambda: run_character_suite(max_dim=5000))
    ok = rep["ok"]
    _verdict("criterion-1 character oracle", ok, f"{len(rep['cases'])} cases")
    assert ok, _failures(rep)[:5]


def test_criterion_2_gauss_oracle():
    # exact sums in a prime field against the closed forms for n in 1..4,
    # primes 5/7/13, exponents to 6; residue-class periodicity and the
    # relations g_t(c) = -1 (n | tc), g_2(c) = g_1(2c), g(c) g(-c) = q
    rep = _suite("gauss", lambda: run_gauss_suite(primes=(5, 7, 13),
                                                  degrees=(1, 2, 3, 4)))
    ok = rep["ok"]
    _verdict("criterion-2 gauss oracle", ok, f"{len(rep['cases'])} cases")
    assert ok, _failures(rep)[:5]


def test_criterion_3_tokuyama_property():
    # every degree-1 sum is the deformed Weyl denominator D times the
    # twisted character of lambda - rho, one case for each of ranks 1..3 in
    # type A, then one for each of C2 and C3
    rep = _suite("tokuyama", run_tokuyama_suite)
    ok = rep["ok"]
    ranks = [c for c in rep["cases"] if c["name"].startswith("rank=")]
    _verdict("criterion-3 tokuyama factorization", ok, f"{len(ranks)} ranks")
    assert ok, _failures(rep)[:5]
    assert [(c["name"], c["status"]) for c in rep["cases"]] == [
        (f"{name}: P = D * chi~ for every lambda", "pass")
        for name in ("rank=1", "rank=2", "rank=3", "C2", "C3")]


def test_criterion_4_branching():
    # each group's lower row sum equals P_mu on the same support, with its
    # weights fixed by their first r-1 coordinates, and scalar * P_mu over the
    # groups reassembles P: type A ranks 2..3, n in 1..3, coords in {1,2};
    # B3 and C3 at (1,1,1) and D4 at (1,0,0,1), n in 1..3; D4 at (1,1,1,1), n=2
    rep = _suite("branching", run_branching_suite)
    ok = rep["ok"]
    _verdict("criterion-4 branching", ok, f"{len(rep['cases'])} cases")
    assert ok, _failures(rep)[:5]


def test_criterion_5_decoration_soundness():
    # the walk's masks over the suite's battery, D4 rho included, against the
    # oracle's chain and greedy bounds
    unsound = []
    for family, rank, lam in _DECORATION_BATTERY:
        rs = build_root_system(CartanSpec(family, rank))
        for dp in decorated_crystal(rs, lam):
            rows = dp.pattern.rows
            if oracle_masks(family, rank, rows, lam) != (True, dp.circled, dp.boxed):
                unsound.append(f"{family}{rank} lambda={lam}: {dp.pattern.to_text()}")
    rep = _suite("decorations", run_decorations_suite)
    cases = [c for c in rep["cases"] if "zero pattern" in c["name"]]
    ok = not unsound and all(c["status"] == "pass" for c in cases)
    _verdict("criterion-5 decoration soundness", ok,
             f"{len(_DECORATION_BATTERY)} crystals, {len(cases)} cases")
    assert not unsound, unsound[:5]
    assert ok, [c["name"] for c in cases if c["status"] == "fail"]
    # zero pattern contributes exactly the highest-weight term in types A/C
    for family, rank in (("A", 2), ("C", 2)):
        lam = (1,) * rank
        P = p_part(build_root_system(CartanSpec(family, rank)), lam, 1)
        assert P.coeff(lam) == CoeffElement.one()


def test_criterion_6_type_d_sigma_rules():
    rep = _suite("decorations", run_decorations_suite)
    cases = [c for c in rep["cases"] if c["name"].startswith("D4")]
    ok = all(c["status"] != "fail" for c in cases)
    forced = {c["name"]: c.get("count") for c in cases if "forced" in c["name"]}
    _verdict("criterion-6 type-D sigma rules", ok,
             f"forced circled-unboxed evaluations: {sum(v or 0 for v in forced.values())}")
    assert ok, [c["name"] for c in cases if c["status"] == "fail"]
    # the counts read the boxed masks, so they pin the walk's upper bounds
    assert forced == {f"D4 lambda={lam} forced circled-unboxed sigma evaluations": count
                      for lam, count in (((1, 0, 0, 0), 0), ((0, 0, 0, 1), 2),
                                         ((1, 0, 0, 1), 22), ((1, 1, 1, 1), 8461))}


# the whole report: every case name, its order, status and fields
DECORATIONS_REPORT_SHA256 = "c6cabbb4fb5eafebdae79f4b12a2856496e4201573a296d1902253cd6db5df18"


def test_decorations_report_is_pinned():
    rep = json.dumps(_suite("decorations", run_decorations_suite))
    assert hashlib.sha256(rep.encode()).hexdigest() == DECORATIONS_REPORT_SHA256


def test_decorations_suite_evaluates_each_component_once(monkeypatch):
    # wrapped wherever the suite or a coefficients helper looks it up; the
    # calls p_part's own slot table makes are the engine's, not the suite's
    calls, in_engine = [], [False]
    component_factor, engine = coefficients._component_factor, verification.p_part

    def counted(comp, *rest):
        if not in_engine[0]:
            calls.append(comp)
        return component_factor(comp, *rest)

    def p_part(*args, **kwargs):
        in_engine[0] = True
        try:
            return engine(*args, **kwargs)
        finally:
            in_engine[0] = False

    for module in (coefficients, verification):
        monkeypatch.setattr(module, "_component_factor", counted)
    monkeypatch.setattr(verification, "p_part", p_part)
    assert run_decorations_suite()["ok"]
    rs4 = build_root_system(CartanSpec("D", 4))
    components = sum(len(row_components(rs4.spec, i, row))
                     for lam in ((1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1))
                     for dp in decorated_crystal(rs4, lam)
                     for i, row in enumerate(dp.pattern.rows, start=1))
    assert len(calls) == components


def _decorations_failures(monkeypatch, corrupt):
    """The decorations suite's verdict and failing case names with the
    suite's own ``_component_factor`` passed through ``corrupt``; p_part's
    slot tables keep the real one."""
    component_factor = verification._component_factor
    monkeypatch.setattr(verification, "_component_factor",
                        lambda comp, *rest: corrupt(comp, component_factor(comp, *rest)))
    rep = run_decorations_suite()
    return rep["ok"], [c["name"] for c in rep["cases"] if c["status"] == "fail"]


def test_decorations_suite_fails_a_circled_and_boxed_leak(monkeypatch):
    one = CoeffElement.one()
    ok, failed = _decorations_failures(monkeypatch, lambda comp, v: one if v.is_zero() else v)
    assert not ok and failed == [
        f"D4 lambda={lam} circled-and-boxed member zeroes component"
        for lam in ((1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1))]


def test_decorations_suite_fails_a_zero_run_sml_factor_other_than_one(monkeypatch):
    ok, failed = _decorations_failures(
        monkeypatch, lambda comp, v: v + v if comp.kind == "sml" and comp.value == 0 else v)
    assert not ok and failed == [
        f"D4 lambda={lam} zero-run sml components contribute 1"
        for lam in ((0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 1))]


def test_criterion_7_determinism_and_round_trips(tmp_path, capsys):
    outputs = {}
    for run in ("first", "second"):
        outdir = tmp_path / run
        code = cli.main(["export", "--family", "C", "--rank", "2",
                         "--lambda", "2,1", "--n", "2", "--out", str(outdir)])
        capsys.readouterr()
        assert code == 0
        outputs[run] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    ok = outputs["first"] == outputs["second"]
    _verdict("criterion-7 determinism", ok)
    assert ok
    json.loads(outputs["first"]["polynomial.json"])
