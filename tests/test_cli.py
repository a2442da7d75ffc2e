import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crystalmds
from crystalmds import cli, verification


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "A", "--rank", "2",
                                "--n", "2", "--lambda", "2,2", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["family", "rank", "n", "lambda", "terms"]
    assert obj["lambda"] == [2, 2]
    assert obj["terms"][0]["wt"] == [2, 2]


def test_compute_character_text(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "D", "--rank", "4",
                                "--character", "--lambda", "1,0,0,0"])
    assert code == 0
    assert "(8 terms)" in out


@pytest.mark.parametrize("rank", [50, 100])
def test_compute_character_large_rank(capsys, rank):
    # A50 has 1275 slots and A100 (MAX_RANK) 100 rows: the walk must not
    # recurse once per slot, and the row sums at most once per row
    lam = ",".join(["1"] + ["0"] * (rank - 1))
    code, out, _ = run(capsys, ["compute", "--family", "A", "--rank", str(rank),
                                "--character", "--lambda", lam, "--json"])
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == rank + 1
    one = crystalmds.CoeffElement.one().to_json_obj()
    assert all(t["coeff"] == one for t in terms)


def test_compute_rejects_boundary_weight(capsys):
    code, _, err = run(capsys, ["compute", "--family", "B", "--rank", "2",
                                "--n", "1", "--lambda", "0,0"])
    assert code == 2
    assert "strongly dominant" in err


def test_compute_allow_dominant(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "B", "--rank", "2",
                                "--n", "1", "--lambda", "0,0", "--allow-dominant",
                                "--json"])
    assert code == 0
    json.loads(out)


def test_compute_rank_mismatch(capsys):
    code, _, err = run(capsys, ["compute", "--family", "A", "--rank", "3",
                                "--lambda", "1,1"])
    assert code == 2 and "coordinates" in err


def test_compute_huge_rank_exits_two_at_once():
    # without the rank cap this builds the A3000 root system for minutes
    argv = [sys.executable, "-m", "crystalmds.cli", "compute", "--family", "A",
            "--rank", "3000", "--lambda", ",".join(["1"] * 3000), "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "rank 3000 exceeds the supported maximum" in done.stderr


@pytest.mark.parametrize("command", ["compute", "export"])
def test_rank_mismatch_checked_before_root_system(capsys, monkeypatch, tmp_path, command):
    # a large rank must not pay for its root system before the length check
    def fail(spec):
        raise RuntimeError(f"root system of {spec} built before the lambda check")
    monkeypatch.setattr(cli, "build_root_system", fail)
    extra = ["--out", str(tmp_path / "out")] if command == "export" else []
    code, _, err = run(capsys, [command, "--family", "A", "--rank", "160",
                                "--lambda", "1", *extra])
    assert code == 2 and "lambda has 1 coordinates, rank is 160" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--lambda", "1,1", "--n", "0"],
    ["compute", "--lambda", "1,1", "--n", "0", "--character", "--json"],
    ["compute", "--lambda", "1,1", "--n", "-3", "--character"],
    ["export", "--lambda", "1,1", "--n", "0", "--character"],
    ["export", "--lambda", "1,1", "--n", "-1"]])
def test_cover_degree_below_one_exits_two(capsys, tmp_path, argv):
    # the character ignores n but its JSON records it, so every compute and
    # export command rejects it, before anything is written
    outdir = tmp_path / "out"
    extra = ["--out", str(outdir)] if argv[0] == "export" else []
    code, out, err = run(capsys, [*argv, "--family", "A", "--rank", "2", *extra])
    assert code == 2 and out == "" and not outdir.exists()
    assert "invalid configuration: cover degree n must be >= 1" in err


def test_verify_tokuyama_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "tokuyama",
                                "--lambdas", "2;3;1,1;2,1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["suite"] == "tokuyama"


def test_verify_tokuyama_names_the_refused_lambda(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "tokuyama", "--lambdas", "1,1;0,1"])
    assert code == 2 and out == ""
    assert "need a strongly dominant highest weight, got (0, 1)" in err


def test_verify_tokuyama_groups_lambdas_by_rank(capsys):
    # the ranks run in ascending order whatever the input order, and each
    # rank keeps its lambdas in input order
    _, grouped, _ = run(capsys, ["verify", "--suite", "tokuyama",
                                 "--lambdas", "2;3;1,1;2,1"])
    _, mixed, _ = run(capsys, ["verify", "--suite", "tokuyama",
                               "--lambdas", "1,1;2;2,1;3"])
    assert mixed == grouped


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(verification.SUITES, "tokuyama",
                        lambda **kw: {"suite": "tokuyama", "ok": False, "cases": []})
    code, out, _ = run(capsys, ["verify", "--suite", "tokuyama"])
    assert code == 1
    assert not json.loads(out)["ok"]


def test_suite_choices_name_every_suite():
    assert set(cli._SUITE_OPTIONS) == set(verification.SUITES)


@pytest.mark.parametrize("argv,message", [
    (["--suite", "gauss", "--n", "0"], "cover degrees must be >= 1"),
    (["--suite", "gauss", "--n", "5"], "gauss suite selected no cases"),
    (["--suite", "character", "--max-dim", "0"], "character suite selected no cases"),
    # 10000019 is prime, but one of its Gauss sums is already past the
    # 10**7-term budget, so no exponent is checked
    (["--suite", "gauss", "--primes", "10000019"], "gauss suite selected no cases"),
    (["--suite", "gauss", "--primes", "1,5"], "primes must be >= 2"),
], ids=["gauss-degree-0", "gauss-no-prime-fits", "character-max-dim-0",
        "gauss-prime-over-budget", "gauss-prime-below-two"])
def test_verify_empty_or_malformed_run_exits_two(capsys, argv, message):
    # a run that checks nothing is invalid configuration, not a pass
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2 and out == "" and message in err


def test_verify_gauss_large_prime_finishes(capsys):
    # the exponents stop where p**c passes the term budget: c <= 3 at p=101
    code, out, _ = run(capsys, ["verify", "--suite", "gauss", "--primes", "101",
                                "--n", "1"])
    assert code == 0
    names = [c["name"] for c in json.loads(out)["cases"]]
    assert "h_1(3) n=1 p=101" in names and "h_1(4) n=1 p=101" not in names
    assert "g_1 residue period: a=2 vs 3, n=1 p=101" in names


@pytest.mark.parametrize("argv,text", [
    (["--suite", "gauss", "--primes", "5,x"], "'5,x'"),
    (["--suite", "tokuyama", "--lambdas", "1,x"], "'1,x'"),
], ids=["primes", "lambdas"])
def test_verify_malformed_int_list_exits_two(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"expected comma-separated integers, got {text}" in err


def test_verify_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def export_files(tmp_path, capsys, name, extra=()):
    outdir = tmp_path / name
    code, out, err = run(capsys, ["export", "--family", "A", "--rank", "2",
                                  "--lambda", "2,1", "--n", "2",
                                  "--out", str(outdir), *extra])
    assert code == 0, err
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_export_deterministic(tmp_path, capsys):
    first = export_files(tmp_path, capsys, "one")
    second = export_files(tmp_path, capsys, "two")
    assert first == second
    assert set(first) == {"patterns.txt", "decorated.txt", "polynomial.json"}
    assert first["patterns.txt"].decode().splitlines()[0].count(";") == 1


def test_export_pattern_count_matches_dimension(tmp_path, capsys):
    files = export_files(tmp_path, capsys, "dim")
    from crystalmds import CartanSpec, build_root_system, weyl_dimension
    dim = weyl_dimension(build_root_system(CartanSpec("A", 2)), (2, 1))
    assert len(files["patterns.txt"].decode().splitlines()) == dim


def test_export_unwritable_path(tmp_path, capsys):
    # a regular file where a directory is needed fails regardless of privileges
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    code, _, err = run(capsys, ["export", "--family", "A", "--rank", "1",
                                "--lambda", "1", "--out", str(blocker / "sub")])
    assert code == 1 and "export failed" in err


def test_cli_import_leaves_numpy_unloaded():
    # nothing in the package needs numpy: with every numpy import made to
    # fail, the CLI loads and the gauss suite runs its exact sums
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import crystalmds.cli\n"
            "code = crystalmds.cli.main(['verify', '--suite', 'gauss', '--primes', '5,7',\n"
            "                            '--n', '1,2'])\n"
            "assert sys.modules['numpy'] is None\n"
            "from crystalmds.verification import gauss_exact, gauss_field\n"
            "ell = gauss_field(7)[0]\n"
            "g1, g2 = gauss_exact(1, 0, 1, 7, 3), gauss_exact(1, 1, 2, 7, 3) * pow(7, -1, ell)\n"
            "print(code, g1 * g2 % ell)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report, last = done.stdout.strip().splitlines()
    assert json.loads(report)["ok"]
    # g_1(1) g_1(2) = p for a nontrivial cubic character mod 7
    assert last == "0 7"


def test_cli_import_loads_no_dataclasses_inspect_or_suites():
    # a compute process pays only for what compute runs: the records are
    # NamedTuples, and verify imports the suites itself
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import crystalmds.cli\n"
            "added = sorted(set(sys.modules) - before)\n"
            "print(crystalmds.cli.json.dumps(added))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(json.loads(done.stdout))
    assert "crystalmds.cli" in added
    assert not added & {"dataclasses", "inspect", "crystalmds.verification"}


def test_closed_stdout_ends_quietly():
    # the reader takes 10 bytes of a ~250 kB answer and closes the pipe: no
    # traceback, and the documented exit status for a closed stdout
    argv = [sys.executable, "-m", "crystalmds.cli", "compute", "--family", "A",
            "--rank", "4", "--lambda", "2,2,2,2", "--character", "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head == b'{"family":'
    assert err == b""
    assert proc.returncode == 141
