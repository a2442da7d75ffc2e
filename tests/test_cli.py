import fcntl
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crystalmds
from crystalmds import CoeffElement, cli, verification


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


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="ROADMAP item 8: no work budget yet, so D12 rho n=2 runs until killed")
def test_hostile_input_exits_two_at_once():
    # D12 rho has 2^132 patterns: a work budget must refuse it with exit 2
    # within the timeout, which otherwise kills the child, so nothing is left
    # running
    code = "import sys; from crystalmds.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "compute", "--family", "D", "--rank", "12",
            "--lambda", ",".join(["1"] * 12), "--n", "2", "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=2)
    assert done.returncode == 2, done.stderr


@pytest.mark.parametrize("command", ["compute", "export"])
def test_rank_mismatch_checked_before_root_system(capsys, monkeypatch, tmp_path, command):
    # a large rank must not pay for its root system before the rank and
    # length checks; the rank is checked first, so a rank out of range is
    # named as such, not as a lambda of the wrong length, which roots'
    # highest-weight check names
    def fail(spec):
        raise RuntimeError(f"root system of {spec} built before the lambda check")
    monkeypatch.setattr(cli, "build_root_system", fail)
    outdir = tmp_path / "out"
    extra = ["--out", str(outdir)] if command == "export" else []
    for rank, message in ((160, "rank 160 exceeds the supported maximum 100"),
                          (0, "family A needs rank >= 1, got 0"),
                          (90, "weight (1,) has 1 coordinates, rank is 90")):
        code, out, err = run(capsys, [command, "--family", "A", "--rank", str(rank),
                                      "--lambda", "1", *extra])
        assert code == 2 and out == "" and not outdir.exists()
        assert f"invalid configuration: {message}" in err


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
    assert err == "invalid configuration: highest weight must be strongly dominant, got (0, 1)\n"


def test_strong_dominance_has_one_message(capsys):
    # p_part, tokuyama_quotient and compute refuse a lambda that is not
    # strongly dominant with roots' one message, as verify does (above)
    r = crystalmds.build_root_system(crystalmds.CartanSpec("A", 2))
    for call, lam in ((lambda lam: crystalmds.p_part(r, lam, 1), (1, 0)),
                      (lambda lam: crystalmds.tokuyama_quotient(r, lam), (0, 1))):
        with pytest.raises(ValueError) as info:
            call(lam)
        assert str(info.value) == f"highest weight must be strongly dominant, got {lam}"
    code, out, err = run(capsys, ["compute", "--family", "A", "--rank", "2", "--lambda", "1,0"])
    assert (code, out) == (2, "")
    assert err == "invalid configuration: highest weight must be strongly dominant, got (1, 0)\n"


def test_verify_tokuyama_groups_lambdas_by_rank(capsys):
    # the ranks run in ascending order whatever the input order, and each
    # rank keeps its lambdas in input order
    _, grouped, _ = run(capsys, ["verify", "--suite", "tokuyama",
                                 "--lambdas", "2;3;1,1;2,1"])
    _, mixed, _ = run(capsys, ["verify", "--suite", "tokuyama",
                               "--lambdas", "1,1;2;2,1;3"])
    assert mixed == grouped


# SHA-256 of the stdout of verify commands the CI console-script step runs
VERIFY_STDOUT_SHA256 = {
    # the default run: type A ranks 1-3, then the type-C cases C2 and C3
    "--suite tokuyama":
        "e7cf9fcaab231e2474f05796c51ac209496953260e3a248a959bf797399d9dda",
    "--suite tokuyama --lambdas 1,1,1,1;2,1,1,2":
        "2cba156e53729f18041b2f7efab1cd4408ac76423d1f44219d213c80c5790102",
    "--suite tokuyama --lambdas 1,1,1,1,1;2,1,1,1,2":
        "1d5039cd2c9288f6ba61f7be77dda7ed22a3c9f69980ca30331b0e1b3717bd53",
    "--suite tokuyama --lambdas 3,3,3,3;4,3,4":
        "db2460431d8d08bdc4e9e3c897300dfe3e795cf1e84c568a3634fdd702028639",
    "--suite tokuyama --lambdas 1,1,1,1,1,1":
        "ae0363a42fb6ad0f62e21d52a788330659fb2f7cab3c147ecd717c0bd3281477",
    "--suite character --max-dim 60000":
        "684eaffe2b3ead46fccac1503f672ac474d40430fba6d15e4f8a6fd585f57652",
}


@pytest.mark.parametrize("args", list(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_pinned(capsys, args):
    code, out, _ = run(capsys, ["verify", *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[args]


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(verification.SUITES, "tokuyama",
                        lambda **kw: {"suite": "tokuyama", "ok": False, "cases": []})
    code, out, _ = run(capsys, ["verify", "--suite", "tokuyama"])
    assert code == 1
    assert not json.loads(out)["ok"]


def test_suite_choices_name_every_suite():
    # each suite's verify options are exactly its keyword parameters
    assert set(cli._SUITE_OPTIONS) == set(verification.SUITES)
    for name, suite in verification.SUITES.items():
        params = tuple(inspect.signature(suite).parameters)
        assert cli._SUITE_OPTIONS[name] == params, name


@pytest.mark.parametrize("argv,flags", [
    (["--suite", "branching", "--n", "0"], ["--n"]),
    (["--suite", "tokuyama", "--primes", "3", "--max-dim", "1"], ["--max-dim", "--primes"]),
    (["--suite", "character", "--lambdas", "1,1"], ["--lambdas"]),
], ids=["branching-n", "tokuyama-primes-max-dim", "character-lambdas"])
def test_verify_option_the_suite_does_not_take_exits_two(capsys, argv, flags):
    # an option the suite would ignore is refused by name, before any case runs
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2 and out == ""
    assert all(flag in err for flag in flags), err


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


# SHA-256 of each file of the D3 (2,1,2) n=2 export tree, recorded while
# export still held every pattern and rendered block before writing.
EXPORT_SHA256 = {
    "decorated.txt": "383ad7e82ba6c47be7467f01eed35da256e000deb479eca0f78b239a3e02461e",
    "patterns.txt": "4e7f71532202a20f3afb4de8a19952411ffe826741fa66a238ad52182decd99c",
    "polynomial.json": "da4cea35bd94dfe83cfaa1d3cc23d8023c7903758ab79f047b33b0618c877502",
}


def test_export_bytes(tmp_path, capsys):
    outdir = tmp_path / "d3"
    code, out, err = run(capsys, ["export", "--family", "D", "--rank", "3",
                                  "--lambda", "2,1,2", "--n", "2", "--out", str(outdir)])
    assert code == 0, err
    assert out == f"wrote 360 patterns to {outdir}\n"
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in outdir.iterdir()} == EXPORT_SHA256


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


def test_cli_import_loads_no_fractions_or_decimal():
    # the root data is integer: only the inverse Cartan matrix, which no
    # command reads, imports fractions, and then only when first built
    code = ("import sys\n"
            "import crystalmds.cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_closed_stdout_ends_quietly():
    # the reader takes 10 bytes of the answer (~250 kB of JSON, ~19 kB of
    # text) and closes the pipe: no traceback, and the documented exit status
    # for a closed stdout.  The pipe holds one page, so the writer is still
    # writing when the reader closes it, however small the answer.
    env = dict(os.environ, PYTHONPATH=str(Path(crystalmds.__file__).parents[1]))
    for args, first in [("--family A --rank 4 --lambda 2,2,2,2 --character --json",
                         b'{"family":'),
                        ("--family B --rank 3 --lambda 1,1,1 --n 2", b"family B r")]:
        argv = [sys.executable, "-m", "crystalmds.cli", "compute", *args.split()]
        r, w = os.pipe()
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(argv, env=env, stdout=w, stderr=subprocess.PIPE)
        os.close(w)
        head = os.read(r, 10)
        os.close(r)
        _, err = proc.communicate(timeout=120)
        assert head == first, args
        assert err == b"", args
        assert proc.returncode == 141, args


def test_text_table_is_written_as_it_is_rendered(monkeypatch):
    # the header reaches stdout before the last coefficient is rendered
    events = []
    render = CoeffElement.__repr__

    class Stdout(io.StringIO):
        def write(self, text):
            events.append("write")
            return super().write(text)

    def spy(self):
        events.append("render")
        return render(self)

    monkeypatch.setattr(CoeffElement, "__repr__", spy)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert cli.main(["compute", "--family", "B", "--rank", "3", "--lambda", "1,1,1",
                     "--n", "2"]) == 0
    out = sys.stdout.getvalue()
    assert out.startswith("family B rank 3 n 2 lambda 1,1,1 (128 terms)\n")
    assert events.count("render") == 128
    last_render = len(events) - 1 - events[::-1].index("render")
    assert events.index("write") < last_render
