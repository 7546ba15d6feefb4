import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cmreduce
from cmreduce.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mass(capsys):
    code, out, _ = run_capture(capsys, ["mass", "--p", "23"])
    assert code == 0
    assert out.strip() == "11/6"


def test_classgroup(capsys):
    code, out, _ = run_capture(capsys, ["classgroup", "--D", "-23"])
    assert code == 0
    assert "h = 3" in out
    assert "(1, 1, 6)" in out and "(2, 1, 3)" in out and "(2, -1, 3)" in out
    code, out, _ = run_capture(capsys, ["classgroup", "--D", "-23", "--json"])
    data = json.loads(out)
    assert data["h"] == 3 and data["D"] == "-23"


# D = -1127 = -23 * 7^2: a non-fundamental discriminant, h = 24
FORMS_1127 = (
    (1, 1, 282), (2, -1, 141), (2, 1, 141), (3, -1, 94), (3, 1, 94), (4, -3, 71), (4, 3, 71), (6, -5, 48),
    (6, -1, 47), (6, 1, 47), (6, 5, 48), (8, -5, 36), (8, 5, 36), (9, -5, 32), (9, 5, 32), (12, -11, 26),
    (12, -5, 24), (12, 5, 24), (12, 11, 26), (13, -11, 24), (13, 11, 24), (16, -5, 18), (16, 5, 18), (18, 13, 18),
)


def test_classgroup_output_is_pinned(capsys):
    # the exact bytes of both output formats, key order and spacing included
    code, out, _ = run_capture(capsys, ["classgroup", "--D", "-23", "--json"])
    assert code == 0
    assert out == '{"D": "-23", "forms": [[1, 1, 6], [2, -1, 3], [2, 1, 3]], "h": 3}\n'
    assert hashlib.sha256(out.encode()).hexdigest().startswith("e90cd7ccbd5463b6")
    code, out, _ = run_capture(capsys, ["classgroup", "--D", "-1127"])
    assert code == 0
    assert out == "D = -1127\nh = 24\n" + "".join(f"({a}, {b}, {c})\n" for a, b, c in FORMS_1127)
    code, out, _ = run_capture(capsys, ["classgroup", "--D", "-1127", "--json"])
    assert out == json.dumps({"D": "-1127", "forms": [list(f) for f in FORMS_1127], "h": 24}) + "\n"


def test_classpoly(capsys):
    code, out, _ = run_capture(capsys, ["classpoly", "--D", "-23", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == ["12771880859375", "-5151296875", "3491750", "1"]


def test_classpoly_has_no_cache_dir(capsys, tmp_path):
    # H_D is never read from disk: the flag is a usage error, and nothing
    # is written
    cache = tmp_path / "hd"
    code, out, _ = run_capture(capsys, ["classpoly", "--D", "-23", "--cache-dir", str(cache)])
    assert code == 1 and out == ""
    assert not cache.exists()


def test_ss_json(capsys):
    code, out, _ = run_capture(capsys, ["ss", "--p", "23", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 23
    assert data["mass"] == "11/6"
    assert {"j": "0+0*t", "w": 3} in data["points"]


def test_quat_classes(capsys):
    code, out, _ = run_capture(capsys, ["quat", "--p", "11", "classes", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["mass"] == "5/6"
    assert sorted(data["weights"]) == [2, 3]
    assert len(data["classes"]) == 2
    for cls in data["classes"]:
        assert len(cls["hnf"]) == 4


def test_quat_classes_above_400(capsys):
    code, out, _ = run_capture(capsys, ["quat", "--p", "401", "classes", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["algebra"]["b"] == -401
    assert data["mass"] == "100/3"


def test_reduce_and_joint(capsys):
    code, out, _ = run_capture(capsys, ["reduce", "--D", "-23", "--p", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert all(idx == 0 for _, idx in data["classes"])
    code, out, _ = run_capture(capsys, ["joint", "--D", "-71", "--primes", "11,23", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["h"] == 7
    assert sum(data["tuples"].values()) == 7


def test_scan_csv_and_json(capsys):
    argv = ["scan", "--primes", "11,23", "--dmin", "3", "--dmax", "200", "--fundamental", "--csv"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "D,h,primes,tv,chi2,surjective,min_im,box_mass_y2"
    code, out2, _ = run_capture(capsys, argv[:-1])
    data = json.loads(out2)
    assert data["config"]["primes"] == [11, 23]


def test_scan_byte_identical(capsys):
    argv = ["scan", "--primes", "11", "--dmin", "3", "--dmax", "150", "--fundamental"]
    code, out1, _ = run_capture(capsys, argv)
    code2, out2, _ = run_capture(capsys, argv)
    assert code == code2 == 0
    assert out1 == out2


def test_scan_empty_admissible_set_exits_zero(capsys):
    # -7 is split at 11: empty report, exit 0
    code, out, _ = run_capture(
        capsys, ["scan", "--primes", "11", "--dmin", "7", "--dmax", "7"]
    )
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_domain_error_exit_code(capsys):
    code, _, err = run_capture(capsys, ["reduce", "--D", "-23", "--p", "2"])
    assert code == 1
    assert "error" in err


def test_scan_refuses_a_split_filter_with_one_prime_twice(capsys):
    code, out, err = run_capture(capsys, ["scan", "--primes", "11", "--dmin", "3", "--dmax", "10", "--split", "3,3"])
    assert code == 1 and out == ""
    assert "distinct" in err


def test_scan_refuses_an_empty_prime_list(capsys):
    code, out, err = run_capture(capsys, ["scan", "--primes", ",", "--dmin", "3", "--dmax", "30"])
    assert code == 1 and out == ""
    assert "at least one" in err


def test_joint_refuses_an_empty_prime_list(capsys):
    code, out, err = run_capture(capsys, ["joint", "--D", "-23", "--primes", ","])
    assert code == 1 and out == ""
    assert "at least one" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_capture(capsys, ["frobnicate"])
    assert code == 1
    code, _, _ = run_capture(capsys, ["mass", "--nonsense"])
    assert code == 1


def test_verify_quick(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--quick"])
    assert code == 0
    assert "all" in out and "passed" in out
    assert out.count("ok -") >= 10


def test_verify_fails_loudly_under_python_O():
    # the checks are not asserts, so -O must not turn a wrong value into "ok"
    script = (
        "import sys, cmreduce.reduction as r\n"
        "r.character_average = lambda D, d: 7\n"
        "from cmreduce.cli import run\n"
        "sys.exit(run(['verify', '--quick']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cmreduce.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "FAIL - character orthogonality" in proc.stdout
    assert "1 of 10 checks failed" in proc.stdout


def test_no_command_imports_mpmath():
    # mpmath is the tests' oracle, not a dependency: every module, and the
    # commands that compute H_D, walk the supersingular locus and verify,
    # run without importing it
    script = (
        "import contextlib, importlib, io, pkgutil, sys\n"
        "import cmreduce\n"
        "for info in pkgutil.iter_modules(cmreduce.__path__):\n"
        "    importlib.import_module(f'cmreduce.{info.name}')\n"
        "from cmreduce.cli import run\n"
        "for argv in (['classpoly', '--D', '-16719'], ['ss', '--p', '101'], ['verify', '--quick']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if run(argv) != 0:\n"
        "            sys.exit(f'{argv} failed')\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'mpmath'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cmreduce.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", ["cmreduce", "cmreduce.cli"])
def test_python_dash_m_runs_the_command_line(module):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cmreduce.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "mass", "--p", "23"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == "11/6\n"
    proc = subprocess.run([sys.executable, "-m", module, "frobnicate"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1


def test_importing_the_main_module_runs_nothing(capsys):
    # tools import every cmreduce module; only `python -m` may run the CLI
    importlib.import_module("cmreduce.__main__")
    assert capsys.readouterr().out == ""
