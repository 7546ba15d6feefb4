"""Byte-for-byte CLI outputs that pin the labelling conventions: the class
order, the HNF representatives and the class indices that `reduce` and
`joint` print.  A change that alters any of them must refresh the files in
tests/golden/ on purpose."""

import pathlib

import pytest

from cmreduce.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "quat_p11_classes.json": ["quat", "--p", "11", "classes", "--json"],
    "quat_p23_classes.json": ["quat", "--p", "23", "classes", "--json"],
    "quat_p53_classes.json": ["quat", "--p", "53", "classes", "--json"],
    "quat_p73_classes.json": ["quat", "--p", "73", "classes", "--json"],  # a = -7
    "reduce_D-23_p11.txt": ["reduce", "--D", "-23", "--p", "11"],
    "reduce_D-10055_p23.txt": ["reduce", "--D", "-10055", "--p", "23"],
    "reduce_D-1127_p37.txt": ["reduce", "--D", "-1127", "--p", "37"],
    "reduce_D-463_p101.txt": ["reduce", "--D", "-463", "--p", "101"],  # base class 6 of 9
    "reduce_D-267_p1009.txt": ["reduce", "--D", "-267", "--p", "1009"],  # base class 82 of 84
    "joint_D-71_p11-23.json": ["joint", "--D", "-71", "--primes", "11,23", "--json"],
    "joint_D-71_p11-23.txt": ["joint", "--D", "-71", "--primes", "11,23"],
    "scan_p11-23_D3-600_fund.json": [
        "scan", "--primes", "11,23", "--dmin", "3", "--dmax", "600", "--fundamental", "--json",
    ],
    "scan_p11-23_D3-600_fund.csv": [
        "scan", "--primes", "11,23", "--dmin", "3", "--dmax", "600", "--fundamental", "--csv",
    ],
    "ss_p199.json": ["ss", "--p", "199", "--json"],
    "classpoly_D-719.json": ["classpoly", "--D", "-719", "--json"],  # 3 ∤ D: from gamma_2
    "classpoly_D-1335.json": ["classpoly", "--D", "-1335", "--json"],  # 3 | D: from j
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    assert run(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
