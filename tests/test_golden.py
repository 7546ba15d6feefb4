"""Byte-for-byte CLI outputs that pin the labelling conventions: the class
order, the HNF representatives and the class indices that `reduce` and
`joint` print.  A change that alters any of them must refresh the files in
tests/golden/ on purpose."""

import hashlib
import pathlib

import pytest

from cmreduce.cli import run
from cmreduce.numbase import primes_up_to

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


def test_class_sets_up_to_200(capsys):
    # the `quat --p P classes --json` bytes of every prime 5 <= p <= 200, in
    # one digest: the class order and the representatives across all three
    # of Pizer's branches (CI pins p <= 1000 the same way)
    h = hashlib.sha256()
    for p in primes_up_to(200)[2:]:
        assert run(["quat", "--p", str(p), "classes", "--json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "ef58214004f526225958ea2f5fb116ccd7ed3b2a12455b05cd59feb3e58c04a3"
