"""The reduction map at p computed by the walk over Pic(O_D) against the
per-form route of `quat_oracles.direct_prime_reduction`, and planted faults
in the walk that its certificates or the oracle must catch."""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cmreduce
from cmreduce import quatalg, reduction
from cmreduce.errors import CertificateError
from cmreduce.numbase import kronecker
from cmreduce.quadforms import Discriminant, QuadForm, admissible_discriminants, reduced_forms
from cmreduce.quatalg import Lattice4, Order, _qmul, _qnorm, _unreduce, left_ideal_from_class, unit_weight
from quat_oracles import direct_prime_reduction


def _reducible(d, p):
    return d % 4 in (0, 1) and kronecker(d, p) == -1 and Discriminant.of(d).conductor % p


def _fresh_walk(d, p):
    """The walk's labels, bypassing the per-process map cache; run it with
    `_NEIGHBOURS` monkeypatched to a fresh dict."""
    return dict(reduction._prime_reduction.__wrapped__(d, p))


@pytest.mark.parametrize("p", [5, 11, 23, 37])
def test_walk_matches_the_direct_route_up_to_1500(p):
    # every D with |D| <= 1500, non-fundamental ones included
    checked = 0
    for d in range(-3, -1501, -1):
        if _reducible(d, p):
            assert dict(reduction._prime_reduction(d, p)) == direct_prime_reduction(d, p), (d, p)
            checked += 1
    assert checked > 250


def test_walk_matches_the_direct_route_on_large_discriminants():
    pool = [dd.D for dd in admissible_discriminants(inert=(11, 23), coprime_to=(11, 23), abs_range=(10001, 20000))]
    sample = random.Random(12).sample(pool, 40)
    assert any(Discriminant.of(d).conductor > 1 for d in sample)
    for d in sample:
        for p in (11, 23):
            assert dict(reduction._prime_reduction(d, p)) == direct_prime_reduction(d, p), (d, p)


class _RecordingCache(dict):
    """The neighbour cache, recording apart the keys that a miss's unit orbit
    filled and the keys that its reverse edge filled, with the reverse edge's
    own unit orbit.  `_step` stores a miss's edge, then that edge's orbit,
    the reverse edge and the reverse edge's orbit, in that order; `forward`
    is set while the first orbit fill after a miss runs."""

    def __init__(self):
        super().__init__()
        self.reverse, self.unit = set(), set()
        self.forward = False
        self.orbits = 0

    def __setitem__(self, key, value):
        self.orbits = 0
        super().__setitem__(key, value)

    def setdefault(self, key, value):
        if key not in self:
            (self.unit if self.forward else self.reverse).add(key)
        return super().setdefault(key, value)


def _x(w, g):
    """x = (w - b)/2 for the state w and the form g = (ell, b, c)."""
    wden, wnum = w
    return 2 * wden, (wnum[0] - g.b * wden, *wnum[1:])


@pytest.mark.parametrize("p", [11, 23, 37])
def test_neighbour_cache_entries_are_twists_of_their_class_representative(monkeypatch, p):
    # at every step the entry used, forward, reverse or unit-filled, has
    # ell J_t + J_t (w - b)/2 = J_s z up to a rational factor: the lattices
    # J_s z and K have the same primitive HNF rows
    cache = _RecordingCache()
    monkeypatch.setattr(reduction, "_NEIGHBOURS", cache)
    honest, honest_fill = reduction._step, reduction._fill_unit_orbit

    def fill(*args):
        cache.forward = cache.orbits == 0
        cache.orbits += 1
        honest_fill(*args)
        cache.forward = False

    monkeypatch.setattr(reduction, "_fill_unit_orbit", fill)
    _, O, cls = reduction.quaternion_data(p)
    alg = O.alg
    used = set()

    def checked(p_, cls_, t, w, g):
        out = honest(p_, cls_, t, w, g)
        key = (p, t, g.a, reduction._kernel_line(cls.right_orders[t], _x(w, g), g.a))
        s, z = cache[key]
        K = left_ideal_from_class(cls.representatives[t], w, g)
        twisted = Lattice4.from_rows(alg, [_qmul(alg.a, alg.b, r, z) for r in cls.representatives[s].lattice.mat], 1)
        assert _primitive(twisted.mat) == _primitive(K.lattice.mat)
        assert out[0] == s
        used.add(key)
        return out

    monkeypatch.setattr(reduction, "_step", checked)
    for d in (-71, -119, -311, -1127, -2351, -10055):
        if _reducible(d, p):
            assert _fresh_walk(d, p) == direct_prime_reduction(d, p), d
    assert used & cache.reverse
    # every unit group at p = 37 is {+-1} (all weights 1), so no orbit
    # holds more than its own edge there
    assert bool(used & cache.unit) == (p != 37)
    assert bool(cache.unit) == (p != 37)


def test_order_units_are_the_norm_1_elements_found_once(monkeypatch):
    # `units` is one norm-1 search per order, which the class-set BFS ran
    # through `unit_weight`; a walk after `quaternion_data(p)` runs none
    for p in (11, 23, 37):
        _, O, cls = reduction.quaternion_data(p)
        for Or, w in zip(cls.right_orders, cls.weights):
            den = Or.lattice.den
            units = Or.units
            assert unit_weight(Or) == w == len(units) // 2
            assert list(units) == sorted(units) and len(set(units)) == len(units)
            assert all(_qnorm(O.alg.a, O.alg.b, u) == den * den for u in units)
            assert all(Or.lattice.coordinates(O.alg.element(*u).scale(Fraction(1, den))) is not None for u in units)
            # the second half is one of each pair +-u, the positive ones
            half = units[len(units) // 2:]
            assert {tuple(-x for x in u) for u in half} == set(units[: len(units) // 2])
            assert all(next(x for x in u if x) > 0 for u in half)
    # the walk's own short-vector searches (the reduced lattices of its
    # ideals) run; none of them is on the lattice of a right order
    right = {id(Or.lattice) for p in (11, 23) for Or in reduction.quaternion_data(p)[2].right_orders}
    honest, searched = quatalg.lattice_shortest_vectors, []

    def recording(lat):
        searched.append(id(lat))
        return honest(lat)

    monkeypatch.setattr(quatalg, "lattice_shortest_vectors", recording)
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    for p in (11, 23):
        for d in (-71, -119, -311, -1127, -2351, -10055):
            if _reducible(d, p):
                _fresh_walk(d, p)
    assert reduction._NEIGHBOURS and searched and right.isdisjoint(searched)


def _primitive(mat):
    g = math.gcd(*itertools.chain.from_iterable(mat))
    return tuple(tuple(x // g for x in r) for r in mat)


@pytest.mark.parametrize("p", [11, 23, 37])
def test_kernel_line_is_a_complete_invariant_of_the_neighbour(p):
    # over every residue x of O_t mod ell with ell | Nr(x), x != 0: exactly
    # ell + 1 lines, and two residues share a line iff ell J_t + J_t x is the
    # same lattice
    _, O, cls = reduction.quaternion_data(p)
    a, b = O.alg.a, O.alg.b
    for J, Or in zip(cls.representatives, cls.right_orders):
        lat, jlat = Or.lattice, J.lattice
        for ell in (2, 3, 5, 7):
            neighbours = {}
            for c in itertools.product(range(ell), repeat=4):
                x = _unreduce(lat.mat, c)  # the element x / lat.den of O_t
                if not any(c) or _qnorm(a, b, x) % (ell * lat.den**2):
                    continue
                rows = [[ell * lat.den * v for v in r] for r in jlat.mat] + [_qmul(a, b, r, x) for r in jlat.mat]
                K = Lattice4.from_rows(O.alg, rows, lat.den * jlat.den)
                neighbours.setdefault(reduction._kernel_line(Or, (lat.den, x), ell), set()).add(K)
            assert len(neighbours) == ell + 1
            assert all(len(ks) == 1 for ks in neighbours.values())
            assert len(set.union(*neighbours.values())) == ell + 1


@pytest.mark.parametrize("p", [11, 23, 37])
def test_kernel_line_makes_one_coordinate_solve(monkeypatch, p):
    # the order's anisotropic element y leaves conj(x) y x nonzero mod ell
    # for every x, so each line is one product pair and one solve
    counts = {"lines": 0, "solves": 0}
    honest_line, honest_solve = reduction._kernel_line, reduction._hnf_coordinates

    def line(*args):
        counts["lines"] += 1
        return honest_line(*args)

    def solve(*args):
        counts["solves"] += 1
        return honest_solve(*args)

    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "_kernel_line", line)
    monkeypatch.setattr(reduction, "_hnf_coordinates", solve)
    for d in (-71, -119, -311, -1127, -2351, -10055):
        if _reducible(d, p):
            assert _fresh_walk(d, p) == direct_prime_reduction(d, p), d
    assert counts["lines"] > 100 and counts["solves"] == counts["lines"]


def test_anisotropic_element_has_an_irreducible_characteristic_polynomial():
    # X^2 - Trd(y) X + Nrd(y) has no root mod ell, and y is the first such
    # residue in product order
    for p in (11, 23, 37):
        _, O, cls = reduction.quaternion_data(p)
        for Or in cls.right_orders:
            lat = Or.lattice
            for ell in (2, 3, 5, 7, 13):
                y = Or.anisotropic_element(ell)
                trd, nrd = 2 * y[0] // lat.den, _qnorm(O.alg.a, O.alg.b, y) // lat.den**2
                assert all((x * x - trd * x + nrd) % ell for x in range(ell)), (p, ell)
                first = next(c for c in itertools.product(range(ell), repeat=4) if _unreduce(lat.mat, c) == y)
                for c in itertools.product(range(ell), repeat=4):
                    if c == first:
                        break
                    z = _unreduce(lat.mat, c)
                    trd, nrd = 2 * z[0] // lat.den, _qnorm(O.alg.a, O.alg.b, z) // lat.den**2
                    assert any((x * x - trd * x + nrd) % ell == 0 for x in range(ell)), (p, ell, c)


def test_labels_do_not_depend_on_the_fill_order(monkeypatch):
    # reverse edges make each cached z depend on the order the walks ran in,
    # but only up to a unit of O_s, so neither the classes nor the labels move
    ds = [-71, -119, -311, -1127, -2351, -4391, -10055, -15791]
    for p in (11, 23):
        runs, caches = [], []
        for order in (ds, ds[::-1]):
            monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
            runs.append({d: _fresh_walk(d, p) for d in order if _reducible(d, p)})
            caches.append(reduction._NEIGHBOURS)
        assert runs[0] == runs[1]
        common = caches[0].keys() & caches[1].keys()
        assert common and all(caches[0][k][0] == caches[1][k][0] for k in common)


def _caught(d, p):
    """True when the walk raises CertificateError or disagrees with the oracle."""
    try:
        labels = _fresh_walk(d, p)
    except CertificateError:
        return True
    return labels != direct_prime_reduction(d, p)


FAULT_CASES = [(-71, 11), (-119, 23), (-1127, 37), (-10055, 23)]


@pytest.mark.parametrize("d, p", FAULT_CASES)
def test_planted_fault_wrong_sign_of_b_is_caught(monkeypatch, d, p):
    # K = ell J + J (w + b)/2 walks by the inverse form
    honest = reduction.left_ideal_from_class
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "left_ideal_from_class", lambda J, w, g: honest(J, w, QuadForm(g.a, -g.b, g.c)))
    assert _caught(d, p)


@pytest.mark.parametrize("d, p", FAULT_CASES)
def test_planted_fault_inverse_twist_is_caught(monkeypatch, d, p):
    # z^-1 w z in place of z w z^-1: conj(z) is a rational multiple of z^-1
    honest = reduction._conjugate
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "_conjugate", lambda alg, z, w: honest(alg, (z[0], -z[1], -z[2], -z[3]), w))
    assert _caught(d, p)


@pytest.mark.parametrize("d, p", FAULT_CASES)
def test_planted_fault_line_of_conj_x_is_caught(monkeypatch, d, p):
    # x y conj(x) in place of conj(x) y x: the line of the image of x, not of
    # its kernel, which two different neighbours can share
    honest = reduction._kernel_line
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "_kernel_line", lambda order, x, ell: honest(order, (x[0], reduction._conj(x[1])), ell))
    assert _caught(d, p)


class _ReverseStoresZ(dict):
    def setdefault(self, key, value):
        s, z = value
        return super().setdefault(key, (s, reduction._conj(z)))


@pytest.mark.parametrize("d, p", [(-119, 23), (-311, 37), (-1127, 37), (-2351, 37)])
def test_planted_fault_reverse_edge_stores_z_is_caught(monkeypatch, d, p):
    # the reverse edge J_t z in place of J_t conj(z): both lie in class t, so
    # only the twisted embedding is wrong, and a walk sees it only where a
    # later step depends on it, which no step of (-71, 11) or (-10055, 23) does
    monkeypatch.setattr(reduction, "_NEIGHBOURS", _ReverseStoresZ())
    assert _caught(d, p)


@pytest.mark.parametrize("d, p", FAULT_CASES)
def test_planted_fault_reverse_key_from_x_is_caught(monkeypatch, d, p):
    # the reverse key from z x z^-1 in place of z conj(x) z^-1; a state w is
    # traceless, so only the reverse edge conjugates a row with a real part
    # (for b = 0, conj(x) = -x has the same line, and the fault changes nothing)
    honest = reduction._conjugate
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "_conjugate",
                        lambda alg, z, w: honest(alg, z, (w[0], reduction._conj(w[1])) if w[1][0] else w))
    assert _caught(d, p)


# every unit group at p = 37 is {+-1}, so a unit orbit there holds its own
# edge alone and no fault in the fill can bite; the unit faults run on the
# other cases and on three more at p = 11 and 23
UNIT_FAULT_CASES = [c for c in FAULT_CASES if c[1] != 37] + [(-311, 11), (-71, 23), (-1127, 11)]


def _conj_unit(u):
    return u[0], reduction._conj(u[1])


@pytest.mark.parametrize("d, p", UNIT_FAULT_CASES)
def test_planted_fault_unit_fill_stores_z_conj_u_is_caught(monkeypatch, d, p):
    # J_s z conj(u) in place of J_s z u at the key of u^-1 x u
    honest = reduction._unit_twist
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "_unit_twist",
                        lambda alg, x, z, u: (honest(alg, x, z, u)[0], honest(alg, x, z, _conj_unit(u))[1]))
    assert _caught(d, p)


@pytest.mark.parametrize("d, p", UNIT_FAULT_CASES)
def test_planted_fault_unit_fill_keys_u_x_u_inverse_is_caught(monkeypatch, d, p):
    # the key of u x u^-1 in place of u^-1 x u; the two differ only where
    # u^-1 != +-u, for the units of order 3 or 6
    honest = reduction._unit_twist
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "_unit_twist",
                        lambda alg, x, z, u: (honest(alg, x, z, _conj_unit(u))[0], honest(alg, x, z, u)[1]))
    assert _caught(d, p)


@pytest.mark.parametrize("d, p", [(-71, 11), (-119, 23)])
def test_planted_fault_neighbour_of_wrong_norm_raises(monkeypatch, d, p):
    # K = J_t itself: its covolume is J_t's, not ell^2 times it, and the
    # integer norm certificate refuses it
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(reduction, "left_ideal_from_class", lambda J, w, g: J)
    with pytest.raises(CertificateError, match="covolume"):
        _fresh_walk(d, p)


@pytest.mark.parametrize("d, p", FAULT_CASES)
def test_planted_fault_anisotropic_element_1_raises(monkeypatch, d, p):
    # y = 1: every u is an eigenvector of the identity, so conj(x) x =
    # Nr(x) is 0 mod ell for every line, and _kernel_line refuses it
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    monkeypatch.setattr(Order, "anisotropic_element", lambda order, ell: (order.lattice.den, 0, 0, 0))
    with pytest.raises(CertificateError, match="is 0 mod"):
        _fresh_walk(d, p)


@pytest.mark.parametrize("d, p", [(-23, 11), (-71, 11), (-10055, 23)])
def test_closure_check_catches_a_wrong_closing_edge(monkeypatch, d, p):
    # the last step of a walk closes a chain; a wrong class there changes no
    # label, so only the closure check sees it
    honest = reduction._step
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    calls = []
    monkeypatch.setattr(reduction, "_step", lambda *args: calls.append(args) or honest(*args))
    _fresh_walk(d, p)
    last = len(calls)
    _, _, cls = reduction.quaternion_data(p)

    def wrong_last(*args):
        calls.append(args)
        s, w = honest(*args)
        return ((s + 1) % cls.h if len(calls) == 2 * last else s), w

    monkeypatch.setattr(reduction, "_step", wrong_last)
    with pytest.raises(CertificateError, match="classes"):
        _fresh_walk(d, p)


def test_a_walk_that_stops_short_of_h_fails_under_python_O():
    # -119 needs the forms over two primes; with the first alone the walk
    # labels 5 of its 10 forms, and the certificate is not an assert
    assert len(reduced_forms(-119)) == 10
    script = (
        "import itertools, sys, cmreduce.reduction as r\n"
        "from cmreduce.errors import CertificateError\n"
        "honest = r._generators\n"
        "r._generators = lambda d: itertools.islice(honest(d), 1)\n"
        "try:\n"
        "    r.reduce_at_prime(-119, 23)\n"
        "except CertificateError as exc:\n"
        "    sys.exit(3 if 'not h = 10' in str(exc) else 4)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cmreduce.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr


def test_generators_are_the_least_forms_over_the_least_primes():
    # -1127 = -23 * 7^2: 5 and 11 are inert, 7 divides the conductor
    assert list(itertools.islice(reduction._generators(-1127), 3)) == [
        QuadForm(2, 1, 141), QuadForm(3, 1, 94), QuadForm(13, 11, 24)]
