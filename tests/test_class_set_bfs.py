"""The class-set BFS searches each lattice once: the searches that
`quaternion_data` and a later walk run, the reverse lines that spare a
visit its neighbours of known class, R(J) and the units of O_R(J) taken
from the search that found J, and the containment certificate of
`right_order`."""

import pytest

from cmreduce import quatalg, reduction
from cmreduce.errors import CertificateError
from cmreduce.numbase import primes_up_to
from cmreduce.quadforms import admissible_discriminants
from cmreduce.quatalg import (
    Lattice4,
    LeftIdeal,
    _certified_right_order,
    _divided_by,
    _neighbor_ideals,
    _unreduce,
    lattice_shortest_vectors,
)
from quat_oracles import coordinates_in, from_row, neighbor_ideals_by_membership


def _fresh_class_set(p):
    """(algebra, maximal order, class set) for p, bypassing the cache."""
    return quatalg.quaternion_data.__wrapped__(p)


def _search_units(Or):
    lat = Or.lattice
    return tuple(sorted(_unreduce(lat.mat, c) for c in lattice_shortest_vectors(lat)))


@pytest.mark.parametrize("p", [11, 23, 37, 101, 1009])
def test_the_bfs_searches_each_classified_neighbour_once(monkeypatch, p):
    honest_search, honest_neighbours = quatalg.lattice_shortest_vectors, quatalg._neighbor_ideals
    searched, formed = [], []

    def recording_search(lat):
        searched.append(lat)
        return honest_search(lat)

    def recording_neighbours(*args):
        out = honest_neighbours(*args)
        formed.extend(out.values())
        return out

    monkeypatch.setattr(quatalg, "lattice_shortest_vectors", recording_search)
    monkeypatch.setattr(quatalg, "_neighbor_ideals", recording_neighbours)
    data = _fresh_class_set(p)
    _, O, cls = data
    # one search on O, then one on each neighbour classified, in the order
    # formed; only the last visit, cut short when the mass is reached, may
    # leave neighbours unclassified
    assert searched[0] == O.lattice
    assert searched[1:] == [K.lattice for K in formed[: len(searched) - 1]]
    assert len(formed) - (len(searched) - 1) <= 2
    # a neighbour that holds 1 is its own reduced lattice, so it can equal
    # the lattice of a representative; the searches are told apart by
    # object: none runs on the lattice of a representative or right order
    known = {id(J.lattice) for J in cls.representatives} | {id(Or.lattice) for Or in cls.right_orders}
    assert known.isdisjoint(map(id, searched[1:]))
    # every representative after J_0 was found from an earlier class, whose
    # reverse line spares one of its 3 neighbours
    assert len(formed) <= 3 + 2 * (cls.h - 1)
    # a walk after the BFS searches its own neighbours only (at p = 37 one
    # of them is the lattice O)
    searched.clear()
    monkeypatch.setattr(reduction, "quaternion_data", lambda q: data)
    monkeypatch.setattr(reduction, "_NEIGHBOURS", {})
    walked = 0
    for D in admissible_discriminants(inert=[p], abs_range=(100, 1500)):
        reduction._prime_reduction.__wrapped__(D.D, p)
        walked += 1
        if walked == 8:
            break
    assert searched and known.isdisjoint(map(id, searched))


@pytest.mark.parametrize("p", primes_up_to(400)[2:])
def test_reverse_lines_inherited_reduced_lattices_and_units(monkeypatch, p):
    honest = quatalg._reverse_line
    recorded = []

    def recording(J, K, rep, right):
        line = honest(J, K, rep, right)
        recorded.append((J, rep, line))
        return line

    monkeypatch.setattr(quatalg, "_reverse_line", recording)
    _, O, cls = _fresh_class_set(p)
    reps = cls.representatives
    index = {id(J): s for s, J in enumerate(reps)}
    # each recorded line names a 2-neighbour of J_s, by the membership
    # oracle too, that a search places in the class it came from
    neighbours = {}
    for J, rep, line in recorded:
        t, s = index[id(J)], index[id(rep)]
        assert s > t
        if s not in neighbours:
            neighbours[s] = _neighbor_ideals(rep, 2, cls.right_orders[s])
            lattices = [K.lattice for K in neighbours[s].values()]
            assert lattices == [K.lattice for K in neighbor_ideals_by_membership(rep, 2)]
        K = neighbours[s][line]
        assert cls.index_of(LeftIdeal(lattice=K.lattice, left_order=O)) == t
    # the class that ends the BFS records no line, so h = 2 records none
    assert bool(recorded) == (cls.h > 2)
    for J, Or in zip(reps, cls.right_orders):
        # R(J) from J's own search, and each element n in J with J n^-1 its key
        fresh = LeftIdeal(lattice=J.lattice, left_order=O).reduced_lattices
        assert J.reduced_lattices.keys() == fresh.keys()
        for L, n in J.reduced_lattices.items():
            assert coordinates_in(J.lattice, from_row(O.alg, (J.lattice.den, n))) is not None
            assert _divided_by(J.lattice, n) == L
        assert Or.units == _search_units(Or)


def test_neighbor_ideals_count_but_do_not_form_a_known_line():
    _, _, cls = quatalg.quaternion_data(37)
    for J, Or in zip(cls.representatives, cls.right_orders):
        keyed = _neighbor_ideals(J, 2, Or)
        for line in keyed:
            assert _neighbor_ideals(J, 2, Or, {line}) == {k: K for k, K in keyed.items() if k != line}
        assert _neighbor_ideals(J, 2, Or, set(keyed)) == {}
        # a line that no neighbour has
        with pytest.raises(CertificateError, match="known line"):
            _neighbor_ideals(J, 2, Or, {(0, 0, 0, 0)})


@pytest.mark.parametrize("p", [11, 23, 101])
def test_right_order_certificate_is_containment_and_discriminant(p):
    B, _, cls = quatalg.quaternion_data(p)
    for J, Or in zip(cls.representatives, cls.right_orders):
        assert _certified_right_order(J, Or.lattice).lattice == Or.lattice
        rows = [list(r) for r in Or.lattice.mat]
        den = Or.lattice.den
        # a sublattice of index 2 lies in the right order, so J L lies in J,
        # but its reduced discriminant is 2p
        sub = Lattice4.from_rows(B, [[2 * x for x in rows[0]], *rows[1:]], den)
        with pytest.raises(CertificateError, match="not the right order"):
            _certified_right_order(J, sub)
        # a lattice with the right order inside it at index 2 is not
        # contained in the right order, so J L is not in J
        sup = Lattice4.from_rows(B, [rows[0], *[[2 * x for x in r] for r in rows[1:]]], 2 * den)
        with pytest.raises(CertificateError, match="does not lie in I"):
            _certified_right_order(J, sup)
