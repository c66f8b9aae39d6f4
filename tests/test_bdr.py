import itertools

import numpy as np
import pytest

from branekit.bdr import (
    BDRCocycle,
    EdgeData,
    LineClass,
    assemble,
    check_det,
    check_quadruple,
    check_triple,
    int_det,
    is_permutation_matrix,
    trivial_lines,
)
from branekit.errors import InputError, MissingLine
from branekit.family import (
    Chart,
    Nerve,
    from_potential,
    idempotent_frames,
    transition_permutations,
)

from conftest import circle_nerve, disk_nerve, quadratic_potential


def cover_of(nerve):
    family = from_potential(quadratic_potential(), nerve)
    return transition_permutations(idempotent_frames(family), nerve)


def test_int_det():
    assert int_det([[1, 1], [0, 1]]) == 1
    assert int_det([[2, 0], [0, 1]]) == 2
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.integers(-4, 5, size=(4, 4))
        assert int_det(m) == round(np.linalg.det(m))


def test_line_class_group_laws():
    a = LineClass((1, -2))
    b = LineClass((0, 5))
    assert (a + b).exponents == (1, 3)
    assert (-a).exponents == (-1, 2)
    assert LineClass.zero(2) + a == a


def test_assemble_identity_and_swap():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    lines = trivial_lines(cover, generators=1)
    c = assemble(cover, lines, generators=1)
    assert check_det(c).passed
    for key, u in cover.transitions.items():
        rank = c.edge(*key).rank
        for i in range(cover.n):
            assert rank[i, u[i]] == 1
        assert rank.sum() == cover.n


def test_assemble_swap_positions():
    # hand-built cover-like object: one edge with the transposition
    nerve = disk_nerve()
    cover = cover_of(nerve)
    key = next(iter(cover.transitions))
    cover.transitions[key] = (1, 0)
    la, lb = LineClass((1,)), LineClass((0,))
    lines = trivial_lines(cover, 1)
    lines[(key, 0)] = la
    lines[(key, 1)] = lb
    c = assemble(cover, lines, 1)
    e = c.edge(*key)
    assert e.rank[0, 1] == 1 and e.rank[1, 0] == 1
    assert e.lines[0][1] == la and e.lines[1][0] == lb


def test_assemble_missing_line():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    lines = trivial_lines(cover, 1)
    lines.pop(next(iter(lines)))
    with pytest.raises(MissingLine):
        assemble(cover, lines, 1)


def test_check_det_failures():
    edges = {("a", "b"): EdgeData(np.array([[2, 0], [0, 1]]),
                                  [[LineClass((0,)), None], [None, LineClass((0,))]])}
    c = BDRCocycle(2, 1, edges)
    report = check_det(c)
    assert not report.passed
    assert "det=2" in report.records[0].detail


def test_unipotent_det_passes():
    edges = {("a", "b"): EdgeData(np.array([[1, 1], [0, 1]]),
                                  [[LineClass((0,)), LineClass((0,))],
                                   [None, LineClass((0,))]])}
    assert check_det(BDRCocycle(2, 1, edges)).passed


def test_triple_law_from_disk_cover():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, trivial_lines(cover, 2), 2)
    assert check_triple(c, nerve).passed
    assert check_quadruple(c, nerve).passed  # vacuous


def test_triple_law_with_coherent_nontrivial_lines():
    # lines chosen as a coboundary: L_i^{ab} = phi_i^a - phi_{u(i)}^b,
    # which always satisfies the triangle additivity
    nerve = disk_nerve()
    cover = cover_of(nerve)
    rng = np.random.default_rng(1)
    pot = {(cid, i): rng.integers(-3, 4, size=2)
           for cid in nerve.chart_order for i in range(cover.n)}
    lines = {}
    for key, u in cover.transitions.items():
        a, b = key
        for i in range(cover.n):
            lines[(key, i)] = LineClass(tuple(pot[(a, i)] - pot[(b, u[i])]))
    c = assemble(cover, lines, 2)
    assert check_det(c).passed
    assert check_triple(c, nerve).passed, str(check_triple(c, nerve))


def test_triangle_edges_stored_reversed_use_the_strict_inverse():
    # the disk nerve with every edge stored as (b, a): triangles (a, b, g) read
    # each edge through the inverse of its permutation-matrix data
    flipped = disk_nerve()
    flipped = Nerve([flipped.charts[cid] for cid in flipped.chart_order],
                    [(b, a) for a, b in flipped.edges], flipped.triangles)
    cover = cover_of(flipped)
    rng = np.random.default_rng(2)
    pot = {(cid, i): rng.integers(-3, 4, size=2)
           for cid in flipped.chart_order for i in range(cover.n)}
    lines = {((a, b), i): LineClass(tuple(pot[(a, i)] - pot[(b, u[i])]))
             for (a, b), u in cover.transitions.items() for i in range(cover.n)}
    c = assemble(cover, lines, 2)
    assert check_triple(c, flipped).passed, str(check_triple(c, flipped))
    key = next(iter(c.edges))
    back = c.edge(key[1], key[0])
    assert np.array_equal(back.rank, c.edges[key].rank.T)
    assert all(back.lines[j][i] == -c.edges[key].lines[i][j]
               for i in range(2) for j in range(2) if c.edges[key].rank[i, j])
    # a non-permutation rank matrix has no strict inverse
    c.edges[key].rank[:] = [[1, 1], [0, 1]]
    c.edges[key].lines[0][1] = LineClass((0, 0))
    with pytest.raises(InputError, match="no data for edge"):
        c.edge(key[1], key[0])


def test_triple_detects_corrupted_line():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    lines = trivial_lines(cover, 1)
    tri = nerve.triangles[0]
    key = (tri[0], tri[1])
    lines[(key, 0)] = LineClass((7,))
    c = assemble(cover, lines, 1)
    report = check_triple(c, nerve)
    assert not report.passed
    fail = report.failures()[0]
    assert "triangle" in fail.location


def test_circle_cover_assembles_and_passes():
    nerve = circle_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, trivial_lines(cover, 1), 1)
    assert check_det(c).passed
    assert check_triple(c, nerve).passed   # no triangles on a circle: vacuous
    assert check_quadruple(c, nerve).passed


def test_assembled_ranks_are_two_vector_equivalences():
    for nerve in (disk_nerve(), circle_nerve()):
        cover = cover_of(nerve)
        c = assemble(cover, trivial_lines(cover, 1), 1)
        for key in c.edges:
            assert is_permutation_matrix(c.edges[key].rank), key


def test_exhaustive_n2_entries_up_to_3():
    # brute-force oracle: search all candidate inverses with entries <= 3
    def brute_force_invertible(m):
        for binv in itertools.product(range(4), repeat=4):
            b = np.array(binv).reshape(2, 2)
            if (m @ b == np.eye(2)).all() and (b @ m == np.eye(2)).all():
                return True
        return False

    accepted = []
    for entries in itertools.product(range(4), repeat=4):
        m = np.array(entries).reshape(2, 2)
        ok = is_permutation_matrix(m)
        assert ok == brute_force_invertible(m), m
        if ok:
            accepted.append(m.tolist())
    assert sorted(accepted) == [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]


def test_unimodular_but_not_equivalence():
    for k in range(1, 6):
        a = np.array([[1, 1], [k - 1, k]])
        assert int_det(a) == 1
        assert not is_permutation_matrix(a)


def test_nonsquare_rejected():
    assert not is_permutation_matrix([[1, 0, 0], [0, 1, 0]])


def test_duplicate_column_support_rejected():
    assert not is_permutation_matrix([[1, 0], [1, 0]])


def test_accepted_matrices_have_unimodular_det():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.integers(0, 3, size=(n, n))
        if is_permutation_matrix(a):
            assert abs(int_det(a)) == 1


def test_quadruple_consistency_synthetic():
    # 4 charts, all sharing one point; identity permutations; coboundary lines
    center = ((0.0, 0.5),)
    charts = [Chart(f"q{i}", center) for i in range(4)]
    ids = [c.id for c in charts]
    edges = [(ids[i], ids[j]) for i in range(4) for j in range(4) if i != j]
    triangles = [(ids[i], ids[j], ids[k])
                 for i in range(4) for j in range(4) for k in range(4)
                 if len({i, j, k}) == 3]
    quadruples = [tuple(ids)]
    nerve = Nerve(charts, edges, triangles, quadruples)
    cover = cover_of(nerve)
    rng = np.random.default_rng(3)
    pot = {(cid, i): rng.integers(-2, 3, size=1)
           for cid in ids for i in range(cover.n)}
    lines = {}
    for key, u in cover.transitions.items():
        a, b = key
        for i in range(cover.n):
            lines[(key, i)] = LineClass(tuple(pot[(a, i)] - pot[(b, u[i])]))
    c = assemble(cover, lines, 1)
    assert check_triple(c, nerve).passed
    assert check_quadruple(c, nerve).passed

    # corrupt one quadruple-relevant line and watch the quadruple check fail
    key = (ids[0], ids[3])
    c.edges[key].lines[0][list(cover.transitions[key])[0]] = LineClass((9,))
    rep = check_quadruple(c, nerve)
    assert not rep.passed
    assert "quadruple" in rep.failures()[0].location
