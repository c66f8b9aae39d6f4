import itertools

import numpy as np
import pytest

from branekit.bdr import (
    BDRCocycle,
    _compose,
    assemble,
    check_det,
    check_quadruple,
    check_triple,
    int_det,
    is_permutation_matrix,
)
from branekit.errors import InputError, ShapeMismatch
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


def zero_lines(cover, generators):
    return np.zeros((len(cover.transitions), cover.n, generators), dtype=int)


def coboundary_lines(cover, rng, generators=2, low=-3):
    """L_i^{ab} = phi_a(i) - phi_{u(i)}^b, which always satisfies the
    triangle additivity; (E, n, G) in `cover.keys` order."""
    nerve = cover.nerve
    phi = {cid: rng.integers(low, -low + 1, size=(cover.n, generators))
           for cid in nerve.chart_order}
    return np.array([phi[a] - phi[b][u] for (a, b), u in zip(cover.keys, cover.transitions)])


def one_point_nerve(ids, edges, triangles=(), quadruples=()):
    center = ((0.0, 0.5),)
    return Nerve([Chart(c, center) for c in ids], edges, triangles, quadruples)


def test_int_det():
    assert int_det([[1, 1], [0, 1]]) == 1
    assert int_det([[2, 0], [0, 1]]) == 2
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    rng = np.random.default_rng(0)
    stack = rng.integers(-4, 5, size=(20, 4, 4))
    for m, d in zip(stack, int_det(stack)):
        assert int_det(m) == d == round(np.linalg.det(m))
    # a zero column below the first pivot, and a determinant beyond int64
    assert int_det([[0, 0, 1], [0, 2, 0], [0, 0, 3]]) == 0
    big = 2 ** 40
    assert int_det([[big, 1], [1, big]]) == big * big - 1


def test_assemble_identity_and_swap():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, zero_lines(cover, 1))
    assert check_det(c).passed
    assert c.keys == cover.keys
    for rank, u in zip(c.rank, cover.transitions):
        assert rank[np.arange(cover.n), u].tolist() == [1] * cover.n
        assert rank.sum() == cover.n


def test_assemble_swap_positions():
    # hand-built cover-like object: one edge with the transposition
    nerve = disk_nerve()
    cover = cover_of(nerve)
    key = cover.keys[0]
    cover.transitions[0] = (1, 0)
    lines = zero_lines(cover, 1)
    lines[0] = [[1], [0]]
    c = assemble(cover, lines)
    rank, lines, absent = c.edges([key])
    assert not absent[0]
    assert rank[0].tolist() == [[0, 1], [1, 0]]
    assert lines[0, 0, 1].tolist() == [1] and lines[0, 1, 0].tolist() == [0]


def test_assemble_missing_line():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    with pytest.raises(ShapeMismatch, match="lines have shape"):
        assemble(cover, zero_lines(cover, 1)[:, :1])


def test_check_det_failures():
    nerve = one_point_nerve("ab", [("a", "b")])
    c = BDRCocycle(nerve, [("a", "b")], [[[2, 0], [0, 1]]], np.zeros((1, 2, 2, 1)))
    report = check_det(c)
    assert not report.passed
    assert "det=2" in report.records[0].detail


def test_unipotent_det_passes():
    nerve = one_point_nerve("ab", [("a", "b")])
    assert check_det(BDRCocycle(nerve, [("a", "b")], [[[1, 1], [0, 1]]],
                                np.zeros((1, 2, 2, 1)))).passed


def test_triple_law_from_disk_cover():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, zero_lines(cover, 2))
    assert check_triple(c).passed
    assert check_quadruple(c).passed  # vacuous


def test_triple_law_with_coherent_coboundary_lines():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, coboundary_lines(cover, np.random.default_rng(1)))
    assert check_det(c).passed
    assert check_triple(c).passed, str(check_triple(c))


def test_triangle_edges_stored_reversed_use_the_strict_inverse():
    # the disk nerve with every edge stored as (b, a): triangles (a, b, g) read
    # each edge through the inverse of its permutation-matrix data
    flipped = disk_nerve()
    flipped = Nerve([flipped.charts[cid] for cid in flipped.chart_order],
                    [(b, a) for a, b in flipped.edges], flipped.triangles)
    cover = cover_of(flipped)
    c = assemble(cover, coboundary_lines(cover, np.random.default_rng(2)))
    assert check_triple(c).passed, str(check_triple(c))
    key = c.keys[0]
    rank, lines, absent = c.edges([key[::-1]])
    assert not absent[0]
    assert np.array_equal(rank[0], c.rank[0].T)
    held = c.rank[0] > 0
    assert np.array_equal(lines[0].swapaxes(0, 1)[held], -c.lines[0][held])
    # a non-permutation rank matrix has no strict inverse
    c.rank[0] = [[1, 1], [0, 1]]
    assert c.edges([key[::-1], key])[2].tolist() == [True, False]
    tri = next(t for t in flipped.triangles if (t[0], t[1]) == key[::-1])
    rec = next(r for r in check_triple(c).records if r.location == f"triangle {tri}")
    assert (rec.name, rec.passed, rec.residual) == ("triple_rank", False, None)
    assert rec.detail == f"cocycle has no data for edge {key[::-1]}"


def test_triple_detects_corrupted_line():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    tri = nerve.triangles[0]
    lines = zero_lines(cover, 1)
    lines[cover.keys.index((tri[0], tri[1])), 0] = 7
    c = assemble(cover, lines)
    report = check_triple(c)
    assert not report.passed
    fail = report.failures()[0]
    assert "triangle" in fail.location
    assert fail.detail.startswith("mismatched entries [(0, ")


def test_circle_cover_assembles_and_passes():
    nerve = circle_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, zero_lines(cover, 1))
    assert check_det(c).passed
    assert check_triple(c).passed   # no triangles on a circle: vacuous
    assert check_quadruple(c).passed


def test_assembled_ranks_are_two_vector_equivalences():
    for nerve in (disk_nerve(), circle_nerve()):
        cover = cover_of(nerve)
        c = assemble(cover, zero_lines(cover, 1))
        assert is_permutation_matrix(c.rank).all()
        assert [is_permutation_matrix(r) for r in c.rank] == [True] * len(c.keys)


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


def tetrahedron():
    """4 charts, all sharing one point; every ordered edge and triangle."""
    ids = [f"q{i}" for i in range(4)]
    return one_point_nerve(ids, list(itertools.permutations(ids, 2)),
                           list(itertools.permutations(ids, 3)), [tuple(ids)])


def test_quadruple_consistency_synthetic():
    # identity permutations; coboundary lines
    nerve = tetrahedron()
    cover = cover_of(nerve)
    c = assemble(cover, coboundary_lines(cover, np.random.default_rng(3), 1, low=-2))
    assert check_triple(c).passed
    assert check_quadruple(c).passed

    # corrupt one quadruple-relevant line and watch the quadruple check fail
    e = c.keys.index(("q0", "q3"))
    c.lines[e, 0, cover.transitions[e, 0]] = 9
    rep = check_quadruple(c)
    assert not rep.passed
    assert "quadruple" in rep.failures()[0].location


def per_entry_product(first, second):
    """The product rule of `_compose` for one pair of matrices, entry by
    entry: (rank, lines, defined, conflict), lines set where defined."""
    (r1, l1, d1), (r2, l2, d2) = first, second
    n = len(r1)
    lines, defined, conflict = np.zeros_like(l1), np.zeros((n, n), bool), np.zeros((n, n), bool)
    for i in range(n):
        for k in range(n):
            paths = [j for j in range(n) if r1[i, j] > 0 and r2[j, k] > 0]
            if not paths:
                continue
            sums = {tuple(l1[i, j] + l2[j, k]) for j in paths}
            defined[i, k] = len(sums) == 1 and all(d1[i, j] and d2[j, k] for j in paths)
            conflict[i, k] = not defined[i, k]
            lines[i, k] = l1[i, paths[0]] + l2[paths[0], k]
    return r1 @ r2, lines, defined, conflict


@pytest.mark.parametrize("n,generators", [(1, 1), (2, 0), (2, 2), (3, 1), (4, 2)])
def test_batched_product_equals_the_per_entry_rule(n, generators):
    rng = np.random.default_rng(10 * n + generators)

    def stack(count=300):
        return (rng.choice([0, 0, 1, 1, 2], size=(count, n, n)),
                rng.integers(-1, 2, size=(count, n, n, generators)),
                rng.random((count, n, n)) < 0.8)

    first, second = stack(), stack()
    (rank, lines, defined), conflict = _compose(first, second)
    for e in range(len(rank)):
        want = per_entry_product(*[tuple(x[e] for x in side) for side in (first, second)])
        assert np.array_equal(rank[e], want[0])
        assert np.array_equal(defined[e], want[2]) and np.array_equal(conflict[e], want[3])
        assert np.array_equal(lines[e][defined[e]], want[1][defined[e]])


# Edge data of the conflict cases: R_ab R_bg = [[2, 1], [1, 1]], whose entry
# (0, 0) has the two paths 0 -> 0 -> 0 and 0 -> 1 -> 0.
AB = [[1, 1], [0, 1]], [[[0], [0]], [[0], [0]]]
BG = [[1, 0], [1, 1]], [[[0], [0]], [[1], [0]]]


def conflict_cocycle(gd_rank):
    """Edges (a, b), (b, g) as above, (g, d) of rank `gd_rank` with zero
    lines, and (a, d) of rank R_ab R_bg gd_rank with lines that agree with
    every entry but the conflict, on the one quadruple (a, b, g, d)."""
    ids = "abgd"
    keys = [("a", "b"), ("b", "g"), ("g", "d"), ("a", "d")]
    nerve = one_point_nerve(ids, keys, quadruples=[tuple(ids)])
    ad = np.array(AB[0]) @ np.array(BG[0]) @ np.array(gd_rank)
    rank = [AB[0], BG[0], gd_rank, ad]
    lines = [AB[1], BG[1], np.zeros((2, 2, 1)), [[[0], [0]], [[1], [0]]]]
    return BDRCocycle(nerve, keys, rank, lines)


def test_quadruple_through_a_conflicting_composite_fails():
    # the inner composite R_ab R_bg has a conflict at (0, 0), and entry (0, 0)
    # of the outer composite runs through it
    report = check_quadruple(conflict_cocycle([[1, 0], [0, 1]]))
    rec, = report.records
    assert (rec.name, rec.passed, rec.location) == ("quadruple", False,
                                                    "quadruple ('a', 'b', 'g', 'd')")
    assert rec.residual == 1.0 and rec.detail == "mismatched entries [(0, 0)]"


def test_quadruple_conflict_no_outer_path_uses_passes():
    # (g, d) has a zero row 0, so no outer path runs through entry (0, 0) of
    # R_ab R_bg
    report = check_quadruple(conflict_cocycle([[0, 0], [0, 1]]))
    assert report.passed, str(report)
    assert report.records[0].location == "quadruple ('a', 'b', 'g', 'd')"


def test_edges_reads_stored_inverse_and_absent_rows_in_one_call():
    nerve = one_point_nerve("abc", [("a", "b"), ("b", "c")])
    lines = np.arange(16).reshape(2, 2, 2, 2)
    c = BDRCocycle(nerve, [("a", "b"), ("b", "c")], [[[0, 1], [1, 0]], [[2, 0], [0, 1]]], lines)
    rank, got, absent = c.edges([("a", "b"), ("b", "a"), ("c", "b"), ("a", "c")])
    assert absent.tolist() == [False, False, True, True]
    assert np.array_equal(rank[:2], [[[0, 1], [1, 0]]] * 2)
    assert np.array_equal(got[0], lines[0])
    assert np.array_equal(got[1], -lines[0].swapaxes(0, 1))
    assert not rank[2:].any() and not got[2:].any()


def test_constructor_refuses_shapes_negative_ranks_unknown_and_repeated_edges():
    nerve = one_point_nerve("ab", [("a", "b")])
    zero = np.zeros((1, 2, 2, 1))
    with pytest.raises(ShapeMismatch, match="expected"):
        BDRCocycle(nerve, [("a", "b")], np.eye(2)[None], zero[:, :1])
    with pytest.raises(ShapeMismatch, match=r"edge \('a', 'b'\): rank matrix must be 2x2"):
        BDRCocycle(nerve, [("a", "b")], [[[1, 0], [0, -1]]], zero)
    with pytest.raises(InputError, match=r"edge \('a', 'x'\) names unknown charts"):
        BDRCocycle(nerve, [("a", "x")], np.eye(2)[None], zero)
    with pytest.raises(InputError, match=r"edge \('a', 'b'\) is given twice"):
        BDRCocycle(nerve, [("a", "b"), ("a", "b")], [np.eye(2)] * 2, np.zeros((2, 2, 2, 1)))


def test_no_generators_and_no_edges():
    nerve = disk_nerve()
    cover = cover_of(nerve)
    c = assemble(cover, zero_lines(cover, 0))
    assert c.lines.shape == (len(cover.keys), cover.n, cover.n, 0)
    assert check_det(c).passed and check_triple(c).passed
    # no data for a nerve edge is refused; a triangle side that is no nerve
    # edge fails its record
    with pytest.raises(InputError, match=r"no edge data for edge \('p0', 'p1'\)"):
        BDRCocycle(nerve, [], np.zeros((0, 2, 2)), np.zeros((0, 2, 2, 0)))
    empty = BDRCocycle(one_point_nerve("ab", []), [], np.zeros((0, 2, 2)), np.zeros((0, 2, 2, 0)))
    assert [r.detail for r in check_det(empty).records] == ["no edges; vacuous"]
    open_triangle = one_point_nerve("abg", [("a", "b"), ("b", "g")], [("a", "b", "g")])
    c = BDRCocycle(open_triangle, open_triangle.edges, [np.eye(2)] * 2, np.zeros((2, 2, 2, 0)))
    assert [r.detail for r in check_triple(c).records] == [
        "cocycle has no data for edge ('a', 'g')"]


def test_rank_products_do_not_wrap():
    # (2**32)**2 wraps to 0 in int64, which would match a zero entry of R_ag
    nerve = one_point_nerve("abg", [("a", "b"), ("b", "g"), ("a", "g")], [("a", "b", "g")])
    big = [[2 ** 32, 0], [0, 1]]
    c = BDRCocycle(nerve, nerve.edges, [big, big, [[0, 0], [0, 1]]], np.zeros((3, 2, 2, 1)))
    rank_record = check_triple(c).records[0]
    assert (rank_record.name, rank_record.passed) == ("triple_rank", False)
    assert rank_record.residual == 2.0 ** 64
