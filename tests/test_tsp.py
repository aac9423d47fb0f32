import re
from math import factorial

import numpy as np
import pytest

from permcirc.checks import check_tour_costs
from permcirc.limits import TooLarge
from permcirc.perms import all_perms, identity, unrank
from permcirc.tsp import (
    TourCost,
    TspInstance,
    load_instance,
    optimum,
    random_instance,
    save_instance,
    tour_cost,
)


def unit_instance(n):
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return TspInstance(w)


def asymmetric_3():
    w = np.full((3, 3), 9.0)
    w[0, 1], w[1, 2], w[2, 0] = 1.0, 2.0, 3.0
    np.fill_diagonal(w, 0.0)
    return TspInstance(w)


def test_unit_weights_identity():
    assert tour_cost(unit_instance(3), identity(3)) == 3.0


def test_asymmetric_hand_sum():
    assert tour_cost(asymmetric_3(), identity(3)) == 6.0


def test_reduced_formula_n3():
    inst = asymmetric_3()
    # effective degree 2; id visits city 1 then city 2, with city 3 as start
    expected = inst.w[2, 0] + inst.w[0, 1] + inst.w[1, 2]
    assert tour_cost(inst, identity(2), reduced=True) == expected


def test_degree_mismatch_with_reduced_flag():
    inst = unit_instance(4)
    with pytest.raises(ValueError):
        tour_cost(inst, identity(4), reduced=True)
    with pytest.raises(ValueError):
        tour_cost(inst, identity(3), reduced=False)


def test_optimum_all_equal_weights():
    inst = unit_instance(5)
    tour, cost = optimum(inst)
    assert cost == 5.0
    assert tour == identity(5)  # rank-0 witness on ties


def test_optimum_asymmetric():
    tour, cost = optimum(asymmetric_3())
    assert cost == 6.0
    assert tour == identity(3)


def test_optimum_bounds_random_tours():
    inst = random_instance(6, seed=2)
    _, best = optimum(inst)
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = tuple(rng.permutation(6).tolist())
        assert best <= tour_cost(inst, p) + 1e-12


def test_optimum_matches_streaming_enumeration():
    inst = random_instance(5, seed=9)
    tour, cost = optimum(inst)
    brute = min((tour_cost(inst, p), p) for p in all_perms(5))
    assert brute == (cost, tour)


def test_optimum_cap():
    with pytest.raises(TooLarge, match="^permutation table of degree 12 needs 8.9 GiB; cap is degree 11$"):
        optimum(unit_instance(13), reduced=True)


def test_random_instance_reproducible():
    a = random_instance(9, seed=4)
    b = random_instance(9, seed=4)
    assert a.w.shape == (9, 9)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, random_instance(9, seed=5).w)
    off = ~np.eye(9, dtype=bool)
    assert ((a.w[off] >= 1.0) & (a.w[off] <= 10.0)).all()


def test_random_instance_range_validation():
    with pytest.raises(ValueError):
        random_instance(4, seed=0, lo=0.0)
    with pytest.raises(ValueError):
        random_instance(4, seed=0, lo=5.0, hi=2.0)
    inf = float("inf")
    for lo, hi in ((1.0, inf), (inf, inf), (-inf, 1.0)):
        with pytest.raises(ValueError, match=f"^need finite 0 < lo <= hi, got lo={lo}, hi={hi}$"):
            random_instance(4, seed=0, lo=lo, hi=hi)


@pytest.mark.parametrize("n", [0, -1, -3])
def test_city_counts_below_one_are_refused(n, tmp_path):
    with pytest.raises(ValueError, match=f"need at least 1 city, got {n}$"):
        random_instance(n, seed=0)
    path = tmp_path / "inst.txt"
    path.write_text(f"n {n}\ndirected 1\n")
    message = f"{path}: bad city count: need at least 1 city, got {n}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_instance(path)


def test_load_refuses_a_city_count_above_the_cap(tmp_path):
    # the header alone is refused, before any weight row is read
    path = tmp_path / "inst.txt"
    path.write_text("n 5000\ndirected 1\n")
    with pytest.raises(TooLarge, match="^instance of 5000 cities needs 0.2 GiB; cap is 4096 cities$"):
        load_instance(path)


def test_save_load_roundtrip_exact(tmp_path):
    inst = random_instance(9, seed=11)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.n == 9
    assert np.array_equal(back.w, inst.w)


def test_load_rejects_bad_weight(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 2\ndirected 1\n0.0 -1.0\n2.0 0.0\n")
    with pytest.raises(ValueError, match="positive"):
        load_instance(path)
    path.write_text("n 2\ndirected 1\n0.0 x\n2.0 0.0\n")
    with pytest.raises(ValueError, match="bad weight"):
        load_instance(path)
    path.write_text("n 3\ndirected 1\n0.0 1.0 1.0\n")
    with pytest.raises(ValueError, match="weight rows"):
        load_instance(path)
    path.write_text("n 2\ndirected 1\n0.0 inf\n2.0 0.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: field 2: weight must be finite")):
        load_instance(path)


def test_load_checks_directed_flag(tmp_path):
    path = tmp_path / "d.tsp"
    path.write_text("n 2\ndirected 1\n0.0 1.0\n2.0 0.0\n")
    assert load_instance(path).n == 2
    path.write_text("n 2\ndirected 0\n0.0 2.0\n2.0 0.0\n")
    assert load_instance(path).n == 2
    for flag in ("banana", "2", "-1", "true"):
        path.write_text(f"# comment\nn 2\ndirected {flag}\n0.0 1.0\n2.0 0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: directed must be 0 or 1")):
            load_instance(path)


def test_undirected_instance_must_be_symmetric(tmp_path):
    path = tmp_path / "u.tsp"
    path.write_text("n 3\ndirected 0\n0 1 2\n3 0 1\n1 1 0\n")
    message = f"{path}:4: field 1: weight 3.0 differs from 1.0 in row 1, field 2, with directed 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_instance(path)
    path.write_text("n 3\ndirected 1\n0 1 2\n3 0 1\n1 1 0\n")
    assert load_instance(path).w[1, 0] == 3


def test_instance_validation():
    with pytest.raises(ValueError):
        TspInstance(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TspInstance(np.ones((2, 3)))
    for bad in (np.inf, np.nan, -np.inf):
        w = np.ones((3, 3))
        np.fill_diagonal(w, 0.0)
        w[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            TspInstance(w)
        np.fill_diagonal(w, bad)
        w[0, 2] = 1.0
        with pytest.raises(ValueError, match="finite"):
            TspInstance(w)


def test_instance_refuses_overflowing_tour_costs():
    w = np.full((3, 3), 1e308)
    np.fill_diagonal(w, 0.0)
    with pytest.raises(ValueError, match="^weights too large"):
        TspInstance(w)
    # the bound is the largest weight out of each city, summed; a tour
    # never takes the diagonal
    w = np.full((3, 3), 5e307)
    np.fill_diagonal(w, 1.7e308)
    inst = TspInstance(w)
    assert np.isfinite(TourCost(inst).vector()).all()
    assert TourCost(inst, reduced=True).vector().max() == pytest.approx(1.5e308)


def test_cost_vector_matches_scalar():
    for reduced in (False, True):
        inst = random_instance(6, seed=8)
        cost = TourCost(inst, reduced)
        vec = cost.vector()
        assert vec.shape == (factorial(cost.degree),)
        for r in range(0, len(vec), 7):
            assert vec[r] == cost(unrank(r, cost.degree))


def test_cyclic_rotation_invariance():
    ok, detail = check_tour_costs(rotation_seeds=(13,), optimum_degrees=())
    assert ok, detail


@pytest.mark.parametrize("n", range(3, 8))
def test_reduced_equals_full_optimum(n):
    ok, detail = check_tour_costs(rotation_seeds=(), optimum_degrees=(n,))
    assert ok, detail
