"""Branch maps: mixing weights, range separation, incidence systems."""

import dataclasses
import itertools
import random
from fractions import Fraction

import oracle
import pytest
import sympy

from ksnet.errors import DomainError, InputError, ParameterError
from ksnet.hashmaps import (
    SERIES_TERMS_CAP,
    build_incidence,
    certify_separation,
    check_ranges,
    lambda_partial,
    make_params,
    psi_eval,
    separation_check,
)
from ksnet.inner import default_inner_spec
from ksnet.network import assemble, load, save
from ksnet.outer import SampleSet, fit_exact
from ksnet.rationals import grid_points

SPEC6 = default_inner_spec(6)
P26 = make_params(2, 6)


def _random_points(seed, n, d, bits=50):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.getrandbits(bits), 2**bits) for _ in range(d)))
    return sorted(pts)


def test_constants_d2_gamma6():
    assert P26.d == 2 and P26.gamma == 6
    assert P26.a == Fraction(1, 30)
    assert P26.b == (0, 5, 10, 15, 20)
    assert P26.branch_count == 5
    assert P26.lam[0] == 1 and P26.lam_tails[0] == 0
    assert P26.series_terms == (0, 4)


def test_lambda_series_frozen_values():
    # p=2, d=2, gamma=6: exponents 1, 3, 7, 15, ...
    params = make_params(2, 6, Fraction(1, 10**10))
    assert (params.lam[1], params.series_terms[1]) == (Fraction(47953, 279936), 3)
    params = make_params(2, 6, Fraction(1, 10**18))
    assert (params.lam[1], params.series_terms[1]) == (Fraction(80542626049, 470184984576), 4)
    assert params.lam[1] == sum(Fraction(1, 6**e) for e in (1, 3, 7, 15))
    assert (params.lam[0], params.lam_tails[0], params.series_terms[0]) == (Fraction(1), Fraction(0), 0)


def test_lambda_series_d3():
    params = make_params(3, 8)
    assert params.a == Fraction(1, 56)
    assert params.b == (0, 7, 14, 21, 28, 35, 42)
    assert params.lam[1] == Fraction(68853694465, 549755813888)
    assert params.lam[1] == sum(Fraction(1, 8**e) for e in (1, 4, 13))
    assert params.lam[2] == Fraction(262145, 16777216)
    assert params.lam[2] == sum(Fraction(1, 8**e) for e in (2, 8))
    assert params.series_terms == (0, 3, 2)


def test_series_terms_cap_is_the_most_make_params_picks():
    """d = 2, gamma = 6 grows the exponent slowest; its 11th term is the last whose
    tail bound a model file can hold, and a smaller tolerance is refused."""
    assert make_params(2, 6, Fraction("1e-3186")).series_terms == (0, SERIES_TERMS_CAP) == (0, 11)
    with pytest.raises(ParameterError, match="beyond 4300 digits"):
        make_params(2, 6, Fraction("1e-3187"))
    for terms in (4, SERIES_TERMS_CAP):
        value, tail = lambda_partial(2, 2, 6, terms)
        params = make_params(2, 6, tail)
        assert (params.lam[1], params.lam_tails[1], params.series_terms[1]) == (value, tail, terms)
    for p, terms in ((1, 1), (2, 0), (2, SERIES_TERMS_CAP + 1), (2, -1)):
        with pytest.raises(ParameterError, match="series terms"):
            lambda_partial(p, 2, 6, terms)


def test_replaced_term_counts_derive_their_own_weights():
    """lam and lam_tails follow series_terms, so replaced params save a model that loads."""
    params = dataclasses.replace(P26, series_terms=(0, 3))
    assert params.lam == (1, lambda_partial(2, 2, 6, 3)[0]) != P26.lam
    assert params.lam_tails == (0, lambda_partial(2, 2, 6, 3)[1])
    samples = SampleSet(points=((Fraction(1, 3), Fraction(2, 7)), (Fraction(1, 2), Fraction(1))),
                        targets=(Fraction(1), Fraction(-2)))
    outer, report = fit_exact(samples, params, SPEC6)
    data = save(assemble(SPEC6, params, outer, meta={"depth": report.depth}))
    model = load(data)
    assert model.params == params and model.params.lam == params.lam
    assert save(model) == data


def test_lambda_tail_brackets_refinement():
    """Tightening the tolerance moves the value by at most the coarse tail."""
    coarse_params, fine_params = make_params(2, 6, Fraction(1, 10**6)), make_params(2, 6, Fraction(1, 10**24))
    coarse, coarse_tail = coarse_params.lam[1], coarse_params.lam_tails[1]
    fine, fine_tail = fine_params.lam[1], fine_params.lam_tails[1]
    assert coarse < fine <= coarse + coarse_tail
    assert fine_tail <= Fraction(1, 10**24)
    assert coarse_tail <= Fraction(1, 10**6)


def test_make_params_rejects():
    with pytest.raises(ParameterError):
        make_params(1, 6)
    with pytest.raises(ParameterError, match="2d\\+2 = 6"):
        make_params(2, 5)
    # lam is derived from the series term counts, so it cannot be given
    with pytest.raises(TypeError):
        dataclasses.replace(P26, lam=(Fraction(1, 2), P26.lam[1]))
    for terms in ((0, 0), (1, 4), (0, SERIES_TERMS_CAP + 1), (0,)):
        with pytest.raises(ParameterError):
            dataclasses.replace(P26, series_terms=terms)


def test_psi_at_corners():
    assert psi_eval(P26, SPEC6, (Fraction(0), Fraction(0)), 0, 30) == (0, 0)
    # phi is exact at 1, so only the series tail remains
    assert psi_eval(P26, SPEC6, (Fraction(1), Fraction(1)), 0, 30) == (1 + P26.lam[1], P26.lam_tails[1])


def test_psi_window_shrinks_and_nests():
    x = (Fraction(1, 3), Fraction(2, 7))
    prev, prev_bound = psi_eval(P26, SPEC6, x, 2, 10)
    for depth in (20, 40, 80):
        cur, bound = psi_eval(P26, SPEC6, x, 2, depth)
        # deeper truncation refines the window from inside
        assert prev <= cur and cur + bound <= prev + prev_bound
        assert bound < prev_bound
        prev, prev_bound = cur, bound


def test_psi_offsets_by_branch_base():
    x = (Fraction(1, 4), Fraction(3, 4))
    values = [psi_eval(P26, SPEC6, x, q, 30) for q in range(5)]
    for q, (value, bound) in enumerate(values):
        assert 5 * q <= value <= value + bound <= 5 * q + 4


def test_psi_validation():
    with pytest.raises(DomainError):
        psi_eval(P26, SPEC6, (Fraction(1, 2),), 0, 30)
    with pytest.raises(DomainError):
        psi_eval(P26, SPEC6, (Fraction(1, 2), Fraction(3, 2)), 0, 30)
    with pytest.raises(DomainError):
        psi_eval(P26, SPEC6, (Fraction(1, 2), Fraction(1, 2)), 5, 30)
    # a bool would read branch 1, and a float or a str would fail with a bare TypeError
    for q in (True, 1.5, "1"):
        with pytest.raises(DomainError) as caught:
            psi_eval(P26, SPEC6, (Fraction(1, 2), Fraction(1, 2)), q, 30)
        assert str(caught.value) == f"branch index must be an integer in 0..4, got {q!r}"


def test_check_ranges_level_2():
    report = check_ranges(P26, SPEC6, probe_level=2, depth=30)
    assert not report["violations"]
    assert Fraction(report["min_gap"]) >= 1
    assert report["points_checked"] == 37**2
    for q, br in enumerate(report["branches"]):
        lo, hi = br["interval"]
        assert lo == 5 * q and hi == 5 * q + 4
        assert lo <= Fraction(br["observed"][0]) <= Fraction(br["observed"][1]) <= hi
    assert report["passed"] is True and len(report["branches"]) == 5
    for level in (0, -1, 20.5, True, "30"):
        with pytest.raises(DomainError, match=f"level must be an integer >= 1, got {level!r}"):
            check_ranges(P26, SPEC6, probe_level=level, depth=30)


def test_incidence_single_point():
    system = build_incidence(P26, SPEC6, [(Fraction(1, 3), Fraction(2, 3))], 30)
    assert system.n_points == 1
    assert system.knot_count == 5
    assert oracle.row_sums(system) == [5]
    assert oracle.dense(system) == [[1, 1, 1, 1, 1]]


def test_incidence_rejects_coincident_points():
    p = (Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(InputError, match="0 and 1"):
        build_incidence(P26, SPEC6, [p, p], 30)


def test_incidence_row_sums_and_shape():
    pts = _random_points(0, 40, 2)
    system = build_incidence(P26, SPEC6, pts, 30)
    assert system.n_points == 40
    assert oracle.row_sums(system) == [5] * 40
    assert system.knot_count <= 200
    dense = oracle.dense(system)
    assert all(set(row) <= {0, 1} for row in dense)


def test_every_incidence_row_hits_one_knot_per_branch():
    """The invariant the fits rely on (IncidenceSystem): each row is an increasing
    tuple of 2d+1 knot ids, one in each branch, also where truncation makes points share knots."""
    grid = list(itertools.product(grid_points(2, 6), repeat=2))
    p38, spec8 = make_params(3, 8), default_inner_spec(8)
    cases = [
        (P26, SPEC6, _random_points(0, 40, 2), 30),
        (P26, SPEC6, _random_points(3, 200, 2, bits=4), 1),
        (P26, SPEC6, grid, 30),
        (P26, SPEC6, grid, 1),
        (p38, spec8, _random_points(4, 60, 3), 30),
        (p38, spec8, list(itertools.product(grid_points(1, 8), repeat=3)), 1),
    ]
    shared = 0
    for params, inner, points, depth in cases:
        system = build_incidence(params, inner, points, depth)
        knot_branch = oracle.knot_branches(system.starts)
        for row in oracle.rows(system):
            assert row == tuple(sorted(set(row)))
            assert [knot_branch[col] for col in row] == list(range(params.branch_count))
        shared += system.knot_count < params.branch_count * system.n_points
    assert shared >= 2


def test_random_points_separate():
    pts = _random_points(1, 50, 2)
    system = build_incidence(P26, SPEC6, pts, 30)
    verdict = separation_check(system)
    assert verdict.separated
    assert verdict.rank == 50
    assert verdict.witness is None


def test_rank_matches_sympy_on_small_system():
    pts = _random_points(2, 12, 2)
    system = build_incidence(P26, SPEC6, pts, 30)
    verdict = separation_check(system)
    assert verdict.rank == sympy.Matrix(oracle.dense(system)).rank()


def test_near_duplicates_collide_then_split():
    """Points equal through depth 40 share rows at depth 30 and split at 60."""
    x = (Fraction(1, 3), Fraction(2, 7))
    y = tuple(c + Fraction(1, 6**40) for c in x)
    system = build_incidence(P26, SPEC6, [x, y], 30)
    verdict = separation_check(system)
    assert not verdict.separated
    assert verdict.witness == (Fraction(1), Fraction(-1))

    system, verdict = certify_separation(P26, SPEC6, [x, y], 30)
    assert verdict.separated
    assert verdict.retries == 1
    assert verdict.depth == 60
    assert system.depth == 60


def test_certify_separation_gives_up_at_cap():
    # 1/3 + q/30 has no digit 5 anywhere, so the bump past depth 240 never
    # carries into the inspected prefix and every retry sees equal rows
    x = (Fraction(1, 3), Fraction(1, 3))
    y = tuple(c + Fraction(1, 6**241) for c in x)
    _, verdict = certify_separation(P26, SPEC6, [x, y], 30)
    assert not verdict.separated
    assert verdict.depth == 240
    assert verdict.retries == 3
    assert verdict.witness == (Fraction(1), Fraction(-1))
    doc = verdict.to_jsonable()
    assert doc["witness"] == ["1", "-1"]


def test_d3_incidence_separates():
    params = make_params(3, 8)
    spec = default_inner_spec(8)
    pts = _random_points(3, 15, 3)
    system = build_incidence(params, spec, pts, 25)
    verdict = separation_check(system)
    assert verdict.separated
    assert oracle.row_sums(system) == [7] * 15
