"""Per-component solves against the global oracles, and where elimination runs.

The library finds the connected components of the points that share knots,
from the branch columns, and fills every other point in closed form;
tests/oracle.py keeps the global elimination, the global gram solve and the
global damped loop.  Ranks, witnesses, knot values, histories and collision
counts must be identical.
"""

import math
import random
from fractions import Fraction

import oracle
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ksnet import hashmaps, linsolve, outer
from ksnet.errors import InternalInvariantError
from ksnet.hashmaps import build_incidence, certify_separation, make_params
from ksnet.inner import default_inner_spec
from ksnet.linsolve import left_kernel_vector
from ksnet.network import assemble, save
from ksnet.outer import (
    SampleSet,
    _min_norm_solution,
    fit_exact,
    fit_iterative,
    grid_samples,
    run_damped_iteration,
)

SPEC6 = default_inner_spec(6)
P26 = make_params(2, 6)
BITS = 40


def _kernel(rows):
    """left_kernel_vector of the stacked rows, over the oracle's row components."""
    return left_kernel_vector(len(rows), oracle.row_components(rows))


def _coord(draw, top=2**BITS):
    return Fraction(draw(st.integers(min_value=0, max_value=top)), 2**BITS)


@st.composite
def mixed_systems(draw):
    """Lone random points, near-twin clusters and boundary straddlers, shuffled.

    Twins differ below the truncation depth, so they hit the same knots and
    make rows dependent.  Straddlers sit on both sides of a depth-digit
    boundary, so they differ in branch 0 only and share the other knots.
    """
    depth = draw(st.integers(min_value=2, max_value=6))
    step = Fraction(1, 6 ** (depth + 3))
    points = set()
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        points.add((_coord(draw), _coord(draw)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            centre = (_coord(draw, 2**BITS - 2**31), _coord(draw, 2**BITS - 2**31))
            offsets = draw(st.lists(
                st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=4, unique=True))
            points.update((centre[0] + j * step, centre[1] + k * step) for j, k in offsets)
        else:
            edge = Fraction(draw(st.integers(min_value=1, max_value=6**depth - 1)), 6**depth)
            other = _coord(draw)
            points.update({(edge - step, other), (edge + step, other)})
    if not points:
        points.add((_coord(draw), _coord(draw)))
    order = draw(st.permutations(sorted(points)))
    system = build_incidence(P26, SPEC6, order, depth)
    targets = [
        Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 7))) for _ in range(system.n_points)
    ]
    return system, targets


@settings(max_examples=60, deadline=None)
@given(mixed_systems())
def test_components_are_the_oracle_union_find(case):
    """The library's finder gives the oracle's components of more than one point,
    listed by first point, each {point: row} in point order."""
    system, _ = case
    rows = oracle.rows(system)
    want = [[(j, rows[j]) for j in comp] for comp in oracle.components(system) if len(comp) > 1]
    assert [list(comp.items()) for comp in system.components] == want


sparse_rows = st.lists(
    st.sets(st.integers(0, 11), min_size=1, max_size=3).map(lambda cols: tuple(sorted(cols))), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(mixed_systems(), st.data())
def test_incidence_rank_and_witness_match_global_elimination(case, data):
    system, _ = case
    rows = list(oracle.rows(system))
    # copies of rows anywhere: a repeated row depends on its original, before or after it
    for _ in range(data.draw(st.integers(0, 2))):
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(oracle.rows(system))))
    assert _kernel(rows) == oracle.left_kernel_vector(rows)


@settings(max_examples=80, deadline=None)
@given(sparse_rows)
def test_sparse_rank_and_witness_match_global_elimination(rows):
    assert _kernel(rows) == oracle.left_kernel_vector(rows)


def test_first_dependency_in_a_later_component_wins():
    # components {0, 4} and {1, 2, 3, 5}: row 4 repeats row 0, row 5 = row 1 + row 2 - row 3
    rows = [(0,), (1, 2), (3, 4), (1, 3), (0,), (2, 4)]
    assert oracle.row_components(rows) == [{0: (0,), 4: (0,)}, {1: (1, 2), 2: (3, 4), 3: (1, 3), 5: (2, 4)}]
    rank, witness = _kernel(rows)
    assert (rank, witness) == oracle.left_kernel_vector(rows)
    assert witness == (1, 0, 0, 0, -1, 0)
    rows[4], rows[5] = rows[5], rows[4]
    assert _kernel(rows) == oracle.left_kernel_vector(rows) == (4, (0, 1, 1, -1, -1, 0))


def _random_points(seed, n, bits):
    rng = random.Random(seed)
    points = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.getrandbits(bits), 2**bits) for _ in range(2)))
    return sorted(points)


def test_large_dependent_component_matches_global_elimination():
    """160 random 6-bit points at depth 1 share knots until they form one
    dependent component: the integer elimination's rank and witness are the
    global Fraction elimination's."""
    system = build_incidence(P26, SPEC6, _random_points(1, 160, 6), 1)
    assert [len(comp) for comp in system.components] == [160]
    rank, witness = _kernel(oracle.rows(system))
    assert witness is not None
    assert (rank, witness) == oracle.left_kernel_vector(oracle.rows(system))


def _certify(points, depth, cap, full):
    """certify_separation's depths tried, system and verdict; with `full`, every
    attempt's elimination runs to the end, as it did before attempts stopped early."""
    depths = []
    with pytest.MonkeyPatch.context() as patch:
        build, kernel = hashmaps.InnerTable.incidence, hashmaps.left_kernel_vector
        patch.setattr(hashmaps.InnerTable, "incidence", lambda table, depth: depths.append(depth) or build(table, depth))
        if full:
            patch.setattr(hashmaps, "left_kernel_vector", lambda n, comps, stop: kernel(n, comps))
        system, verdict = certify_separation(P26, SPEC6, points, depth, depth_cap=cap)
    return depths, system, verdict


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.integers(2, 160), st.integers(1, 2), st.integers(1, 6), st.randoms(use_true_random=False))
def test_stopping_at_the_first_dependency_keeps_every_decision(bits, n, depth, cap, rng):
    """Attempts below the cap stop their elimination at the first dependency: the
    depths tried, the final system, and its verdict, rank and witness are those
    of full elimination at every attempt.  Random 4- to 7-bit points collide at
    depths 1 and 2 (their base-6 digits agree), and at a low cap stay dependent."""
    side = 2**bits
    cells = rng.sample(range(side**2), min(n, side**2))
    points = [(Fraction(k % side, side), Fraction(k // side, side)) for k in cells]
    assert _certify(points, depth, cap, full=False) == _certify(points, depth, cap, full=True)


def test_a_discarded_attempt_stops_at_its_first_dependency(monkeypatch):
    """160 random 6-bit points form one dependent 160-row component at depth 1:
    at the cap its elimination runs through every row for the full rank (144)
    and the witness; below the cap it ends at the first dependency, with fewer
    pivots."""
    points = _random_points(1, 160, 6)
    eliminated = []

    def spy(rows, stop=False, original=linsolve._eliminate):
        result = original(rows, stop)
        eliminated.append((len(rows), stop, len(result[0])))
        return result

    monkeypatch.setattr(linsolve, "_eliminate", spy)
    _, verdict = certify_separation(P26, SPEC6, points, 1, depth_cap=1)
    assert (verdict.separated, verdict.rank, eliminated) == (False, 144, [(160, False, 144)])
    eliminated.clear()
    system, verdict = certify_separation(P26, SPEC6, points, 1)
    rows, stop, pivots = eliminated[0]
    assert (rows, stop) == (160, True) and pivots < 144
    assert verdict.separated and verdict.retries > 0
    assert (system, verdict) == _certify(points, 1, hashmaps.DEPTH_CAP, full=True)[1:]


def test_coupled_gram_solve_matches_sympy():
    """The gram matrix M M^T of a random sparse 0/1 M with 5 ones per row among
    2n columns couples every row: its solve equals sympy's LUsolve."""
    n = 60
    rng = random.Random(0)
    cols = [set(rng.sample(range(2 * n), 5)) for _ in range(n)]
    gram = [{k: len(a & b) for k, b in enumerate(cols) if a & b} for a in cols]
    rhs = [rng.randint(-9, 9) for _ in range(n)]
    want = sympy.Matrix(n, n, lambda j, k: gram[j].get(k, 0)).LUsolve(sympy.Matrix(rhs))
    got = linsolve.solve_square(gram, rhs)
    assert [Fraction(*pair) for pair in got] == [Fraction(int(v.p), int(v.q)) for v in want]


def _reduced_values(pairs):
    """Knot values ({knot: pair}, or a list by knot id) as Fractions by knot, after checking
    each pair is in lowest terms with a positive denominator."""
    pairs = pairs if isinstance(pairs, dict) else dict(enumerate(pairs))
    assert all(den > 0 and math.gcd(num, den) == 1 for num, den in pairs.values())
    return {col: Fraction(*value) for col, value in pairs.items()}


@settings(max_examples=40, deadline=None)
@given(mixed_systems())
def test_min_norm_matches_global_gram_solve(case):
    system, targets = case
    rank, _ = oracle.left_kernel_vector(oracle.rows(system))
    if rank < system.n_points:
        # the gram matrix is singular, globally and in the dependent component
        with pytest.raises(InternalInvariantError):
            oracle.min_norm_solution(system, targets)
        with pytest.raises(InternalInvariantError):
            _min_norm_solution(system, targets)
    else:
        assert _reduced_values(_min_norm_solution(system, targets)) == oracle.min_norm_solution(system, targets)


@settings(max_examples=40, deadline=None)
@given(
    mixed_systems(),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]),
    st.sampled_from([Fraction(1, 10**6), Fraction(1, 20), Fraction(2)]),
    st.integers(min_value=1, max_value=25),
)
def test_damped_iteration_matches_global_loop(case, damping, tolerance, max_iter):
    """The iterated knots are those of the points that share one, with the global
    loop's values; every other knot holds its point's f (1 - (1 - damping)^k) / (2d+1)."""
    system, targets = case
    g, *rest = run_damped_iteration(system, targets, damping, tolerance, max_iter)
    want, *want_rest = oracle.run_damped_iteration(system, targets, damping, tolerance, max_iter)
    assert rest == want_rest
    buckets, rows = oracle._column_buckets(system), oracle.rows(system)
    lone = [j for j, row in enumerate(rows) if all(len(buckets[k]) == 1 for k in row)]
    assert set(g) == set(want) - {k for j in lone for k in rows[j]}
    assert _reduced_values(g) == {k: want[k] for k in g}
    share = (1 - (1 - damping) ** len(rest[0])) / (2 * system.d + 1)
    assert all(want[k] == targets[j] * share for j in lone for k in rows[j])


@settings(max_examples=40, deadline=None)
@given(mixed_systems())
def test_collision_count_is_the_bucket_count(case):
    """Every row hits 2d+1 distinct knots, so the closed form counts each knot's hits past its first."""
    system, _ = case
    assert system.collision_count == oracle.collision_count(system)


def test_tolerance_stops_the_iteration_where_the_global_loop_does():
    """The sup is compared with the tolerance exactly: for tolerances at and
    around the residuals a run passes, the rounds match the global loop's."""
    twin = (Fraction(1, 3), Fraction(1, 3))
    points = [twin, (twin[0] + Fraction(1, 6**10), twin[1]), (Fraction(1, 7), Fraction(2, 9)), (Fraction(5, 11), Fraction(3, 13))]
    system = build_incidence(P26, SPEC6, points, 2)
    targets = [Fraction(1), Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4)]
    for tolerance in sorted({Fraction(n, d) for d in (1, 3, 4, 7, 8, 64) for n in range(1, 2 * d + 1)}):
        got = run_damped_iteration(system, targets, Fraction(1, 2), tolerance, 30)
        want = oracle.run_damped_iteration(system, targets, Fraction(1, 2), tolerance, 30)
        assert got[1:] == want[1:], tolerance


def _grid1():
    axis = [Fraction(j, 6) for j in range(7)]
    return [(x1, x2) for x1 in axis for x2 in axis]


@pytest.mark.parametrize("damping", [Fraction(1), Fraction(1, 2)])
def test_unfinalized_iterative_fit_matches_global_loop(damping):
    f = lambda p: p[0] * p[1] - p[1] / 3
    fitted, report = fit_iterative(
        grid_samples(f, P26, 1), P26, SPEC6, damping=damping, max_iter=12, finalize=False
    )
    system = build_incidence(P26, SPEC6, _grid1(), report.depth)
    targets = [f(p) for p in system.points]
    g, history, sup = oracle.run_damped_iteration(
        system, targets, damping, Fraction(1, 10**6), 12
    )
    assert report.convergence_history == tuple(history)
    assert (report.collision_count, report.residual_max) == (oracle.collision_count(system), sup)
    assert fitted == oracle.outer_from_knots(P26, system, {k: (v.numerator, v.denominator) for k, v in g.items()})


def _counting(monkeypatch, module, name, record):
    original = getattr(module, name)

    def spy(*args):
        record.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)


def _rows_built(monkeypatch):
    """A list that gets an entry for every incidence row built."""
    built = []
    row = hashmaps.IncidenceSystem.row
    monkeypatch.setattr(hashmaps.IncidenceSystem, "row", lambda self, j: built.append(j) or row(self, j))
    return built


def test_all_singleton_fit_eliminates_nothing(monkeypatch):
    """A system whose points share no knot is certified by one left_kernel_vector call
    that gets no component, and fitted in both modes without building a row
    (the component finder builds the rows of linked points only), eliminating
    or solving."""
    rng = random.Random(7)
    pts = sorted({tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(2)) for _ in range(200)})
    samples = SampleSet(points=tuple(pts), targets=tuple(x * y for x, y in pts))
    eliminated, solves, certified = [], [], []
    _counting(monkeypatch, linsolve, "_eliminate", eliminated)
    _counting(monkeypatch, outer, "solve_square", solves)
    _counting(monkeypatch, hashmaps, "left_kernel_vector", certified)
    built = _rows_built(monkeypatch)
    _, report = fit_exact(samples, P26, SPEC6)
    assert report.knot_count == 5 * len(pts)
    assert report.separation.rank == len(pts)
    assert certified == [(len(pts), [], True)]
    for finalize in (True, False):
        _, report = fit_iterative(samples, P26, SPEC6, max_iter=4, finalize=finalize)
        assert (report.separation.rank, report.collision_count, report.iterations) == (len(pts), 0, 4)
    assert [comps for _, comps, _ in certified] == [[]] * 3
    assert eliminated == [] and solves == [] and built == []


def test_near_twin_pairs_eliminate_only_their_components(monkeypatch):
    rng = random.Random(11)
    lone = {tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(2)) for _ in range(30)}
    twins = [(Fraction(k + 1, 7), Fraction(2, 7)) for k in range(4)]
    pts = list(lone) + twins + [(x + Fraction(1, 6**40), y) for x, y in twins]
    rng.shuffle(pts)
    system = build_incidence(P26, SPEC6, pts, 30)
    eliminated = []
    _counting(monkeypatch, linsolve, "_eliminate", eliminated)
    rank, witness = left_kernel_vector(system.n_points, system.components)
    assert [len(rows) for rows, *_ in eliminated] == [2] * len(twins)
    assert rank == len(pts) - len(twins)
    assert (rank, witness) == oracle.left_kernel_vector(oracle.rows(system))
    # the row components of all the rows leave the lone ones out too
    eliminated.clear()
    assert _kernel(oracle.rows(system)) == (rank, witness)
    assert [len(rows) for rows, *_ in eliminated] == [2] * len(twins)


def test_the_finder_reads_only_the_rows_of_near_twins(monkeypatch):
    """The fit_scatter shape: near-twins among lone 50-bit points.  At depth 30 each
    twin pair shares all its knots, and the finder builds and links only the
    twins' rows; at depth 60 every point is alone and it reads none."""
    rng = random.Random(5)
    pts = list({tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(2)) for _ in range(60)})
    twins = [(x + Fraction(1, 6**40), y) for x, y in pts[:3]]
    pts += twins
    rng.shuffle(pts)
    pairs = sorted(sorted((pts.index((x - Fraction(1, 6**40), y)), pts.index((x, y)))) for x, y in twins)
    built = _rows_built(monkeypatch)
    system = build_incidence(P26, SPEC6, pts, 30)
    comps = system.components
    assert built == sorted(j for pair in pairs for j in pair)
    rows = tuple(zip(*system.columns))
    assert comps == [{j: rows[j] for j in pair} for pair in pairs]
    built.clear()
    assert build_incidence(P26, SPEC6, pts, 60).components == []
    assert built == []


@st.composite
def fit_samples(draw):
    """Sample sets and fit depths: random dyadics at depth 30, which share no knot,
    or at depth 1-3 boundary straddlers (separated, sharing knots), near-twins
    and coarse grid points, which share knots until a retry separates them."""
    targets = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))
    if draw(st.booleans()):
        points = {(_coord(draw), _coord(draw)) for _ in range(draw(st.integers(1, 10)))}
        depth = 30
    else:
        depth = draw(st.integers(1, 3))
        step = Fraction(1, 6 ** (depth + 3))
        points = set()
        for _ in range(draw(st.integers(0, 3))):
            edge = Fraction(draw(st.integers(1, 6**depth - 1)), 6**depth)
            other = Fraction(draw(st.integers(0, 36)), 36)
            points.update({(edge - step, other), (edge + step, other)})
        coarse = st.builds(Fraction, st.integers(0, 6**2), st.just(6**2))
        points.update(draw(st.sets(st.tuples(coarse, coarse), min_size=0 if points else 1, max_size=6)))
        if draw(st.booleans()):
            x = min(points)
            points.add((x[0] + Fraction(1, 6**12) if x[0] < 1 else x[0] - Fraction(1, 6**12), x[1]))
    order = draw(st.permutations(sorted(points)))
    return SampleSet(points=tuple(order), targets=tuple(draw(targets) for _ in order)), depth


@settings(max_examples=45, deadline=None)
@given(fit_samples(), st.sampled_from(["exact", "iterative", "unfinalized"]),
       st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]), st.integers(1, 12))
def test_fits_match_the_component_pipeline(case, mode, damping, max_iter):
    """Model bytes and reports of both fits equal those of the pipeline that finds
    components, eliminates and fills tables knot by knot on every system."""
    samples, depth = case
    if mode == "exact":
        got, want = fit_exact(samples, P26, SPEC6, depth), oracle.fit_exact(samples, P26, SPEC6, depth)
    else:
        args = depth, max_iter, Fraction(1, 10**6), damping, mode == "iterative"
        got = fit_iterative(samples, P26, SPEC6, *args)
        want = oracle.fit_iterative(samples, P26, SPEC6, *args)
    assert got[1].to_jsonable() == want[1].to_jsonable()
    meta = {"depth": got[1].depth}
    assert save(assemble(SPEC6, P26, got[0], meta)) == oracle.save(assemble(SPEC6, P26, want[0], meta))
