"""The per-axis incidence build: inner values once per distinct coordinate,
depth retries by extension, and one check of the points.

Every system is compared with a fresh build and with the Fraction oracle,
along retry chains that double the depth and one whose last step is capped.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_components import _rows_built
from test_oracle import NETWORKS, ODD_SPEC6, unit_coords

from ksnet import hashmaps
from ksnet.cli import main
from ksnet.errors import CoincidentPoints, DomainError, OutsideCube
from ksnet.hashmaps import InnerTable, PointGroups, build_incidence, certify_separation, check_ranges, psi_eval
from ksnet.inner import DEPTH_CAP, default_inner_spec, phi_eval, phi_extend, phi_scaled
from ksnet.hashmaps import make_params
from ksnet.network import assemble, evaluate
from ksnet.outer import SampleSet, fit_exact, fit_iterative, grid_samples

P26, SPEC6 = NETWORKS[0]
CHAINS = [(30, 60, 120, 240), (100, 200, 240), (1, 2, 3, 240)]


def _chain(params, inner, points, chain):
    """Systems along `chain` from one table, each checked against a fresh build."""
    table = InnerTable(params, inner, points)
    for depth in chain:
        system = table.incidence(depth)
        assert table.depth == depth
        assert system == build_incidence(params, inner, points, depth)
    return system


def _oracle_equal(system, params, inner, points):
    knots, knot_branch, rows = oracle.build_incidence(params, inner, points, system.depth)
    assert system.unit == params.unit(inner, system.depth)
    assert (tuple(Fraction(k, system.unit) for k in system.knots), oracle.knot_branches(system.starts),
            oracle.rows(system)) == (knots, knot_branch, rows)


@pytest.mark.parametrize("spec", [SPEC6, ODD_SPEC6, default_inner_spec(20), default_inner_spec(70),
                                  default_inner_spec(1000)], ids=["base6", "odd6", "base20", "base70", "base1000"])
def test_phi_extend_reads_on_where_phi_scaled_stopped(spec):
    """Integers (window 0), terminating inputs (rest 0), unreduced and general ones.  An
    extension by 1 or 2 digits at base 6, and any at base 1000 (one-digit blocks), starts
    its plan with a packed single-digit step."""
    base = spec.base
    inputs = [(0, 1), (1, 1), (4, 4), (1, base), (7, base**2), (base + 1, base), (2, 2 * base),
              (1, 3), (2**50 - 1, 2**50), (59, 30), (10**12 - 1, 10**12)]
    nums, dens = [num for num, _ in inputs], [den for _, den in inputs]
    for k, more in [(1, 1), (2, 5), (30, 30), (100, 140), (3, 237), (1, 2), (2, 1), (30, 1)]:
        columns = phi_scaled(spec, nums, dens, k)
        assert phi_extend(spec, *columns, dens, more) == phi_scaled(spec, nums, dens, k + more), (k, more)


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "-".join(map(str, c)))
def test_retry_chains_match_fresh_builds_and_the_oracle(chain):
    """0 and 1, terminating coordinates (rest 0), repeated values on both axes,
    and near-twins that collide at low depth."""
    third = Fraction(1, 3)
    points = [
        (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)),
        (Fraction(1, 6), Fraction(7, 36)), (Fraction(1, 6), Fraction(1, 2)), (Fraction(5, 6), Fraction(1, 6)),
        (third, Fraction(2, 7)), (third + Fraction(1, 6**40), Fraction(2, 7)),
        (Fraction(29, 30), third), (Fraction(1, 2), Fraction(1)),
    ]
    system = _chain(P26, SPEC6, points, chain)
    _oracle_equal(system, P26, SPEC6, points)


@given(st.sampled_from(NETWORKS), st.data(), st.sampled_from(CHAINS))
@settings(max_examples=25, deadline=None)
def test_random_retry_chains_match_the_oracle(network, data, chain):
    params, inner = network
    points = data.draw(
        st.lists(st.tuples(*[unit_coords(params.gamma)] * params.d), min_size=1, max_size=6, unique=True)
    )
    system = _chain(params, inner, points, chain)
    _oracle_equal(system, params, inner, points)


def test_certify_separation_extends_one_table(monkeypatch):
    """The depth-30 collision of two near-twins is resolved at 60 by extending the
    table: the kernel starts from a coordinate only in the first build, once per
    distinct coordinate and branch (4 coordinates, 5 branches), and the retry
    extends those 20 entries from the stored columns, reading no branch input
    again (branch_inputs runs once per axis, d = 2 times, not 2d)."""
    x = (Fraction(1, 3), Fraction(2, 7))
    points = [x, (x[0] + Fraction(1, 6**40), x[1]), (Fraction(1, 2), Fraction(2, 7))]
    builds, branch_inputs = [], []
    inputs = {"phi_scaled": 0, "phi_extend": 0}
    original = InnerTable.incidence
    monkeypatch.setattr(InnerTable, "incidence", lambda self, depth: builds.append(depth) or original(self, depth))
    reads = hashmaps.HashParams.branch_inputs
    monkeypatch.setattr(hashmaps.HashParams, "branch_inputs", lambda self, values, branches: branch_inputs.append(
        len(values)) or reads(self, values, branches))
    for name in inputs:
        kernel = getattr(hashmaps, name)

        def counted(spec, first, *columns, f=kernel, n=name):
            inputs[n] += len(first)
            return f(spec, first, *columns)

        monkeypatch.setattr(hashmaps, name, counted)
    system, verdict = certify_separation(P26, SPEC6, points, 30)
    assert (verdict.separated, verdict.retries, system.depth) == (True, 1, 60)
    assert builds == [30, 60]
    assert inputs == {"phi_scaled": 20, "phi_extend": 20}
    assert branch_inputs == [3, 1]  # the distinct coordinates of each axis, in the fresh fill only
    monkeypatch.undo()
    assert system == build_incidence(P26, SPEC6, points, 60)


def test_points_are_grouped_per_axis():
    half = Fraction(1, 2)
    groups = PointGroups([(half, 0), (0.5, 1), ("1/3", 0)], 2)
    assert groups.values == [[(1, 2), (1, 3)], [(0, 1), (1, 1)]]
    assert groups.ids == [[0, 0, 1], [0, 1, 0]]
    assert groups.points[2] == (Fraction(1, 3), Fraction(0))
    assert all(type(c) is Fraction for p in groups.points for c in p)


def test_build_rejects_coincident_and_outside_points():
    half, third = Fraction(1, 2), Fraction(1, 3)
    with pytest.raises(CoincidentPoints, match="points 0 and 2 coincide"):
        build_incidence(P26, SPEC6, [(half, third), (third, half), (0.5, Fraction(2, 6))], 30)
    with pytest.raises(OutsideCube, match="point 1: coordinate 2 must lie in \\[0, 1\\], got 4/3") as caught:
        build_incidence(P26, SPEC6, [(half, third), (half, Fraction(4, 3)), (Fraction(-1), half)], 30)
    assert (caught.value.index, caught.value.axis) == (1, 2)
    # at one point an outside coordinate is reported before the repeat
    with pytest.raises(OutsideCube, match="point 2: coordinate 1"):
        build_incidence(P26, SPEC6, [(half, third), (half, 1), (2, 0), (half, third)], 30)
    with pytest.raises(CoincidentPoints, match="points 0 and 1"):
        build_incidence(P26, SPEC6, [(half, third), (half, third), (2, 0)], 30)
    with pytest.raises(DomainError, match="expected 2 coordinates"):
        build_incidence(P26, SPEC6, [(half, third), (half,)], 30)
    with pytest.raises(DomainError, match="at least one point"):
        build_incidence(P26, SPEC6, [], 30)


def test_depth_below_one_is_refused():
    """Depth 0 would leave the table empty: every point would hit the same knots
    and the retry loop (depth 2 * 0) would never end."""
    points = [(Fraction(1, 3), Fraction(2, 7)), (Fraction(1, 2), Fraction(1))]
    samples = SampleSet(points=tuple(points), targets=(Fraction(1), Fraction(2)))
    for call in (
        lambda: build_incidence(P26, SPEC6, points, 0),
        lambda: build_incidence(P26, SPEC6, points, -3),
        lambda: certify_separation(P26, SPEC6, points, 0),
        lambda: certify_separation(P26, SPEC6, points, 30, depth_cap=0),
        lambda: fit_exact(samples, P26, SPEC6, depth=0),
        lambda: fit_iterative(grid_samples(lambda p: p[0], P26, 1), P26, SPEC6, depth=0),
    ):
        with pytest.raises(DomainError, match="depth must be an integer in 1..240"):
            call()
    table = InnerTable(P26, SPEC6, PointGroups(points, 2))
    table.incidence(30)
    with pytest.raises(DomainError, match="depth must be an integer in 1..240, got 0"):
        table.incidence(0)
    assert table.depth == 30


def test_every_entry_point_has_the_kernels_depth_rule():
    """phi_eval, psi_eval, InnerTable.deepen and build_incidence refuse a depth that is
    not an int of at least 1 (a bool included) with a DomainError naming it, before any
    digit is read; a table keeps its depth.  A bool equal to the table's depth is refused
    too, not taken as "already there"."""
    x = (Fraction(1, 3), Fraction(2, 7))
    table = InnerTable(P26, SPEC6, [x])
    table.deepen(1)
    for depth in (2.5, True, 0, -1):
        for call in (lambda: phi_eval(SPEC6, x[0], depth), lambda: psi_eval(P26, SPEC6, x, 0, depth),
                     lambda: InnerTable(P26, SPEC6, [x]).deepen(depth), lambda: table.deepen(depth),
                     lambda: build_incidence(P26, SPEC6, [x], depth)):
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == f"depth must be an integer in 1..{DEPTH_CAP}, got {depth!r}"
        assert table.depth == 1


def test_one_depth_rule_from_the_kernel_to_evaluation():
    """phi_eval, check_ranges, both fits, certify_separation (its depth and its cap) and evaluate
    refuse a depth past DEPTH_CAP as they refuse 2.5, True and 0, with one message: no fit runs
    at the cap instead, and no retry runs into a cap past DEPTH_CAP."""
    x = (Fraction(1, 3), Fraction(2, 7))
    samples = SampleSet(points=(x, (Fraction(1, 2), Fraction(1))), targets=(Fraction(1), Fraction(2)))
    model = assemble(SPEC6, P26, fit_exact(samples, P26, SPEC6)[0], meta={"depth": 30})
    for depth in (DEPTH_CAP + 60, 2.5, True, 0):
        for call in (lambda: phi_eval(SPEC6, x[0], depth), lambda: check_ranges(P26, SPEC6, 1, depth),
                     lambda: fit_exact(samples, P26, SPEC6, depth=depth),
                     lambda: fit_iterative(samples, P26, SPEC6, depth=depth, finalize=False),
                     lambda: certify_separation(P26, SPEC6, samples.points, depth),
                     lambda: certify_separation(P26, SPEC6, samples.points, 30, depth_cap=depth),
                     lambda: evaluate(model, x, depth)):
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == f"depth must be an integer in 1..{DEPTH_CAP}, got {depth!r}"


def test_a_table_is_used_only_with_its_own_parameters():
    """Points grouped for another d are refused before any work."""
    points = [(Fraction(1, 3), Fraction(2, 7)), (Fraction(1, 2), Fraction(1))]
    for call in (lambda: InnerTable(make_params(3, 8), default_inner_spec(8), PointGroups(points, 2)),
                 lambda: certify_separation(make_params(3, 8), default_inner_spec(8), PointGroups(points, 2), 30)):
        with pytest.raises(DomainError, match="points have d = 2, parameters have d = 3"):
            call()


def test_a_fit_checks_its_samples_once(monkeypatch, tmp_path):
    """SampleSet keeps its PointGroups and certify_separation takes them as they are,
    in both fit modes, from the library and from the command line."""
    points = [(Fraction(1, 3), Fraction(2, 7)), (Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1, 6))]
    calls = []
    original = PointGroups.__init__
    monkeypatch.setattr(PointGroups, "__init__", lambda self, *a: calls.append(a) or original(self, *a))
    samples = SampleSet(points=tuple(points), targets=(Fraction(1), Fraction(2), Fraction(3)))
    outer, report = fit_exact(samples, P26, SPEC6)
    assert report.residual_max == 0 and len(calls) == 1
    assert samples.groups.points == samples.points
    _, report = fit_iterative(samples, P26, SPEC6)
    assert report.residual_max == 0 and len(calls) == 1
    axis = [Fraction(j, 6) for j in range(7)]
    _write(tmp_path / "grid.csv", ["x1", "x2", "f"], [(x, y, x - y) for y in axis for x in reversed(axis)])
    for mode in ("exact", "iterative"):
        calls.clear()
        assert main(["fit", "--no-timestamp", "--mode", mode, "--in", str(tmp_path / "grid.csv"),
                     "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1, mode


def test_components_are_found_once_per_system(monkeypatch):
    """The certificate, the damped iteration and the min-norm solve share them, and
    only the rows of points that share a knot are built, each once per
    system: a system whose points share none builds no row, as the level-1
    grid at depth 30 and the depth-60 retry of near-twins do, and the
    near-twins' depth-30 system builds their 2 rows once.  Boundary
    straddlers at depth 2 stay separated with shared knots, so all three
    stages run on one finding, which builds their 6 rows once; the seventh
    point is alone."""
    built = _rows_built(monkeypatch)
    _, report = fit_iterative(grid_samples(lambda p: p[0] * p[1], P26, 1), P26, SPEC6, max_iter=5)
    assert report.residual_max == 0 and report.separation.retries == 0
    assert built == []
    x = (Fraction(1, 3), Fraction(2, 7))
    points = (x, (x[0] + Fraction(1, 6**40), x[1]), (Fraction(1, 2), Fraction(2, 7)), (Fraction(1, 5), Fraction(1)))
    _, report = fit_exact(SampleSet(points=points, targets=(1, 2, 3, 4)), P26, SPEC6)
    assert (report.separation.retries, report.depth) == (1, 60)
    assert built == [0, 1]
    step = Fraction(1, 6**5)
    points = tuple((Fraction(7, 36) + i * step, Fraction(13, 36) + k * step) for i in (-1, 1) for k in (-1, 1))
    points += ((Fraction(29, 36) - step, Fraction(1, 5)), (Fraction(29, 36) + step, Fraction(1, 5)), x)
    built.clear()
    _, report = fit_iterative(SampleSet(points=points, targets=tuple(range(7))), P26, SPEC6, depth=2, max_iter=5)
    assert report.residual_max == 0 and report.separation.retries == 0 and report.collision_count > 0
    assert built == [0, 1, 2, 3, 4, 5]


def test_both_fits_count_the_straddlers_shared_knot_hits():
    """Four straddlers of one depth-2 digit boundary, two of another and a lone point: 7 rows
    of 5 knots hit 19 distinct knots at depth 2, so 16 hits fall on a knot already hit."""
    step = Fraction(1, 6**5)
    points = tuple((Fraction(7, 36) + i * step, Fraction(13, 36) + k * step) for i in (-1, 1) for k in (-1, 1))
    points += ((Fraction(29, 36) - step, Fraction(1, 5)), (Fraction(29, 36) + step, Fraction(1, 5)),
               (Fraction(1, 3), Fraction(2, 7)))
    samples = SampleSet(points=points, targets=tuple(range(7)))
    system = build_incidence(P26, SPEC6, points, 2)
    assert (system.knot_count, system.collision_count, oracle.collision_count(system)) == (19, 16, 16)
    for _, report in (fit_exact(samples, P26, SPEC6, depth=2), fit_iterative(samples, P26, SPEC6, depth=2)):
        assert (report.depth, report.collision_count) == (2, 16)


def _write(path, header, rows):
    path.write_text("\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n")


def _peak_mb(argv) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


# The tracemalloc peak of `ksnet eval` of 200 points on the model the fit below
# writes, when models were written one JSON object per knot (format 1): 5.94 MB
# on CPython 3.11.  Format 2 loads the same model in about 2.4 MB, so the fit
# is held to this fixed bound instead of to an eval of its model.
FORMAT_1_EVAL_PEAK_MB = 5.9


def test_fit_with_a_retry_peaks_below_one_eval_of_its_model(tmp_path):
    """1200 points, 24 of them near-twins that force the retry from depth 30 to 60:
    the extended table and one system at a time keep the fit's peak below the
    format-1 eval of 200 points on the model it writes (FORMAT_1_EVAL_PEAK_MB)."""
    rng = random.Random(1)
    points = set()
    while len(points) < 1176:
        points.add(tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(2)))
    points = sorted(points)
    twins = [(x + Fraction(1, 6**40) if x < 1 / 2 else x - Fraction(1, 6**40), y) for x, y in rng.sample(points, 24)]
    samples = points + twins
    _write(tmp_path / "s.csv", ["x1", "x2", "f"], [(x, y, x * y) for x, y in samples])
    _write(tmp_path / "q.csv", ["x1", "x2"], [(Fraction(rng.getrandbits(50), 2**50), y) for _, y in samples[:200]])
    fit = ["fit", "--no-timestamp", "--in", str(tmp_path / "s.csv"), "--model", str(tmp_path / "m.json"),
           "--out", str(tmp_path / "r.json")]
    fit_mb = _peak_mb(fit)
    assert '"retries": 1' in (tmp_path / "r.json").read_text()
    eval_mb = _peak_mb(["eval", "--model", str(tmp_path / "m.json"), "--in", str(tmp_path / "q.csv"),
                        "--out", str(tmp_path / "e.csv")])
    assert fit_mb < FORMAT_1_EVAL_PEAK_MB and eval_mb < FORMAT_1_EVAL_PEAK_MB, (fit_mb, eval_mb)
