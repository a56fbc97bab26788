"""Assembled networks: evaluation, serialization, topology description.

A model is the triple (inner spec, universal constants, outer function) plus
a metadata record.  Evaluation is the two-hidden-layer superposition: feed
every branch value through the shared outer function and add the 2d+1
contributions.

Evaluation is exact.  A batch of points is grouped per axis (PointGroups,
repeats allowed), and phi runs once per distinct coordinate and branch into
one InnerTable, as in a fit.  A single call takes its branches from
hashmaps.point_branches instead: one kernel call over the point's
coordinates, with no grouping and no table, whose fixed costs one point
cannot repay.  Both check points with hashmaps.checked_points, mix branches
with hashmaps.mix and end in the same per-point lookups (_Plan.total).  At
depth k every branch value is an integer over one denominator, so a
per-depth plan (built once per model and cached on it) holds all knot
positions as integers in one sorted array, and all knot values as integer
numerators over one value denominator G, the lcm of their denominators
(G = 1, with per-knot denominators, when G would pass the plan's bit
limit).  Each branch costs one knot search.  When its error window starts
on or after a knot and ends before the next knot of its branch, the error
term is the closed form |g1 - g0| * window / dy, over the same denominator
as the interpolated value; any other window is scanned knot by knot.  w and
the error bound accumulate on one running denominator, and only the final w
and error bound become Fractions, where G is applied.  The float path is the
exact result rounded to the nearest double, with a bound that also covers
that rounding.

A model file (format 2) keeps the outer function as it is held: one `unit`,
each branch's knot positions as integers over it, and each knot's value as
an index into one table of distinct value literals.  save is one pass of the
JSON encoder, and load reads a branch with split and int.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path

from .errors import AssemblyError, DomainError, InputError, ModelFormatError, ParameterError, PointError
from .hashmaps import HashParams, InnerTable, PointGroups, branch_offsets, check_dims, point_branches
from .inner import InnerSpec, check_depth
from .outer import KnotLookup, OuterFunction, common_unit
from .rationals import digit_limit, parse_ratio, plain_ratios

FORMAT_VERSION = 2


@dataclass(frozen=True)
class KNetModel:
    """A complete network; meta records how it was made (fit mode, depth, sample hash)."""

    inner: InnerSpec
    params: HashParams
    outer: OuterFunction
    meta: dict

    @cached_property
    def _plans(self) -> dict[int, "_Plan"]:
        """Evaluation plans by depth; they live and die with the model."""
        return {}


def assemble(inner: InnerSpec, params: HashParams, outer: OuterFunction, meta: dict | None = None) -> KNetModel:
    """Glue the three components after checking they describe the same network.

    Each error message starts with the location of the offending part.
    """
    if inner.base != params.gamma:
        raise AssemblyError(
            f"inner.base: digit base {inner.base} differs from gamma {params.gamma}"
        )
    if outer.d != params.d:
        raise AssemblyError(f"outer.d: outer function built for d = {outer.d}, parameters for d = {params.d}")
    _resolve_depth(meta or {})
    record = {"format_version": FORMAT_VERSION}
    if meta:
        record.update(meta)
    # these two mirror the construction itself, so stale values never stick
    record["format_version"] = FORMAT_VERSION
    record["series_terms"] = list(params.series_terms)
    return KNetModel(inner=inner, params=params, outer=outer, meta=record)


def _resolve_depth(meta: dict, depth: int | None = None) -> int:
    """depth if given, else meta.depth (30 when absent); either must pass check_depth."""
    if depth is not None:
        check_depth(depth)
        return depth
    depth = meta.get("depth")
    if depth is not None:
        try:
            check_depth(depth)
        except DomainError as exc:
            raise AssemblyError(f"meta.depth: stored {exc}") from None
    return depth or 30


class _Plan(KnotLookup):
    """A model's knots as integers at one evaluation depth.

    Branch values at this depth are integers over params.unit(inner, depth),
    so each is looked up with one knot search and no Fraction built.
    """

    def __init__(self, model: KNetModel, depth: int):
        super().__init__(model.outer, model.params.unit(model.inner, depth))
        self.params = model.params
        self.inner = model.inner
        self.depth = depth

    def total(self, branches, contributions: list | None = None) -> tuple[int, int, int]:
        """w and the error bound at one point, from its branches' (value, window) numerators
        over params.unit(inner, depth), as unreduced numerators over one denominator.

        Lookups that share a denominator add without a product, and value_den joins it once, at
        the end.  Per-branch outer values are appended to `contributions` when a list is given.
        """
        if not self.ys:
            raise DomainError("outer function has no knots")
        lift, value_den = self.lift, self.value_den
        w_num = e_num = 0
        den = 1
        for value, window in branches:
            g, dev, m = self.branch(value * lift, window * lift)
            if m == den:
                w_num += g
                e_num += dev
            else:
                w_num, e_num, den = w_num * m + g * den, e_num * m + dev * den, den * m
            if contributions is not None:
                contributions.append(Fraction(g, m * value_den))
        return w_num, e_num, den * value_den

    def sums(self, groups: PointGroups) -> list[tuple[int, int, int]]:
        """total at every point of `groups`, from one InnerTable of them at this depth."""
        table = InnerTable(self.params, self.inner, groups)
        table.deepen(self.depth)
        return [self.total(table.branches(j)) for j in range(len(groups.points))]

    def at(self, x, contributions: list | None = None) -> tuple[int, int, int]:
        """total at the one point x (point_branches); a bad x raises a DomainError with the reason alone."""
        return self.total(point_branches(self.params, self.inner, x, self.depth), contributions)


def _plan(model: KNetModel, depth: int | None) -> _Plan:
    depth = _resolve_depth(model.meta, depth)
    plan = model._plans.get(depth)
    if plan is None:
        plan = model._plans[depth] = _Plan(model, depth)
    return plan


def evaluate(model: KNetModel, x, depth: int | None = None, with_branches: bool = False):
    """Exact network output at x in [0, 1]^d.

    Returns (w, error_bound): deepening the truncation beyond `depth` moves
    the output by at most error_bound, measured through the range of the
    outer function over each branch's value window.  With with_branches the
    per-branch contributions are returned as a third element; they sum to w
    exactly.
    """
    parts = [] if with_branches else None
    w_num, e_num, den = _plan(model, depth).at(x, parts)
    w, error = Fraction(w_num, den), Fraction(e_num, den)
    if with_branches:
        return w, error, tuple(parts)
    return w, error


def evaluate_batch(model: KNetModel, points, depth: int | None = None, numeric: str = "exact"):
    """Evaluate many points, preserving order; the first bad point aborts with a PointError.

    numeric='exact' yields (Fraction, Fraction) pairs, numeric='fast' the
    (float, float) pairs of FastEvaluator.  Points may repeat.
    """
    if numeric not in ("exact", "fast"):
        raise DomainError(f"numeric mode must be 'exact' or 'fast', got {numeric!r}")
    points = tuple(points)
    if not points:
        return []
    try:
        plan = _plan(model, depth)
        # with no knots, point 0's own fault comes first, as in a single call
        sums = plan.sums(PointGroups(points if plan.ys else points[:1], plan.params.d, distinct=False))
    except PointError:
        raise
    except DomainError as exc:  # the depth, the plan or the model: the first point cannot be evaluated
        raise PointError(0, str(exc)) from exc
    if numeric == "exact":
        return [(Fraction(w_num, den), Fraction(e_num, den)) for w_num, e_num, den in sums]
    out = []
    for j, point_sums in enumerate(sums):
        try:
            out.append(_rounded(*point_sums))
        except DomainError as exc:
            raise PointError(j, str(exc)) from None
    return out


def _rounded(w_num: int, e_num: int, den: int) -> tuple[float, float]:
    """w rounded to the nearest double, and the error bound plus that rounding, rounded up."""
    try:
        w = w_num / den  # int division rounds correctly
        p, s = w.as_integer_ratio()
        # bound = e + |w - exact w|, over one denominator
        num = e_num * s + abs(p * den - w_num * s)
        den *= s
        bound = num / den
    except OverflowError:
        raise DomainError("w or its error bound lies beyond the double range; evaluate exactly") from None
    p, s = bound.as_integer_ratio()
    if p * den < num * s:
        bound = math.nextafter(bound, math.inf)
    return w, bound


class FastEvaluator:
    """Double-precision results of exact evaluation.

    w is the exact value rounded to the nearest double; the bound is the
    exact error bound plus that rounding error, rounded up, so the true
    value at any deeper truncation lies within it.  Evaluation plans are
    built on first use at each depth and shared with exact evaluation.
    """

    def __init__(self, model: KNetModel):
        self.model = model

    def evaluate(self, x, depth: int | None = None) -> tuple[float, float]:
        return _rounded(*_plan(self.model, depth).at(x))


def _literal(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0."""
    c = math.gcd(num, den)
    return str(num // c) if den == c else f"{num // c}/{den // c}"


def _spelled(tokens) -> str:
    """A branch's y or g, a map of token strings, joined when the JSON encoder reaches it."""
    if type(tokens) is not map:
        raise TypeError(f"Object of type {type(tokens).__name__} is not JSON serializable")
    return " ".join(tokens)


def save(model: KNetModel, sink=None) -> bytes:
    """Serialize to canonical JSON bytes, json.dumps(document, indent=2) and a newline;
    optionally also write them to a path or file.

    `unit` is outer.unit, and each branch's `y` lists its knot positions as
    numerators over it.  `values` holds the distinct value literals in lowest
    terms, in order of first appearance, and each branch's `g` lists its knots'
    indices into it.
    """
    params, outer = model.params, model.outer
    literals: dict[str, int] = {}
    index = dict.fromkeys(zip(chain.from_iterable(outer.gn), chain.from_iterable(outer.gd)))
    for pair in index:
        index[pair] = str(literals.setdefault(_literal(*pair), len(literals)))
    doc = {
        "format_version": FORMAT_VERSION,
        "d": params.d,
        "gamma": params.gamma,
        "inner_weights": [str(w) for w in model.inner.weights],
        "lambda": [str(v) for v in params.lam],
        "lambda_tail": [str(t) for t in params.lam_tails],
        "b": list(params.b),
        "unit": str(outer.unit),
        "values": list(literals),
        "branches": [{"q": q, "y": map(str, ys), "g": map(index.__getitem__, zip(gn, gd))}
                     for q, (ys, gn, gd) in enumerate(zip(outer.ys, outer.gn, outer.gd))],
        "meta": {k: v for k, v in model.meta.items() if k != "format_version"},
    }
    # json.dumps(doc, indent=2), streamed: each branch's y and g are spelled only
    # when the encoder reaches them, and no chunk list is joined, so save's
    # transient memory stays within a small multiple of the file's bytes
    out = io.BytesIO()
    for chunk in json.JSONEncoder(indent=2, default=_spelled).iterencode(doc):
        out.write(chunk.encode())
    out.write(b"\n")
    data = out.getvalue()
    if sink is not None:
        if isinstance(sink, (str, Path)):
            Path(sink).write_bytes(data)
        else:
            sink.write(data)
    return data


def _want(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise ModelFormatError(f"missing field", location=f"{location}.{key}" if location else key)
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ModelFormatError(
            f"expected {kind.__name__}, got {type(value).__name__}",
            location=f"{location}.{key}" if location else key,
        )
    return value


def _ratio_at(text, location: str) -> tuple[int, int]:
    """A fraction string as a pair; an error names `location`."""
    try:
        if type(text) is not str:
            raise InputError(f"expected fraction string, got {type(text).__name__}")
        return parse_ratio(text)
    except InputError as exc:
        raise ModelFormatError(str(exc), location=location) from None


def _integers(entry: dict, key: str, i: int) -> list[int]:
    """Branch i's `key` string as integers: tokens of 1..digit_limit() ASCII digits
    between single spaces; an error names the field and the first bad token."""
    text = _want(entry, key, str, f"branches[{i}]")
    tokens, limit = text.split(" ") if text else [], digit_limit()
    if (text.isascii() and not text.encode().translate(None, b"0123456789 ") and "" not in tokens
            and (len(text) <= limit or max(map(len, tokens)) <= limit)):
        return list(map(int, tokens))
    k, token = next((k, t) for k, t in enumerate(tokens) if not (t.isascii() and t.isdigit() and len(t) <= limit))
    raise ModelFormatError(f"token {k}: expected 1 to {limit} ASCII digits, got {token[:40]!r}",
                           location=f"branches[{i}].{key}")


def load(source) -> KNetModel:
    """Parse and fully validate a format-2 model document; format 1 is refused.

    Accepts a path, bytes, a JSON string, or a readable file.  Any malformed
    or inconsistent content raises ModelFormatError naming the offending
    location; nothing partial is ever returned.  lambda and lambda_tail must be
    the sums meta.series_terms defines.  `values` is read by one
    rationals.plain_ratios guard, unreduced, or where it refuses one literal at a
    time by parse_ratio, which words every error.  A `unit` other than the
    stored depth's must pass common_unit's plan-bit limit.
    """
    if isinstance(source, Path) or isinstance(source, str) and not source.lstrip().startswith("{"):
        try:
            source = Path(source).read_bytes()
        except OSError as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    elif hasattr(source, "read"):
        source = source.read()
    if not isinstance(source, (str, bytes, bytearray)):
        raise ModelFormatError(f"cannot load a model from {type(source).__name__}")
    try:
        doc = json.loads(source)
    except (ValueError, RecursionError) as exc:  # also over-long integer literals and deep nesting
        raise ModelFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top level must be an object")

    version = _want(doc, "format_version", int, "")
    if version != FORMAT_VERSION:
        problem = (f"is newer than the supported {FORMAT_VERSION}; upgrade the library" if version > FORMAT_VERSION
                   else "(one object per knot) is no longer read; refit the model" if version == 1
                   else "is unrecognized")
        raise ModelFormatError(f"format_version {version} {problem}", location="format_version")

    d = _want(doc, "d", int, "")
    gamma = _want(doc, "gamma", int, "")
    inner_weights = _want(doc, "inner_weights", list, "")
    b = _want(doc, "b", list, "")
    branches = _want(doc, "branches", list, "")
    meta = _want(doc, "meta", dict, "")

    weights = tuple(Fraction(*_ratio_at(w, f"inner_weights[{i}]")) for i, w in enumerate(inner_weights))
    try:
        check_dims(d, gamma)
    except ParameterError as exc:
        raise ModelFormatError(str(exc), location="d" if d < 2 else "gamma") from None
    if len(branches) != 2 * d + 1:
        raise ModelFormatError(f"expected {2 * d + 1} branches, got {len(branches)}", location="branches")
    if b != list(branch_offsets(d)):
        raise ModelFormatError(f"expected (2d+1)q for q = 0..2d, got {b}", location="b")
    series = meta.get("series_terms")
    if not (isinstance(series, list) and len(series) == d and all(type(r) is int for r in series)):
        raise ModelFormatError(f"expected a list of {d} term counts", location="meta.series_terms")
    try:
        params = HashParams(d, gamma, tuple(series))
    except ParameterError as exc:
        raise ModelFormatError(str(exc), location="meta.series_terms") from None
    for key, derived in (("lambda", params.lam), ("lambda_tail", params.lam_tails)):
        values = _want(doc, key, list, "")
        if len(values) != d:
            raise ModelFormatError(f"need {d} values, got {len(values)}", location=key)
        for i, (text, want) in enumerate(zip(values, derived)):
            if Fraction(*_ratio_at(text, f"{key}[{i}]")) != want:
                raise ModelFormatError(f"differs from the value of {series[i]} series terms", location=f"{key}[{i}]")
    try:
        inner = InnerSpec(base=gamma, weights=weights)
    except ValueError as exc:
        raise ModelFormatError(str(exc), location="inner_weights") from exc
    try:
        depth_unit = params.unit(inner, _resolve_depth(meta))
    except AssemblyError as exc:
        raise ModelFormatError(str(exc).partition(": ")[2], location="meta.depth") from None
    unit = _want(doc, "unit", str, "")
    if not (unit.isascii() and unit.isdigit() and len(unit) <= digit_limit() and int(unit)):
        raise ModelFormatError(f"expected a positive integer of 1 to {digit_limit()} ASCII digits, got {unit[:40]!r}",
                               location="unit")
    unit = int(unit)
    values = _want(doc, "values", list, "")
    vn, vd = plain_ratios(values) or zip(*(_ratio_at(text, f"values[{k}]") for k, text in enumerate(values)))
    ys, gn, gd = [], [], []
    for i, entry in enumerate(branches):
        if not isinstance(entry, dict):
            raise ModelFormatError("expected object", location=f"branches[{i}]")
        q = _want(entry, "q", int, f"branches[{i}]")
        if q != i:
            raise ModelFormatError(f"branches must appear in order; got q = {q}", location=f"branches[{i}].q")
        positions, indices = _integers(entry, "y", i), _integers(entry, "g", i)
        if len(indices) != len(positions):
            raise ModelFormatError(f"{len(indices)} value indices for {len(positions)} positions",
                                   location=f"branches[{i}].g")
        if indices and max(indices) >= len(values):
            k = next(k for k, j in enumerate(indices) if j >= len(values))
            raise ModelFormatError(f"token {k}: index {indices[k]} is past the {len(values)} values",
                                   location=f"branches[{i}].g")
        ys.append(tuple(positions))
        gn.append(tuple(map(vn.__getitem__, indices)))
        gd.append(tuple(map(vd.__getitem__, indices)))
    if unit != depth_unit:
        try:
            common_unit((unit,), sum(map(len, ys)))
        except DomainError as exc:
            raise ModelFormatError(str(exc), location="unit") from None
    try:
        return assemble(inner, params, OuterFunction(d, unit, tuple(ys), tuple(gn), tuple(gd)), meta=dict(meta))
    except (DomainError, ParameterError) as exc:
        raise ModelFormatError(str(exc), location="branches") from None


def describe(model: KNetModel) -> dict:
    """The describe document: layer widths (d, d(2d+1), 2d+1, 1), the constant tables,
    the knot count of each branch and the meta record."""
    params, d = model.params, model.params.d
    knot_counts = list(map(len, model.outer.ys))
    return {
        "d": d,
        "gamma": params.gamma,
        "layer_widths": [d, d * (2 * d + 1), 2 * d + 1, 1],
        "a": str(params.a),
        "lambda": [str(v) for v in params.lam],
        "lambda_tail": [str(t) for t in params.lam_tails],
        "b": list(params.b),
        "inner_weights": [str(w) for w in model.inner.weights],
        "knot_counts": knot_counts,
        "total_knots": sum(knot_counts),
        "meta": dict(model.meta),
    }


def dot(d: int) -> str:
    """Graphviz text of the network graph of dimension d; inner nodes are labeled (p, q)."""
    lines = ["digraph ksnet {", "  rankdir=LR;"]
    for p in range(1, d + 1):
        lines.append(f'  x{p} [label="x{p}", shape=circle];')
    for q in range(2 * d + 1):
        for p in range(1, d + 1):
            lines.append(f'  h{p}_{q} [label="phi(x{p}+a*{q})", shape=box];')
            lines.append(f"  x{p} -> h{p}_{q};")
        lines.append(f'  z{q} [label="g(. + b{q})", shape=box];')
        for p in range(1, d + 1):
            lines.append(f"  h{p}_{q} -> z{q};")
    lines.append('  w [label="w", shape=doublecircle];')
    for q in range(2 * d + 1):
        lines.append(f"  z{q} -> w;")
    lines.append("}")
    return "\n".join(lines)
