"""Segment tables, bit for bit against committed digests.

The CSV goldens round to six digits, so an edge that moves by one ulp can
pass them. ``golden/table_digests.json`` holds, per table, a sha256 over
every field a table carries: ``edges``, ``same``, ``offset``, ``axes``,
``negate`` and ``constant``. It covers the ten tables of the exact anomaly
curve, the kernel tests' table cases, and seeded settings that include the
one-ulp neighbours of every slot bound, under all five strategies, with one
and two axes.

Regenerate the fixture only for a change that is meant to alter a table::

    PYTHONPATH=src python tests/test_table_digests.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bctsim import geometry as geo
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.analysis import WALKTHROUGH_B1, alice_setting
from table_oracle import array_expectation, array_segment_table, gauss_legendre_expectation
from test_kernels import _table_cases

FIXTURE = Path(__file__).resolve().parent / "golden" / "table_digests.json"
PI = math.pi
STRATEGIES = dict(hn.CALIBRATION_VARIANTS)
SEEDED = 200
#: seed of the settings pinned to the array build; the fixture's cases use 1874
ORACLE_SEED = 2291


def _label(strategy: pr.Strategy) -> str:
    return next(label for label, s in STRATEGIES.items() if s == strategy)


def _bound_neighbours() -> list[float]:
    """Every alpha bound and every beta/gamma bound at both ends of the theta range, with one ulp each side."""
    last = math.nextafter(geo.THETA_SPAN, 0.0)
    bounds = [j * geo.ALPHA_WIDTH for j in range(10)]
    for theta in (0.0, last):
        bounds += [theta + o for o in geo.BETA_OFFSETS + geo.GAMMA_OFFSETS]
        bounds.append(theta + geo.GAMMA_OFFSETS[1] - geo.TWO_PI)
    near = {math.nextafter(v, d) for v in bounds for d in (-math.inf, math.inf)} | set(bounds)
    return sorted({geo.normalize_angle(v) for v in near} | {math.nextafter(geo.TWO_PI, 0.0)})


def cases() -> dict[str, list[tuple[float, tuple[float, ...], str]]]:
    """The pinned tables as ``(a, axes, strategy label)``, by group."""
    curve = [(alice_setting(float(nu)), (WALKTHROUGH_B1, WALKTHROUGH_B1 + PI), _label(strategy))
             for strategy in (pr.NO_FLIP, pr.CYCLIC_FLIP) for nu in np.linspace(0.0, PI / 5, 5)]
    kernel = [(a, tuple(axes), _label(strategy)) for a, axes, strategy in _table_cases()]
    rng = np.random.default_rng(1874)
    near = _bound_neighbours()
    settings = near + rng.uniform(-2 * PI, 4 * PI, SEEDED - len(near)).tolist()
    seeded = []
    for i, a in enumerate(settings):
        b = near[int(rng.integers(len(near)))] if i % 3 else float(rng.uniform(0.0, 2 * PI))
        axes = (b,) if i % 2 else (b, b + PI)
        seeded += [(a, axes, label) for label in STRATEGIES]
    return {"curve": curve, "table_cases": kernel, "seeded": seeded}


def digest(table: pr.SegmentTable) -> str:
    """sha256 over every field of ``table``; floats by their bit patterns, flags by their text."""
    h = hashlib.sha256()
    h.update(np.asarray(table.edges, dtype=np.float64).tobytes())
    for same, offset in zip(table.same, table.offset):
        h.update(np.asarray(same, dtype=bool).tobytes())
        h.update(np.asarray(offset, dtype=np.float64).tobytes())
    h.update(repr([float(b).hex() for b in table.axes]).encode())
    h.update(repr([(bool(n), None if k is None else bool(k)) for n, k in zip(table.negate, table.constant)]).encode())
    return h.hexdigest()


def digests(group: list) -> list[str]:
    return [digest(pr.segment_table(a, axes, STRATEGIES[label])) for a, axes, label in group]


def test_cases_cover_every_bound_and_both_row_shapes():
    seeded = cases()["seeded"]
    settings = {a for a, _, _ in seeded}
    assert len(settings) == SEEDED and set(_bound_neighbours()) <= settings
    assert {len(axes) for _, axes, _ in seeded} == {1, 2}
    assert {label for _, _, label in seeded} == set(STRATEGIES)


@pytest.mark.parametrize("name", ["curve", "table_cases", "seeded"])
def test_tables_match_their_digests(name):
    group = cases()[name]
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert len(want) == len(group)
    for case, got, pinned in zip(group, digests(group), want):
        assert got == pinned, case


@pytest.mark.parametrize("name", ["curve", "table_cases", "seeded"])
def test_two_axis_expectations_equal_quadrature_over_evaluate_bob(name):
    """``SegmentTable.expectation`` in both coin modes, on every two-axis table of the fixture.

    The closed form reads each segment's sine sign at its midpoint; the
    quadrature reads only ``evaluate_bob``, at nodes inside the segments.
    """
    two_axis = [(a, axes, STRATEGIES[label]) for a, axes, label in cases()[name] if len(axes) == 2]
    assert two_axis
    for a, axes, strategy in two_axis:
        table, want = pr.segment_table(a, axes, strategy), gauss_legendre_expectation(a, axes, strategy)
        for mode in pr.CoinMode:
            assert table.expectation(mode) == pytest.approx(want[mode], rel=0.0, abs=1e-13), (a, axes, strategy, mode)


def _assert_expectation_is_the_array_form(table: pr.SegmentTable, case) -> None:
    """Both coin modes, each as a member and as its string, equal :func:`array_expectation` with ``==``."""
    for mode in pr.CoinMode:
        want = array_expectation(table, mode)
        assert table.expectation(mode) == want, (case, mode)
        assert table.expectation(mode.value) == want, (case, mode)


def test_two_axis_expectations_equal_the_array_form_bit_for_bit():
    """The float route on every two-axis table of the fixture, against the NumPy form summed exactly."""
    two_axis = [(a, axes, label) for group in cases().values() for a, axes, label in group if len(axes) == 2]
    assert len(two_axis) == 585
    for a, axes, label in two_axis:
        _assert_expectation_is_the_array_form(pr.segment_table(a, axes, STRATEGIES[label]), (a, axes, label))


def seeded_frames() -> list[pr.SegmentTable]:
    """Two-axis tables of seeded fields, 1 to 40 segments and a few above 128.

    The fixture's built two-axis tables have at most five segments; these
    are made directly, with random sorted edges, same-slot flags, offsets,
    axes, negations and constant axes.
    """
    rng = np.random.default_rng(2296)
    offsets = np.array(geo.BETA_OFFSETS + geo.GAMMA_OFFSETS)
    frames = []
    for n in [*range(1, 41), *range(1, 41), 129, 136, 200, 257]:
        edges = np.sort(rng.uniform(0.0, geo.THETA_SPAN, n - 1))
        same = tuple(rng.random(n) < 0.3 for _ in range(2))
        offset = tuple(np.where(s, 0.0, rng.choice(offsets, n)) for s in same)
        negate = tuple(bool(v) for v in rng.random(2) < 0.5)
        constant = tuple(not k if v < 0.1 else None for k, v in zip(negate, rng.random(2)))
        frames.append(pr.SegmentTable(edges, tuple(rng.uniform(0.0, 2 * PI, 2).tolist()), same, offset, negate,
                                      constant))
    return frames


def test_seeded_frames_equal_the_array_form_bit_for_bit():
    frames = seeded_frames()
    assert {len(t.edges) + 1 for t in frames} >= set(range(1, 41)) | {129, 136, 200, 257}
    for i, table in enumerate(frames):
        _assert_expectation_is_the_array_form(table, i)


@pytest.mark.parametrize("axes", [(0.3,), (0.3, 0.3 + PI, 1.0)])
def test_an_expectation_of_one_or_three_axes_raises_naming_the_count(axes):
    table = pr.segment_table(1.0, axes)
    for mode in pr.CoinMode:
        with pytest.raises(pr.ProtocolError, match=f"this one has {len(axes)}"):
            table.expectation(mode)


def oracle_cases() -> list[tuple[object, tuple, pr.Strategy]]:
    """Fresh settings for the array-build pin: every bound neighbour, seeded floats, ``np.float64`` and ``int``."""
    rng = np.random.default_rng(ORACLE_SEED)
    near = _bound_neighbours()
    settings = near + rng.uniform(-2 * PI, 4 * PI, 60).tolist()
    settings += [np.float64(v) for v in rng.uniform(-2 * PI, 4 * PI, 12)] + list(range(-7, 8))
    out = []
    for i, a in enumerate(settings):
        b = near[int(rng.integers(len(near)))] if i % 3 else float(rng.uniform(0.0, 2 * PI))
        b = type(a)(round(b)) if isinstance(a, int) else type(a)(b)  # the first axis takes the setting's type
        axes = (b,) if i % 2 else (b, b + PI)
        out += [(a, axes, strategy) for strategy in STRATEGIES.values()]
    return out


def test_oracle_cases_cover_every_bound_type_and_row_shape():
    group = oracle_cases()
    assert set(_bound_neighbours()) <= {a for a, _, _ in group}
    assert {type(a) for a, _, _ in group} == {float, np.float64, int}
    assert {len(axes) for _, axes, _ in group} == {1, 2}
    assert {strategy for _, _, strategy in group} == set(STRATEGIES.values())


def test_tables_equal_the_array_build_field_by_field():
    """The float build against the array build it replaced: every array's dtype and bytes, every flag."""
    for a, axes, strategy in oracle_cases():
        got, want = pr.segment_table(a, axes, strategy), array_segment_table(a, axes, strategy)
        arrays = [(got.edges, want.edges)] + list(zip(got.same + got.offset, want.same + want.offset))
        assert len(got.same) == len(want.same) == len(axes), (a, axes, strategy)
        for g, w in arrays:
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), (a, axes, strategy)
        assert [(type(b), float(b).hex()) for b in got.axes] == [(type(b), float(b).hex()) for b in want.axes]
        assert (got.negate, got.constant) == (want.negate, want.constant), (a, axes, strategy)


if __name__ == "__main__":
    pins = {name: digests(group) for name, group in cases().items()}
    FIXTURE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
