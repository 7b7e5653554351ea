import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtnlab import geometry
from dtnlab.conjecture import (
    ConjectureError,
    compare_conjecture,
    effective_angle_sequence,
    extract_ck,
)
from dtnlab.dtn import write_csv

PI = math.pi

# frozen reference traces for two published angle lists
TRIANGLE_ANGLES = [PI / 12, PI / 3, 7 * PI / 12]
TRIANGLE_C = [0.1305, 0.3827, 0.5, 0.6088, 0.7934, 0.7934, 0.9239, 0.9914, 1.0]

OCTAGON_ANGLES = [PI / 12, PI / 12, PI / 4, PI / 4, 1.9064, 2.7224, 23 * PI / 12, 23 * PI / 12]
OCTAGON_C = [
    0.1305, 0.1305, 0.3827, 0.3827, 0.3827, 0.3827, 0.6088, 0.6088, 0.7934,
    0.7934, 0.8153, 0.9239, 0.9239, 0.9239, 0.9239, 0.9781, 0.9914, 0.9914,
]


def test_triangle_reference_trace():
    trace = effective_angle_sequence(TRIANGLE_ANGLES, 9)
    assert np.allclose(trace.coefficients, TRIANGLE_C, atol=1e-4)


def test_octagon_reference_trace():
    trace = effective_angle_sequence(OCTAGON_ANGLES, 18)
    assert np.allclose(trace.coefficients, OCTAGON_C, atol=1e-4)


def test_octagon_step10_value():
    trace = effective_angle_sequence(OCTAGON_ANGLES, 11)
    assert abs(trace.coefficients[10] - math.sin(1.9064 / 2)) < 1e-12


def test_regular_polygon_rule():
    for n in (3, 5, 6, 8):
        ang = PI * (1 - 2 / n)
        trace = effective_angle_sequence([ang] * n, n + 3)
        assert np.allclose(trace.coefficients[:n], math.sin(ang / 2), atol=1e-12)
        assert np.allclose(trace.coefficients[n:], 1.0, atol=1e-12)


def test_effective_angles_nondecreasing_and_saturating():
    trace = effective_angle_sequence(TRIANGLE_ANGLES, 20)
    assert (np.diff(trace.sequences, axis=0) >= -1e-12).all()
    assert ((trace.coefficients > 0) & (trace.coefficients <= 1)).all()
    # once every slot is at or above pi, the remaining coefficients are 1
    done = np.flatnonzero((trace.sequences >= PI - 1e-9).all(axis=1))
    assert len(done) and np.allclose(trace.coefficients[done[0]:], 1.0)


def test_termination_bound():
    angles = [0.3, 0.7, 2.0]
    bound = sum(math.ceil(PI / (2 * a)) for a in angles) + len(angles)
    trace = effective_angle_sequence(angles, bound)
    assert trace.coefficients[-1] == 1.0


def test_reflex_slots_never_selected():
    trace = effective_angle_sequence(OCTAGON_ANGLES, 18)
    assert not np.isin(trace.chosen, [6, 7]).any()
    assert np.allclose(trace.sequences[:, 6], 23 * PI / 12)


def test_tie_prefers_largest_increment():
    # slots at pi/4 and 0.25*pi exactly tie; the larger original angle moves
    trace = effective_angle_sequence([PI / 8, PI / 4], 2)
    # after step 0 the first slot reaches 3pi/8; step 1 minimum is pi/4 (slot 1)
    assert trace.chosen[0] == 0
    assert trace.chosen[1] == 1
    tied = effective_angle_sequence([PI / 4, PI / 4], 1)
    assert tied.chosen[0] == 0  # equal increments: lowest index


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(list(range(len(OCTAGON_ANGLES)))))
def test_permutation_invariance(perm):
    shuffled = [OCTAGON_ANGLES[i] for i in perm]
    a = effective_angle_sequence(OCTAGON_ANGLES, 18).coefficients
    b = effective_angle_sequence(shuffled, 18).coefficients
    assert np.allclose(a, b, atol=1e-12)


def test_input_validation():
    with pytest.raises(ConjectureError):
        effective_angle_sequence([], 3)
    with pytest.raises(ConjectureError):
        effective_angle_sequence([1.0], 0)
    with pytest.raises(ConjectureError):
        effective_angle_sequence([0.0, 1.0], 2)
    with pytest.raises(ConjectureError):
        extract_ck([1.0], 0.0)


def test_extract_ck_values():
    ck = extract_ck(np.array([5.0, 10.0]), 100.0)
    assert np.allclose(ck, [0.5, 1.0])


def test_compare_conjecture_with_stub_solver():
    dom = geometry.build_domain(geometry.RegularPolygonSpec(5))
    trace = effective_angle_sequence(dom.angle_sequence(), 7)

    perfect = trace.coefficients * math.sqrt(1e3)
    report = compare_conjecture(dom, 1e3, perfect)
    assert report.max_abs_diff() < 1e-12
    assert not report.flagged()

    off = (trace.coefficients + 0.05) * math.sqrt(1e3)
    report2 = compare_conjecture(dom, 1e3, off, tolerance=1e-2)
    assert len(report2.flagged()) == 7
    assert "*" in report2.format_table()


def test_compare_conjecture_rejects_smooth_domain():
    disk = geometry.build_domain(geometry.DiskSpec())
    with pytest.raises(ConjectureError):
        compare_conjecture(disk, 1e3, np.ones(3))


def test_report_csv(tmp_path):
    dom = geometry.build_domain(geometry.RegularPolygonSpec(4))
    report = compare_conjecture(dom, 1e3, np.full(3, 0.7) * math.sqrt(1e3))
    path = tmp_path / "ck.csv"
    write_csv(path, ["k", "c_conjecture", "c_numeric", "abs_diff"],
              ((r.k, r.c_conjecture, r.c_numeric, r.abs_diff) for r in report.rows))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,c_conjecture,c_numeric,abs_diff"
    assert len(lines) == 4
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 2], [r.c_numeric for r in report.rows])
