"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

import math
import statistics
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import reference as ref
import spans
import workloads
from stats import median, quartiles


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == median(values) == statistics.median(values)


def test_quartiles_of_one_and_of_none():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])
    with pytest.raises(ValueError):
        median([])


def _span(i, name, parent, start, end, **attrs):
    return spans.Span(i, name, parent, 0, start, end, attrs)


def test_self_time_counts_overlapping_children_once():
    parent = _span(1, "sweep.sweep_alpha", None, 0.0, 10.0)
    children = [
        _span(2, "extrapolate.extrapolated_infimum", 1, 1.0, 3.0),
        _span(3, "extrapolate.extrapolated_infimum", 1, 2.0, 5.0),  # parallel with 2
        _span(4, "extrapolate.extrapolated_infimum", 1, 8.0, 12.0),  # clipped at 10
    ]
    assert spans.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert spans.self_time(parent, []) == 10.0


def test_layer_metrics_on_a_synthetic_sweep():
    tree = [
        _span(1, "sweep.sweep_alpha", None, 0.0, 4.0),
        _span(2, "extrapolate.extrapolated_infimum", 1, 0.0, 3.0),
        _span(3, "extrapolate.extrapolated_infimum", 1, 0.5, 3.5),
        _span(4, "kernel.build_kernel", 2, 0.0, 1.0, n=999),
        _span(5, "eigen.min_eigen", 2, 1.0, 2.5, n=999, residual=1e-13, iterations=None),
        _span(6, "eigen.min_eigen", 3, 1.0, 2.0, n=1999, residual=2e-13, iterations=7),
    ]
    m = spans.layer_metrics(tree)
    assert m["sweep.points"] == 2
    assert m["sweep.parallelism"] == pytest.approx(6.0 / 4.0)
    assert m["sweep.self_s"] == pytest.approx(0.5)
    assert m["sweep.point_s_max"] == 3.0
    assert m["kernel.build_bytes"] == 8 * 1000**2
    assert m["extrapolate.self_s"] == pytest.approx((3.0 - 2.5) + (3.0 - 1.0))
    assert (m["eigen.calls"], m["eigen.n_max"], m["eigen.residual_max"]) == (2, 1999, 2e-13)
    assert (m["eigen.iterations"], m["eigen.iterations_reported"]) == (7, 1)


def test_install_patches_every_import_site_and_threads_find_their_parent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    leaf.__module__ = "fakepkg.core"
    core.leaf = leaf

    def fan_out(xs):
        with user.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(user.leaf, xs))

    fan_out.__module__ = "fakepkg.user"
    user.leaf = leaf  # as `from .core import leaf` binds it
    user.fan_out = fan_out
    user.ThreadPoolExecutor = ThreadPoolExecutor
    pkg.leaf = leaf
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = spans.Tracer()
    sites = spans.install(tracer, "fakepkg")
    assert sites["core.leaf"] == 3
    assert user.fan_out([1, 2, 3, 4]) == [2, 3, 4, 5]

    (root,) = [s for s in tracer.spans if s.name == "user.fan_out"]
    leaves = [s for s in tracer.spans if s.name == "core.leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.id for s in leaves)
    assert any(s.thread != threading.get_ident() for s in leaves)


def test_failed_call_records_its_error_and_reraises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("x.boom", boom)()
    (span,) = tracer.spans
    assert span.error == "ValueError: no"


def _reference_record():
    schedule = list(workloads.EXTRAPOLATE_SCHEDULE)
    return {
        "schedule": schedule,
        "lambdas": [ref.REFERENCE_LAMBDAS[n] for n in schedule],
        "a0": -0.11681564972831678,
    }


def test_extrapolation_gate_accepts_the_reference():
    ops = workloads.check_extrapolation(_reference_record())
    assert len(ops) == len(workloads.EXTRAPOLATE_SCHEDULE) + 1
    assert all(op.ok for op in ops)


def test_extrapolation_gate_rejects_lambda_shifted_by_1e_8():
    record = _reference_record()
    record["lambdas"][6] += 1e-8
    failed = [op.name for op in workloads.check_extrapolation(record) if not op.ok]
    assert failed == ["lambda(2000)"]


def test_extrapolation_gate_rejects_lambda_increasing_with_n():
    record = _reference_record()
    # lambda(2400) within 1e-9 of its reference, but above lambda(2200)
    record["lambdas"][8] = record["lambdas"][7] + 1e-11
    ops = workloads.check_extrapolation(record)
    assert [op.name for op in ops if not op.ok] == ["lambda(2400)"]
    assert "increases" in ops[8].detail


def test_sweep_row_gate():
    assert workloads.check_sweep_row(0.3703965, -0.1168156).ok
    assert not workloads.check_sweep_row(0.3703965, -0.117).ok  # below -c_ring
    assert not workloads.check_sweep_row(0.3703965, 0.0).ok  # above the two-mode bound
    assert not workloads.check_sweep_row(0.5, math.nan).ok
    assert workloads.check_sweep_row(1.0, 1e-15).ok
    assert not workloads.check_sweep_row(2.0, 1e-9).ok


def test_direct_current_single_and_two_modes():
    alpha, beta = 1.3, -0.25
    one = np.array([0.0, 1.0], dtype=complex)
    assert workloads.direct_current(one, alpha, beta, 0.7, 0.3) == pytest.approx(
        2.0 * alpha * (1 - beta) / math.pi)
    # two modes: (alpha/pi) * [sum_m 2 (m-beta)|c_m|^2 + 2 (1-2 beta) Re(conj a_0 a_1)]
    c = np.array([0.6, 0.8j])
    theta, tau = 0.4, 0.2
    phase = np.exp(1j * np.arange(2) * theta - 1j * 2 * alpha * (np.arange(2) - beta) ** 2 * tau)
    a = c * phase
    want = alpha / math.pi * (2 * (0 - beta) * 0.36 + 2 * (1 - beta) * 0.64
                              + 2 * (1 - 2 * beta) * (np.conj(a[0]) * a[1]).real)
    assert workloads.direct_current(c, alpha, beta, theta, tau) == pytest.approx(want, abs=1e-14)
