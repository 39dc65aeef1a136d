import numpy as np
import pytest

import layers
from blockperm import gfq
from tracer import Tracer, self_times


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_top_level_time():
    tr = Tracer()
    with tr.span("outer"):
        for _ in range(3):
            with tr.span("inner"):
                with tr.span("leaf"):
                    sum(range(1000))
    with tr.span("outer"):
        pass
    summary, top = tr.summary()
    assert summary["outer"][0] == 2 and summary["inner"][0] == 3
    assert sum(own for _c, _i, own in summary.values()) == pytest.approx(top)
    assert summary["inner"][1] >= summary["leaf"][1]


def test_empty_tracer_summary():
    summary, top = Tracer().summary()
    assert summary == {} and top == 0.0


def test_count_under_ancestor():
    tr = Tracer()
    with tr.span("split"):
        with tr.span("mid"):
            with tr.span("ann"):
                pass
        with tr.span("ann"):
            pass
    with tr.span("ann"):
        pass
    assert tr.count_under("ann", "split") == 2
    assert tr.count_under("ann", "missing") == 0


def test_restore_puts_back_every_original():
    originals = [(owner, attr, owner.__dict__[attr])
                 for _n, owner, attr, _note in layers.ENTRY_POINTS]
    tr = Tracer()
    layers.instrument(tr)
    try:
        for owner, attr, raw in originals:
            assert owner.__dict__[attr] is not raw
        F = gfq.GF.parse("2^2")  # a wrapped static method still works
        assert F.q == 4
        assert F.matmul(np.eye(2, dtype=np.int16),
                        np.eye(2, dtype=np.int16)).tolist() == [[1, 0], [0, 1]]
    finally:
        tr.restore()
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw
    assert tr.summary()[0]["gfq.GF.parse"][0] == 1
    assert tr.counters["gfq.GF.matmul.ext_calls"] == 1
