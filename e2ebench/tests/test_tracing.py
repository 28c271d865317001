"""Span recording and self-time arithmetic."""

import pytest

import tracing


def span(name, start, end, parent, tag=None):
    return [name, start, end, parent, tag]


def top_level_seconds(spans):
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),       # 0
        span("a", 1.0, 4.0, 0),            # 1
        span("a.x", 2.0, 3.0, 1),          # 2
        span("b", 5.0, 9.0, 0),            # 3
        span("b.x", 5.5, 6.5, 3),          # 4
        span("b.y", 6.0, 7.0, 3),          # 5: overlaps b.x
        span("late", 8.5, 12.0, 3),        # 6: runs past its parent
        span("other", 20.0, 21.0, -1),     # 7
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([
        10.0 - 3.0 - 4.0,   # root minus a and b
        3.0 - 1.0,          # a minus a.x
        1.0,
        4.0 - 1.5 - 0.5,    # b minus union(b.x, b.y) and clipped late
        1.0, 1.0, 3.5, 1.0,
    ])


def test_nested_self_times_add_up_to_the_top_spans():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.x", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("other", 20.0, 21.0, -1),
    ]
    assert sum(tracing.self_times(spans)) == pytest.approx(
        top_level_seconds(spans)) == pytest.approx(11.0)


def test_layer_self_seconds_group_by_layer():
    spans = [
        span("CoalescingScheduler.submit", 0.0, 5.0, -1),
        span("AdmissionController.admit", 0.5, 1.0, 0),
        span("ExecutionEngine.run", 1.0, 4.0, 0),
        span("ConcurrentBFS.run", 1.5, 3.5, 2),
        span("GCD.launch", 2.0, 2.5, 3),
        span("KernelCostModel.evaluate", 2.1, 2.2, 4),
    ]
    layers = tracing.layer_self_seconds(spans)
    assert layers == pytest.approx({
        "service.scheduler": 1.5,
        "service.admission": 0.5,
        "service.execution": 1.0,
        "xbfs.concurrent": 1.5,
        "gcd": 0.5,
    })
    assert sum(layers.values()) == pytest.approx(top_level_seconds(spans))


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrappers_record_nesting_and_restore():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    seen = []
    rec.wrap(Toy, "outer", "Toy.outer", tag=lambda a: a[1])
    rec.wrap(Toy, "inner", "Toy.inner", after=lambda r, a: seen.append(r))
    try:
        assert Toy().outer(3) == 7
    finally:
        rec.restore()
    assert seen == [6]
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("Toy.outer", -1, 3), ("Toy.inner", 0, None)]
    assert rec.spans[0][1] < rec.spans[1][1] < rec.spans[1][2] < rec.spans[0][2]
    assert "wrapper" not in Toy.__dict__["outer"].__code__.co_name
    assert Toy().outer(1) == 3 and len(rec.spans) == 2


def test_exceptions_still_close_the_span():
    rec = tracing.SpanRecorder()

    class Boom:
        def go(self):
            raise ValueError("x")

    rec.wrap(Boom, "go", "Boom.go")
    with pytest.raises(ValueError):
        Boom().go()
    rec.restore()
    assert rec.spans[0][2] is not None and not rec._stack
