import threading

from ledger import layers
from ledger.tracer import OP_LAYER, Span, Target, Tracer, self_times


def _span(sid, start, end, parent=None, name="x", layer="hdc", **attrs):
    return Span(sid, name, layer, start, parent=parent, end=end, **attrs)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 30, parent=1),
        _span(3, 40, 70, parent=1),
        _span(4, 45, 55, parent=3),
    ]
    own = self_times(spans)
    assert own == {1: 50, 2: 20, 3: 20, 4: 10}
    assert sum(own.values()) == 100


class _Base:
    def work(self, rows):
        return len(rows)


class _Child(_Base):
    pass


def test_install_wraps_inherited_methods_and_uninstall_restores_them():
    tracer = Tracer()
    path = f"{__name__}:_Child.work"
    tracer.install([
        Target(path, "child.work", "hdc", rows=lambda args: len(args[1])),
        Target(f"{__name__}:_Missing.work", "missing", "hdc"),
    ])
    assert "work" in vars(_Child)
    with tracer.span("op.call", rows=3):
        assert _Child().work([1, 2, 3]) == 3
    tracer.uninstall()
    assert "work" not in vars(_Child)
    assert _Base.work is vars(_Base)["work"]
    assert tracer.missing == [f"{__name__}:_Missing.work"]
    op, call = sorted(tracer.spans, key=lambda span: span.sid)
    assert (op.layer, call.layer, call.parent, call.rows) == (OP_LAYER, "hdc", op.sid, 3)


def test_spans_nest_per_thread():
    tracer = Tracer()

    def worker():
        with tracer.span("op.thread"):
            pass

    with tracer.span("op.main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(span.parent is None for span in tracer.spans)


def test_requests_split_into_http_app_wait_and_their_batch():
    client = [_span(1, 0, 100, name="op.request", layer=OP_LAYER, request="r1"),
              _span(2, 5, 95, name="op.request", layer=OP_LAYER, request="r2"),
              _span(3, 0, 50, name="op.request", layer=OP_LAYER, request="lost")]
    server = [
        _span(10, 10, 90, name="server.predict", layer="server", request="r1"),
        _span(11, 12, 88, parent=10, name="batching.top_k", layer="batching", request="r1"),
        _span(20, 15, 85, name="server.predict", layer="server", request="r2"),
        _span(21, 16, 84, parent=20, name="batching.top_k", layer="batching", request="r2"),
        _span(30, 40, 80, name="engine.top_k", layer="engine", keys=["r1", "r2"]),
        _span(31, 45, 75, parent=30, name="hdc.accumulate", layer="hdc", keys=["r1", "r2"]),
    ]
    result = layers.attribute_requests(client, server)
    assert result.matched == 2
    assert result.op_total == 100 + 90 + 50
    assert result.rows["server.http"] == (100 - 80) + (90 - 70)
    assert result.rows["server"] == (80 - 76) + (70 - 68)
    assert result.rows["batching"] == (76 - 40) + (68 - 40)
    assert result.rows["engine"] == 2 * 10 and result.rows["hdc"] == 2 * 30
    assert result.rows[OP_LAYER] == 50
    assert sum(result.rows.values()) == result.op_total
