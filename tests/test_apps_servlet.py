"""Unit tests for the servlet DSL (repro.apps.servlet)."""

import gc

import pytest

from repro.apps.servlet import (
    Call,
    Compute,
    Request,
    Response,
    ServletContext,
    ServletError,
    callback_form,
)
from repro.metrics.trace import RequestRecord
from repro.net import NetworkFabric
from repro.sim import Simulator


def test_compute_rejects_negative_work():
    with pytest.raises(ValueError):
        Compute(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf")])
def test_compute_rejects_non_finite_work(work):
    with pytest.raises(ValueError, match="non-finite compute work"):
        Compute(work)


def test_request_ids_are_unique_and_increasing():
    a = Request("K", "op", 0.0)
    b = Request("K", "op", 0.0)
    assert b.id > a.id


def test_child_request_shares_root():
    root = Request("ViewStory", "ViewStory", 1.0)
    child = root.child("q0", 2.0, work_hint=0.001)
    grandchild = child.child("q0.sub", 3.0)
    assert child.root is root
    assert grandchild.root is root
    assert child.kind == "ViewStory"
    assert child.work_hint == 0.001


def test_record_lands_on_root_trace():
    root = Request("K", "op", 0.0)
    child = root.child("q", 1.0)
    child.record(1.5, "drop", "mysql")
    assert root.trace == [(1.5, "drop", "mysql")]
    assert child.trace is root.trace  # one list per request tree


def test_root_is_a_walk_not_a_self_reference():
    root = Request("K", "op", 0.0)
    leaf = root.child("a", 1.0).child("b", 2.0).child("c", 3.0)
    assert leaf.root is root
    assert leaf.parent.parent.root is root
    assert root.root is root
    assert root not in gc.get_referents(root)  # no cycle to collect


def test_drop_on_grandchild_marks_root_and_reaches_record():
    sim = Simulator()
    fabric = NetworkFabric(sim, latency=0.0, max_retransmits=0)
    full = fabric.listener("db", backlog=0)  # nobody accepts: a drop
    root = Request("K", "op", 0.0)
    grandchild = root.child("q", 0.0).child("q.sub", 0.0)
    clean = Request("K", "op", 0.0)
    assert clean.faults() == ((), ())
    fabric.send(full, grandchild)
    sim.run()
    assert root.faulted and not grandchild.faulted
    drops, sheds = root.faults()
    record = RequestRecord(root.id, "K", 0.0, sim.now, drops=drops,
                           sheds=sheds, failed=True)
    assert record.drops == [(0.0, "db")]
    assert record.sheds == () and record.was_dropped


def test_response_constructors():
    ok = Response.success({"rows": 3})
    err = Response.failure("boom")
    assert ok.ok and ok.value == {"rows": 3} and ok.error is None
    assert not err.ok and err.error == "boom"


def test_servlet_context_now_tracks_sim():
    sim = Simulator()
    ctx = ServletContext("srv", sim, sim.fork_rng("x"))
    sim.call_in(2.0, lambda: None)
    sim.run()
    assert ctx.now == 2.0


# ----------------------------------------------------------------------
# callback_form: the Fig 14 transformation
# ----------------------------------------------------------------------
class _RecordingEngine:
    """Synchronous engine: runs continuations immediately, logs steps."""

    def __init__(self, responses=None, failures=None):
        self.steps = []
        self.responses = dict(responses or {})
        self.failures = dict(failures or {})

    def compute(self, work, cont):
        self.steps.append(("compute", work))
        cont()

    def invoke(self, call, request, cont, on_error):
        self.steps.append(("call", call.target, call.operation))
        if call.operation in self.failures:
            on_error(self.failures[call.operation])
        else:
            cont(self.responses.get(call.operation))


def _two_query_servlet(ctx, request):
    yield Compute(0.001)
    first = yield Call("db", "q1")
    yield Compute(0.002)
    second = yield Call("db", "q2")
    return (first, second)


def test_callback_form_equivalent_to_generator():
    """The mechanical transformation preserves control flow and result."""
    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(responses={"q1": "r1", "q2": "r2"})
    results = []
    start = callback_form(_two_query_servlet)
    start(ctx, Request("K", "op", 0.0), engine, results.append)
    assert results == [("r1", "r2")]
    assert engine.steps == [
        ("compute", 0.001),
        ("call", "db", "q1"),
        ("compute", 0.002),
        ("call", "db", "q2"),
    ]


def test_callback_form_propagates_errors_to_handler():
    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(failures={"q1": ServletError("dropped")})
    errors = []
    start = callback_form(_two_query_servlet)
    start(ctx, Request("K", "op", 0.0), engine, lambda r: None,
          on_error=errors.append)
    assert len(errors) == 1
    assert "dropped" in str(errors[0])
    # processing stopped at the failing call
    assert engine.steps[-1] == ("call", "db", "q1")


def test_callback_form_servlet_can_catch_call_errors():
    def forgiving(ctx, request):
        yield Compute(0.001)
        try:
            value = yield Call("db", "q1")
        except ServletError:
            value = "fallback"
        return value

    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(failures={"q1": ServletError("nope")})
    results = []
    callback_form(forgiving)(ctx, Request("K", "op", 0.0), engine,
                             results.append)
    assert results == ["fallback"]


def test_callback_form_loop_control_flow():
    """Schneider's rules cover loops: a for-loop of calls transforms."""

    def loopy(ctx, request):
        total = []
        for i in range(3):
            value = yield Call("db", f"q{i}")
            total.append(value)
        return total

    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(responses={"q0": 0, "q1": 1, "q2": 2})
    results = []
    callback_form(loopy)(ctx, Request("K", "op", 0.0), engine, results.append)
    assert results == [[0, 1, 2]]
