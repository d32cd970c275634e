"""Tests of the benchmark's layer timers (``perfbench/layers.py``).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import pytest

from layers import LAYER_TARGETS, Tracer, resolve


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class Interrupt(Exception):
    pass


def make_toy(clock):
    """A toy layer: a generator entry point that calls a plain one."""

    class Toy:
        def leaf(self):
            clock.advance(2.0)
            return "leaf"

        def work(self):
            clock.advance(1.0)
            self.leaf()
            try:
                got = yield "first"
            except Interrupt:
                clock.advance(5.0)
                return "interrupted"
            clock.advance(3.0)
            return got * 2

    def resume(gen, value):
        clock.advance(0.5)
        return gen.send(value)

    return Toy, resume


def outer_process(toy):
    result = yield from toy.work()
    return result


@pytest.fixture
def toy():
    clock = FakeClock()
    tracer = Tracer(clock)
    Toy, resume = make_toy(clock)
    tracer.patch(Toy, "leaf", tracer.wrap(Toy.leaf, "toy.leaf"))
    tracer.patch(Toy, "work", tracer.wrap(Toy.work, "toy.work"))
    step = tracer.wrap(resume, "engine.step")
    yield tracer, clock, Toy, step
    tracer.uninstall()


def test_self_time_excludes_suspended_and_nested_time(toy):
    tracer, clock, Toy, step = toy
    gen = outer_process(Toy())
    assert step(gen, None) == "first"
    clock.advance(100.0)  # suspended: charged to nobody
    with pytest.raises(StopIteration) as stop:
        step(gen, 21)
    assert stop.value.value == 42
    assert tracer.calls == {"engine.step": 2, "toy.work": 1, "toy.leaf": 1}
    assert tracer.self_s == {"engine.step": 1.0, "toy.work": 4.0,
                             "toy.leaf": 2.0}
    assert tracer._stack == []


def test_exception_thrown_into_wrapped_generator_is_delivered(toy):
    tracer, clock, Toy, step = toy
    gen = outer_process(Toy())
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(Interrupt("stop"))
    assert stop.value.value == "interrupted"
    assert tracer.self_s["toy.work"] == 1.0 + 5.0


def test_uncaught_exception_propagates_unchanged(toy):
    tracer, clock, Toy, step = toy
    gen = Toy().work()
    next(gen)
    exc = KeyError("boom")
    with pytest.raises(KeyError) as raised:
        gen.throw(exc)
    assert raised.value is exc
    assert tracer._stack == []


def test_exception_from_plain_entry_pops_its_frame():
    tracer = Tracer(FakeClock())

    def fails():
        raise ValueError("no")

    with pytest.raises(ValueError, match="no"):
        tracer.wrap(fails, "x")()
    assert tracer._stack == [] and tracer.calls == {"x": 1}


def test_generator_close_reaches_the_wrapped_generator(toy):
    tracer, clock, Toy, step = toy
    closed = []

    def body():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracer.wrap(body, "b")()
    next(gen)
    gen.close()
    assert closed == [True]


def _attributes():
    out = {}
    for _name, module, path in LAYER_TARGETS:
        owner, attr = resolve(module, path)
        out[(module, path)] = vars(owner).get(attr) \
            if isinstance(owner, type) else getattr(owner, attr)
    from repro.metrics.collector import MetricsCollector

    out["attach_node"] = MetricsCollector.attach_node
    return out


def test_traced_pass_is_identical_and_uninstall_restores_originals():
    from repro.experiments.runner import GangConfig, run_experiment

    cfg = GangConfig("LU", "C", nprocs=2, policy="so/ao/ai/bg", seed=1,
                     scale=0.02)
    before = _attributes()
    plain = run_experiment(cfg)
    with Tracer() as tracer:
        assert _attributes() != before
        timed = run_experiment(cfg)
    assert _attributes() == before

    for field in ("makespan", "events_simulated", "events_dispatched",
                  "pages_read", "pages_written", "switch_count",
                  "vmm_stats"):
        assert getattr(timed, field) == getattr(plain, field), field
    for layer in ("sim.step", "mem.touch", "mem.evict_batch",
                  "core.adaptive_page_out", "disk.submit", "metrics.hook"):
        assert tracer.calls[layer] > 0, layer
        assert tracer.self_s[layer] > 0.0, layer
    assert tracer._stack == []

    counted = dict(tracer.calls)
    run_experiment(cfg)
    assert tracer.calls == counted
