"""Uncontended resource grants against a committed reference.

``Resource.request`` grants a free, waiter-less resource at once instead
of pushing the request onto its wait heap and popping it straight back.
:class:`ReferenceResource` keeps the heap round trip (committed copy).
A drawn script of requests, releases and cancels, at several times and
priorities, must grant in the same order, at the same virtual times and
with the same environment sequence numbers under both.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, PriorityResource, Resource
from repro.sim.resources import Request


class ReferenceMixin:
    """``request`` and ``release`` before the uncontended grant."""

    def request(self, priority: float = 0.0) -> Request:
        req = Request(self, priority)
        heapq.heappush(self._waiting,
                       (self._sort_key(req), next(self._seq), req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        if not request.granted:
            request.cancel()
            return
        request.cancelled = True
        self._in_use -= 1
        self._grant()


class ReferenceResource(ReferenceMixin, Resource):
    pass


class ReferencePriorityResource(ReferenceMixin, PriorityResource):
    pass


# a user: (start delay, priority, hold time, cancel after or None)
USERS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]),
              st.integers(0, 3),
              st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from([None, None, 0.0, 0.25])),
    min_size=1, max_size=12)


def play(cls, capacity, users):
    """Run ``users`` against a ``cls`` resource; return every event the
    environment scheduled as ``(time, priority, sequence number, kind)``
    (a grant's kind names its user), and the final resource state."""
    env = Environment()
    res = cls(env, capacity=capacity)
    owner = {}
    log = []
    schedule = env._schedule

    def logged(event, priority=1, delay=0.0, daemon=False):
        kind = owner.get(id(event), type(event).__name__)
        log.append((env.now + delay, priority, env._seq, kind))
        schedule(event, priority, delay, daemon)
    env._schedule = logged

    def user(k, delay, prio, hold, cancel_after):
        yield env.timeout(delay)
        req = res.request(priority=prio)
        owner[id(req)] = f"grant {k}"
        if req.triggered:
            # granted inside request(), before the owner was known
            log[-1] = log[-1][:3] + (f"grant {k}",)
        if cancel_after is not None and not req.granted:
            yield env.timeout(cancel_after)
            if not req.granted:
                res.release(req)  # an ungranted release cancels
                return
        yield req
        yield env.timeout(hold)
        res.release(req)

    for k, u in enumerate(users):
        env.process(user(k, *u))
    env.run()
    return log, res.in_use, res.queue_length


@given(USERS, st.integers(1, 2))
@settings(max_examples=300, deadline=None)
def test_grants_match_the_heap_round_trip(users, capacity):
    assert play(Resource, capacity, users) == \
        play(ReferenceResource, capacity, users)
    assert play(PriorityResource, capacity, users) == \
        play(ReferencePriorityResource, capacity, users)


def test_heap_of_cancelled_waiters_is_not_bypassed():
    # a free resource whose heap still holds cancelled waiters (a state
    # only a direct flag write reaches) takes the heap route: it purges
    # them and then grants, exactly as the reference does
    out = []
    for cls in (Resource, ReferenceResource):
        env = Environment()
        res = cls(env, capacity=1)
        stale = Request(res)
        stale.cancelled = True
        heapq.heappush(res._waiting, (0.0, next(res._seq), stale))
        req = res.request()
        out.append((req.granted, env._seq, res._waiting, res.in_use))
    assert out[0] == out[1] == (True, 1, [], 1)


def test_uncontended_grant_schedules_one_event():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    assert req.granted and req.triggered and res._waiting == []
    assert env._seq == 1 and len(env._queue) == 1
    res.release(req)
    assert res.in_use == 0 and env._seq == 1
