"""Flat structure-of-arrays (SoA) stepping loop of the DES engine.

This is the one loop behind :meth:`repro.simulation.engine.Simulator.run`,
on every array backend and for every registered arbitration policy.  It
replays *exactly* the semantics of the reference loop
(``Simulator._run_reference``, kept as the test oracle) on a flat data
layout and must stay byte-identical to it: traces, metrics, waiting
statistics, utilization, event counts and error messages are all
compared bit-for-bit by the differential test suite.

SoA event calendar — invariants
-------------------------------
* The heap holds bare ``(time, seq)`` 2-tuples; the per-event payload
  lives in append-only parallel lists ``ev_actor[seq]`` / ``ev_gen[seq]``
  indexed by the sequence number.  Sequence numbers are allocated in
  start order, so heap ties on ``time`` break exactly like the reference
  loop's ``(time, sequence, ...)`` tuples.
* Generation-counter invalidation is kept: preempting an actor bumps
  ``generation[actor]`` so its in-flight completion event goes stale and
  is skipped (and counted) on pop.  Non-preemptive policies never bump a
  generation and skip the bookkeeping entirely (``ev_gen`` stays empty).
* Stepping is event-horizon batched: all events that share the current
  timestamp are retired in one pass before the clock advances.  Because
  execution times are strictly positive, retiring an event can never
  schedule another event at the *same* timestamp, so the batch is closed
  under processing.  Within a batch, events retire strictly in sequence
  order — identical to the reference loop's one-at-a-time pops.
* Builtin arbitration policies dispatch on a precomputed integer policy
  code with per-processor flat queues (sorted lists for fcfs/priority,
  membership bitmaps plus rotation cursors for the round-robin
  policies); pick/enqueue outcomes are the same as the pluggable
  arbiter objects.  Every other registered policy takes the
  :data:`GENERIC` code, which drives the registry's
  :class:`~repro.simulation.arbiter.Arbiter` objects through
  ``enqueue`` / ``pick`` / ``preemptive`` / ``preempts`` exactly as the
  reference loop does.
* ``touched`` processor collections remain real Python ``set``s built
  with the reference loop's exact insertion sequence: set iteration
  order determines start order (and therefore sequence-number
  assignment) at shared timestamps, and for processor indices >= 8
  CPython's open addressing makes that order insertion-dependent, so no
  recomputed ordering (ascending, bitmask, ...) is byte-safe on larger
  platforms.
"""

from __future__ import annotations

import random
import time as _time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.exceptions import AnalysisError, DeadlockError
from repro.simulation.metrics import (
    EngineStats,
    SimulationResult,
    WaitingStatistics,
    metrics_from_completions,
)
from repro.simulation.trace import TraceEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.engine import Simulator

#: Integer dispatch codes for the builtin policies (canonical names).
POLICY_CODES: Dict[str, int] = {
    "fcfs": 0,
    "round_robin": 1,
    "weighted_round_robin": 2,
    "priority": 3,
    "priority_preemptive": 4,
}

#: Policy code for registered policies outside :data:`POLICY_CODES`.
GENERIC = 5

_INF = float("inf")


def duration_error(
    duration: float, application: str, actor: str
) -> AnalysisError:
    """The error both loops raise for a sampled execution time that is
    not a positive finite number."""
    kind = "non-positive" if duration <= 0 else "non-finite"
    return AnalysisError(
        f"time model produced a {kind} execution time ({duration}) "
        f"for {application}.{actor}"
    )


def run_fast(sim: "Simulator") -> SimulationResult:
    """Run ``sim`` on the flat SoA core; result matches the reference loop."""
    t_setup = _time.perf_counter()
    config = sim.config
    from repro.core.registry import ARBITERS

    # Context before policy lookup: the reference loop's error order.
    context = sim._arbiter_context()
    policy = POLICY_CODES.get(ARBITERS.get(config.arbitration).name, GENERIC)
    arbiters: List = []
    if policy == GENERIC:
        from repro.simulation.arbiter import make_arbiter

        arbiters = [
            make_arbiter(config.arbitration, member_list, context)
            for member_list in sim._members
        ]
    preemptive = policy == 4 or policy == GENERIC

    rng = random.Random(config.seed)
    time_model = config.time_model
    if time_model is None:
        default_time = True
        sample = None
    else:
        from repro.simulation.engine import TimeModel

        # The base TimeModel returns the nominal time untouched, so the
        # tau lookup below is bit-identical and skips the call + RNG.
        default_time = type(time_model) is TimeModel
        sample = time_model.sample

    n = len(sim._app_of)
    n_proc = len(sim._members)
    app_str = sim._app_of
    name_of = sim._name_of
    tau = sim._tau
    proc_of = sim._proc_of
    prio = [context.priority_of(a) for a in range(n)]
    weight_of = [context.weight_of(a) for a in range(n)]
    if policy == 2:
        # Same per-member validation the arbiter constructor performs.
        from repro.exceptions import MappingError
        from repro.wcrt.weighted_round_robin import validate_weights

        for member_list in sim._members:
            validate_weights(
                {a: weight_of[a] for a in member_list}, error=MappingError
            )

    in_pairs: List[Tuple[Tuple[int, int], ...]] = [
        tuple((cid, sim._chan_cons[cid]) for cid in sim._in_channels[a])
        for a in range(n)
    ]
    out_trip: List[Tuple[Tuple[int, int, int], ...]] = [
        tuple(
            (cid, sim._chan_prod[cid], sim._chan_dst[cid])
            for cid in sim._out_channels[a]
        )
        for a in range(n)
    ]
    members = sim._members

    apps = [g.name for g in sim.graphs]
    n_apps = len(apps)
    quota = [0] * n
    app_of = [0] * n
    app_actors: List[List[int]] = [[] for _ in apps]
    for ai, graph in enumerate(sim.graphs):
        quotas = sim._trackers[graph.name]._quotas
        for actor in graph.actors:
            aid = sim._id_of[(graph.name, actor.name)]
            quota[aid] = quotas[actor.name]
            app_of[aid] = ai
            app_actors[ai].append(aid)

    tokens = list(sim._chan_tokens)
    # state: 0 = idle, 1 = queued, 2 = executing (reference loop's two
    # boolean arrays folded into one).
    state = [0] * n
    busy = [False] * n_proc
    running = [-1] * n_proc
    busy_time = [0.0] * n_proc
    request_time = [0.0] * n
    waiting_total = [0.0] * n
    waiting_max = [0.0] * n
    waiting_count = [0] * n
    generation = [0] * n
    remaining: List[Optional[float]] = [None] * n
    scheduled_end = [0.0] * n

    # Per-policy queues.  fcfs: (time, aid); priority: (-prio, rank,
    # aid) kept sorted so pop(0) is the arbiter's min(); preemptive:
    # (-prio, time, aid).  rr/wrr: in_q bitmap + per-proc counters.
    queues: List[List] = [[] for _ in range(n_proc)]
    in_q = [False] * n
    qcount = [0] * n_proc
    position = [0] * n_proc
    credit = [
        (weight_of[members[p][0]] if members[p] else 0) for p in range(n_proc)
    ]
    rank_of = [0] * n
    for p in range(n_proc):
        for rank, aid in enumerate(members[p]):
            rank_of[aid] = rank

    # O(1)-amortized iteration tracking: per-app minimum iteration count
    # plus how many actors currently sit at that minimum.
    fires = [0] * n
    iters = [0] * n
    app_min = [0] * n_apps
    app_at_min = [len(a) for a in app_actors]
    completion_times: List[List[float]] = [[] for _ in apps]
    target = config.target_iterations
    done = [False] * n_apps
    apps_left = n_apps

    heap: List[Tuple[float, int]] = []
    ev_actor: List[int] = []
    ev_gen: List[int] = []

    record = config.record_trace
    trace_slot = [-1] * n
    tr_aid: List[int] = []
    tr_start: List[float] = []
    tr_end: List[float] = []

    events = 0
    stale = 0
    preemptions = 0
    end_time = 0.0
    max_events = config.max_events
    horizon = config.horizon

    # ------------------------------------------------------------------
    def enqueue(aid: int, now: float) -> None:
        p = proc_of[aid]
        if policy == 0:
            q = queues[p]
            entry = (now, aid)
            lo = len(q)
            while lo > 0 and q[lo - 1] > entry:
                lo -= 1
            q.insert(lo, entry)
        elif policy == GENERIC:
            arbiters[p].enqueue(aid, now)
        elif policy == 3:
            q = queues[p]
            entry = (-prio[aid], rank_of[aid], aid)
            lo = len(q)
            while lo > 0 and q[lo - 1] > entry:
                lo -= 1
            q.insert(lo, entry)
        elif policy == 4:
            q = queues[p]
            entry = (-prio[aid], now, aid)
            lo = len(q)
            while lo > 0 and q[lo - 1] > entry:
                lo -= 1
            q.insert(lo, entry)
        else:  # round-robin policies
            if not in_q[aid]:
                in_q[aid] = True
                qcount[p] += 1

    def pick(tp: int) -> int:
        """Remove and return the next actor for ``tp`` (or -1)."""
        if policy == 0:
            q = queues[tp]
            return q.pop(0)[1] if q else -1
        if policy == GENERIC:
            aid = arbiters[tp].pick()
            return -1 if aid is None else aid
        if policy == 3 or policy == 4:
            q = queues[tp]
            return q.pop(0)[2] if q else -1
        if not qcount[tp]:
            return -1
        ms = members[tp]
        nm = len(ms)
        if policy == 1:
            pos = position[tp]
            for off in range(nm):
                idx = pos + off
                if idx >= nm:
                    idx -= nm
                cand = ms[idx]
                if in_q[cand]:
                    in_q[cand] = False
                    qcount[tp] -= 1
                    idx += 1
                    position[tp] = idx if idx < nm else 0
                    return cand
            return -1  # pragma: no cover - queued subset of members
        for _ in range(nm + 1):
            pos = position[tp]
            cand = ms[pos]
            if credit[tp] > 0 and in_q[cand]:
                in_q[cand] = False
                qcount[tp] -= 1
                credit[tp] -= 1
                if credit[tp] == 0:
                    pos += 1
                    if pos >= nm:
                        pos = 0
                    position[tp] = pos
                    credit[tp] = weight_of[ms[pos]]
                return cand
            pos += 1
            if pos >= nm:
                pos = 0
            position[tp] = pos
            credit[tp] = weight_of[ms[pos]]
        return -1  # pragma: no cover - queued subset of members

    def start_next(tp: int, now: float) -> None:
        """Cold-path start (priming, post-preemption); the event loop
        inlines an identical block."""
        if busy[tp]:
            return
        aid = pick(tp)
        if aid < 0:
            return
        state[aid] = 2
        busy[tp] = True
        running[tp] = aid
        waited = now - request_time[aid]
        waiting_total[aid] += waited
        if waited > waiting_max[aid]:
            waiting_max[aid] = waited
        resumed_for = remaining[aid] if preemptive else None
        if resumed_for is not None:
            remaining[aid] = None
            duration = resumed_for
        else:
            waiting_count[aid] += 1
            for cid, cons in in_pairs[aid]:
                tokens[cid] -= cons
            if default_time:
                duration = tau[aid]
            else:
                duration = sample(app_str[aid], name_of[aid], tau[aid], rng)
            if not 0.0 < duration < _INF:
                raise duration_error(duration, app_str[aid], name_of[aid])
        end = now + duration
        busy_time[tp] += duration
        if preemptive:
            scheduled_end[aid] = end
        seq = len(ev_actor)
        ev_actor.append(aid)
        if preemptive:
            ev_gen.append(generation[aid])
        heappush(heap, (end, seq))
        if record:
            trace_slot[aid] = len(tr_aid)
            tr_aid.append(aid)
            tr_start.append(now)
            tr_end.append(end)

    def do_preempt(p2: int, now: float) -> None:
        """Suspend the running actor of ``p2``; the caller has already
        checked that the queue head outranks it."""
        nonlocal preemptions
        victim = running[p2]
        q = queues[p2]
        leftover = scheduled_end[victim] - now
        if leftover <= 0:
            # Completion is due at this very instant; let it finish.
            return
        preemptions += 1
        generation[victim] += 1
        remaining[victim] = leftover
        busy_time[p2] -= leftover
        state[victim] = 1
        request_time[victim] = now
        if policy == GENERIC:
            arbiters[p2].enqueue(victim, now)
        else:
            entry = (-prio[victim], now, victim)
            lo = len(q)
            while lo > 0 and q[lo - 1] > entry:
                lo -= 1
            q.insert(lo, entry)
        busy[p2] = False
        running[p2] = -1
        if record:
            tr_end[trace_slot[victim]] = now
        start_next(p2, now)

    # ------------------------------------------------------------------
    t_step = _time.perf_counter()
    touched: set = set()
    for aid in range(n):
        if state[aid]:
            continue
        ok = True
        for cid, cons in in_pairs[aid]:
            if tokens[cid] < cons:
                ok = False
                break
        if ok:
            state[aid] = 1
            request_time[aid] = 0.0
            enqueue(aid, 0.0)
            touched.add(proc_of[aid])
    for p in touched:
        start_next(p, 0.0)

    negp = [-x for x in prio]
    stop = False
    broke = False
    hpush = heappush
    hpop = heappop
    inf = _INF
    ev_append = ev_actor.append
    gen_append = ev_gen.append
    tr_aid_append = tr_aid.append
    tr_start_append = tr_start.append
    tr_end_append = tr_end.append
    # Event times are finite, so an infinite sentinel makes the horizon
    # check branch-free when no horizon is configured.
    horizon_f = inf if horizon is None else horizon
    try:
        while heap:
            now, seq = hpop(heap)
            if now > horizon_f:
                broke = True
                break
            while True:
                events += 1
                if events > max_events:
                    raise AnalysisError(
                        f"simulation exceeded {max_events} events; "
                        "lower target_iterations or set a horizon"
                    )
                aid = ev_actor[seq]
                if preemptive and ev_gen[seq] != generation[aid]:
                    stale += 1
                else:
                    end_time = now
                    state[aid] = 0
                    p = proc_of[aid]
                    busy[p] = False
                    running[p] = -1
                    f = fires[aid] + 1
                    fires[aid] = f
                    if not f % quota[aid]:
                        it = iters[aid] + 1
                        iters[aid] = it
                        ai = app_of[aid]
                        if it - 1 == app_min[ai]:
                            c = app_at_min[ai] - 1
                            if c:
                                app_at_min[ai] = c
                            else:
                                app_min[ai] = it
                                completion_times[ai].append(now)
                                c = 0
                                for a2 in app_actors[ai]:
                                    if iters[a2] == it:
                                        c += 1
                                app_at_min[ai] = c
                                if (
                                    target is not None
                                    and not done[ai]
                                    and it >= target
                                ):
                                    done[ai] = True
                                    apps_left -= 1
                                    if not apps_left:
                                        stop = True
                                        break
                    # Token production + requests; enqueue is inlined per
                    # policy — keep in lockstep with the closure above.
                    touched = set()
                    for cid, prod, dst in out_trip[aid]:
                        tokens[cid] += prod
                        if not state[dst]:
                            ok = True
                            for cid2, cons in in_pairs[dst]:
                                if tokens[cid2] < cons:
                                    ok = False
                                    break
                            if ok:
                                state[dst] = 1
                                request_time[dst] = now
                                p2 = proc_of[dst]
                                touched.add(p2)
                                if policy == 0:
                                    q = queues[p2]
                                    entry = (now, dst)
                                    lo = len(q)
                                    while lo > 0 and q[lo - 1] > entry:
                                        lo -= 1
                                    q.insert(lo, entry)
                                elif policy == GENERIC:
                                    arb = arbiters[p2]
                                    arb.enqueue(dst, now)
                                    if (
                                        arb.preemptive
                                        and busy[p2]
                                        and arb.preempts(running[p2])
                                    ):
                                        do_preempt(p2, now)
                                elif policy == 3:
                                    q = queues[p2]
                                    entry = (negp[dst], rank_of[dst], dst)
                                    lo = len(q)
                                    while lo > 0 and q[lo - 1] > entry:
                                        lo -= 1
                                    q.insert(lo, entry)
                                elif policy == 4:
                                    q = queues[p2]
                                    entry = (negp[dst], now, dst)
                                    lo = len(q)
                                    while lo > 0 and q[lo - 1] > entry:
                                        lo -= 1
                                    q.insert(lo, entry)
                                    if busy[p2] and q[0][0] < negp[running[p2]]:
                                        do_preempt(p2, now)
                                elif not in_q[dst]:
                                    in_q[dst] = True
                                    qcount[p2] += 1
                    if not state[aid]:
                        ok = True
                        for cid2, cons in in_pairs[aid]:
                            if tokens[cid2] < cons:
                                ok = False
                                break
                        if ok:
                            state[aid] = 1
                            request_time[aid] = now
                            touched.add(p)
                            if policy == 0:
                                q = queues[p]
                                entry = (now, aid)
                                lo = len(q)
                                while lo > 0 and q[lo - 1] > entry:
                                    lo -= 1
                                q.insert(lo, entry)
                            elif policy == GENERIC:
                                arb = arbiters[p]
                                arb.enqueue(aid, now)
                                if (
                                    arb.preemptive
                                    and busy[p]
                                    and arb.preempts(running[p])
                                ):
                                    do_preempt(p, now)
                            elif policy == 3:
                                q = queues[p]
                                entry = (negp[aid], rank_of[aid], aid)
                                lo = len(q)
                                while lo > 0 and q[lo - 1] > entry:
                                    lo -= 1
                                q.insert(lo, entry)
                            elif policy == 4:
                                q = queues[p]
                                entry = (negp[aid], now, aid)
                                lo = len(q)
                                while lo > 0 and q[lo - 1] > entry:
                                    lo -= 1
                                q.insert(lo, entry)
                                if busy[p] and q[0][0] < negp[running[p]]:
                                    do_preempt(p, now)
                            elif not in_q[aid]:
                                in_q[aid] = True
                                qcount[p] += 1
                    touched.add(p)
                    # Inlined start_next (hot path) — keep in lockstep with
                    # the closure above.
                    for tp in touched:
                        if busy[tp]:
                            continue
                        if policy == 0:
                            q = queues[tp]
                            if not q:
                                continue
                            aid2 = q.pop(0)[1]
                        elif policy == GENERIC:
                            aid2 = arbiters[tp].pick()
                            if aid2 is None:
                                continue
                        elif policy > 2:
                            q = queues[tp]
                            if not q:
                                continue
                            aid2 = q.pop(0)[2]
                        elif not qcount[tp]:
                            continue
                        elif policy == 1:
                            # qcount > 0 guarantees the rotation scan finds a
                            # queued member, so the walk needs no bound.
                            ms = members[tp]
                            nm = len(ms)
                            idx = position[tp]
                            while True:
                                aid2 = ms[idx]
                                idx += 1
                                if idx >= nm:
                                    idx = 0
                                if in_q[aid2]:
                                    in_q[aid2] = False
                                    qcount[tp] -= 1
                                    position[tp] = idx
                                    break
                        else:
                            ms = members[tp]
                            nm = len(ms)
                            pos = position[tp]
                            cr = credit[tp]
                            while True:
                                aid2 = ms[pos]
                                if cr > 0 and in_q[aid2]:
                                    in_q[aid2] = False
                                    qcount[tp] -= 1
                                    cr -= 1
                                    if cr == 0:
                                        pos += 1
                                        if pos >= nm:
                                            pos = 0
                                        cr = weight_of[ms[pos]]
                                    position[tp] = pos
                                    credit[tp] = cr
                                    break
                                pos += 1
                                if pos >= nm:
                                    pos = 0
                                cr = weight_of[ms[pos]]
                        state[aid2] = 2
                        busy[tp] = True
                        running[tp] = aid2
                        waited = now - request_time[aid2]
                        waiting_total[aid2] += waited
                        if waited > waiting_max[aid2]:
                            waiting_max[aid2] = waited
                        if preemptive and remaining[aid2] is not None:
                            duration = remaining[aid2]
                            remaining[aid2] = None
                        else:
                            waiting_count[aid2] += 1
                            for cid2, cons in in_pairs[aid2]:
                                tokens[cid2] -= cons
                            if default_time:
                                duration = tau[aid2]
                            else:
                                duration = sample(
                                    app_str[aid2], name_of[aid2], tau[aid2], rng
                                )
                            if not 0.0 < duration < inf:
                                raise duration_error(
                                    duration, app_str[aid2], name_of[aid2]
                                )
                        end = now + duration
                        busy_time[tp] += duration
                        if preemptive:
                            scheduled_end[aid2] = end
                        seq2 = len(ev_actor)
                        ev_append(aid2)
                        if preemptive:
                            gen_append(generation[aid2])
                        hpush(heap, (end, seq2))
                        if record:
                            trace_slot[aid2] = len(tr_aid)
                            tr_aid_append(aid2)
                            tr_start_append(now)
                            tr_end_append(end)
                if heap and heap[0][0] == now:
                    seq = hpop(heap)[1]
                    continue
                break
            if stop:
                broke = True
                break
    finally:
        # The reference loop streams every firing into the
        # per-application IterationTrackers; the fast loop counts in flat
        # arrays instead, so rebuild the trackers' observable state
        # however the loop ends — callers (and tests) inspect
        # ``sim._trackers`` after deadlocked, horizon-cut or aborted runs
        # too.
        for ai in range(n_apps):
            tracker = sim._trackers[apps[ai]]
            for aid in app_actors[ai]:
                tracker._fires[name_of[aid]] = fires[aid]
            tracker.completion_times = list(completion_times[ai])

    if not broke and target is not None and apps_left:
        stuck = [apps[ai] for ai in range(n_apps) if not done[ai]]
        raise DeadlockError(
            f"simulation ran out of events before applications "
            f"{stuck!r} reached {target} iterations"
        )

    # ------------------------------------------------------------------
    t_collect = _time.perf_counter()
    metrics = {
        apps[ai]: metrics_from_completions(
            apps[ai],
            completion_times[ai],
            warmup_fraction=config.warmup_fraction,
        )
        for ai in range(n_apps)
    }
    processor_names = sim._processor_names
    utilization: Dict[str, float] = {}
    if end_time > 0:
        for p, pname in enumerate(processor_names):
            utilization[pname] = min(1.0, busy_time[p] / end_time)
    else:  # pragma: no cover - zero-length run
        utilization = {pname: 0.0 for pname in processor_names}
    waiting: Dict[Tuple[str, str], WaitingStatistics] = {}
    for aid in range(n):
        if not waiting_count[aid]:
            continue
        waiting[(app_str[aid], name_of[aid])] = WaitingStatistics(
            mean=waiting_total[aid] / waiting_count[aid],
            maximum=waiting_max[aid],
            samples=waiting_count[aid],
        )
    trace: Optional[List[TraceEntry]] = None
    if record:
        trace = [
            TraceEntry(
                processor=processor_names[proc_of[a]],
                application=app_str[a],
                actor=name_of[a],
                start=s,
                end=e,
            )
            for a, s, e in zip(tr_aid, tr_start, tr_end)
        ]
    t_done = _time.perf_counter()
    sim._last_stats = EngineStats(
        events_dispatched=events,
        stale_events=stale,
        preemptions=preemptions,
        phase_seconds={
            "setup": t_step - t_setup,
            "step": t_collect - t_step,
            "collect": t_done - t_collect,
        },
    )
    return SimulationResult(
        metrics=metrics,
        end_time=end_time,
        events_processed=events,
        trace=trace,
        processor_utilization=utilization,
        waiting=waiting,
    )
