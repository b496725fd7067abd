"""The per-service request switch.

"After the SODA Daemons have finished service priming, the SODA Master
will create a service switch for S [...] Co-located in one of the
virtual service nodes of S, the service switch will accept and direct
each client request to one of the virtual service nodes" (paper §3.4).

The serving path modelled per request:

1. the client's request message travels over the LAN to the switch's
   home node;
2. the switch spends a small slice of its home host's CPU classifying
   the request and consulting the policy (this serialises through a
   queue — a flooded switch backs up, the §3.5 DDoS caveat);
3. the request is forwarded to the chosen back-end node (loopback when
   co-located);
4. the back-end serves it; the response body returns directly from the
   back-end's host to the client (direct-server-return, so the switch
   never carries response bandwidth).

Every request runs one pipeline: ingress, the shed check, then an
attempt loop.  Each attempt gets a back-end from one *dispatch step*
and ends in one per-request tail — count the dispatch, close the
dispatch span, run the back-end, record the response time, notify the
outcome.  Crashed (and quarantined) nodes are skipped at selection; if
no healthy node remains the attempt fails with
:class:`ServiceUnavailableError`.

The dispatch step has two forms:

* *Batching off* (the default): a batch of one, run inline by the
  request — the dispatcher slot, the classify slice and selection; the
  tail then makes the forward hop.  No extra process or event.
* *Batching on* (:meth:`ServiceSwitch.enable_batching`, extension):
  same-class requests arriving within a small window coalesce into one
  batch that pays *one* dispatcher slot, one classify slice and one
  combined forward transfer per chosen back-end, so a burst of n
  requests costs O(groups) scheduling/LAN events instead of O(n).
  Selection still runs per member, so per-request accounting (ingress
  flow, response-time sample, outcome, span chain) is untouched; the
  dispatch span widens to cover the wait for the batch.

Failover (extension) is a property of the loop, not a separate path.
With a :attr:`ServiceSwitch.retry_policy` installed (capped exponential
backoff, see :class:`repro.faults.retry.BackoffPolicy` — duck-typed:
anything with ``max_attempts`` and ``delay(attempt)``) a failed attempt
backs off and re-dispatches — re-batching, when batching is on —
against replicas the request has not failed on yet.  With a
:attr:`ServiceSwitch.request_timeout_s` budget the loop has a deadline
(:class:`~repro.core.errors.RequestTimeoutError`).  With either
installed, each attempt's tail runs as its own process, which the
budget abandons on expiry.  Without a policy the loop runs one
attempt; without a budget it has no deadline.
A health checker (:class:`repro.faults.health.SwitchHealthChecker`) can
additionally :meth:`~ServiceSwitch.quarantine` nodes so dispatch never
even tries a dead replica between watchdog reboots.

SLA hooks (extension): a shedder installed by the SODA Master drops
requests when backlog saturates (class-priority load shedding, bronze
first — see :mod:`repro.sla.enforcement`), and outcome listeners (e.g.
an :class:`~repro.sla.monitor.SLOMonitor`) receive every per-request
outcome — ``(time, latency, "ok" | "failed" | "shed")`` — as it happens.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set

from repro.core.config import ServiceConfigFile
from repro.core.errors import RequestSheddedError, RequestTimeoutError, SODAError
from repro.core.node import (
    NodeResponse,
    Request,
    ServiceUnavailableError,
    VirtualServiceNode,
)
from repro.obs.metrics import registry_of
from repro.obs.tracing import tracer_of
from repro.core.policies import SwitchingPolicy, WeightedRoundRobinPolicy
from repro.net.http import REQUEST_SIZE_MB
from repro.net.lan import LAN
from repro.sim.kernel import Event, Simulator
from repro.sim.monitor import Monitor
from repro.sim.resources import Resource

__all__ = ["ServiceSwitch"]

# CPU work to accept, parse and dispatch one request at the switch,
# megacycles (a user-space L7 dispatcher).
SWITCH_CPU_MCYCLES = 0.6


class _DispatchBatch:
    """One open coalescing window of same-class requests."""

    __slots__ = ("key", "members", "full", "closed")

    def __init__(self, sim: Simulator, key: str):
        self.key = key
        # (request, exclusion set, joined-event) triples; each event
        # fires with ``(backend, exc)`` once the batch's shared work is
        # done.
        self.members: List[tuple] = []
        self.full: Event = Event(sim)
        self.closed = False


class ServiceSwitch:
    """Directs client requests of one service to its nodes."""

    def __init__(
        self,
        sim: Simulator,
        service_name: str,
        lan: LAN,
        nodes: List[VirtualServiceNode],
        config: ServiceConfigFile,
        policy: Optional[SwitchingPolicy] = None,
        home_node: Optional[VirtualServiceNode] = None,
    ):
        if not nodes:
            raise ValueError(f"switch for {service_name!r} needs at least one node")
        self.sim = sim
        self.service_name = service_name
        self.lan = lan
        self.nodes = list(nodes)
        self.config = config
        self.policy = policy or WeightedRoundRobinPolicy()
        self.home_node = home_node or nodes[0]
        if self.home_node not in self.nodes:
            raise ValueError("home node must be one of the service's nodes")
        # Switch processing serialises: one dispatcher thread.
        self._dispatcher = Resource(sim, capacity=1)
        self.dispatched = 0
        self.rejected = 0
        self.shedded = 0
        self.response_times = Monitor(f"switch:{service_name}")
        self.per_node_count: Dict[str, int] = {n.name: 0 for n in nodes}
        # SLA hooks: a shedder decides drops under load; outcome
        # listeners tap the per-request outcome stream.
        self.shedder: Optional[Any] = None
        self._outcome_listeners: List[Callable[[float, Optional[float], str], None]] = []
        # Failover hooks (off by default: one attempt, no deadline).
        self.retry_policy: Optional[Any] = None
        self.request_timeout_s: Optional[float] = None
        self.quarantined: Set[str] = set()
        self.failovers = 0
        self.timeouts = 0
        # Dispatch batching (off by default): (window_s, max_batch) when
        # enabled, plus the open batch per request class.
        self._batching: Optional[tuple] = None
        self._open_batches: Dict[str, _DispatchBatch] = {}
        self.batches_dispatched = 0
        # Market hook (extension): the owning tenant/ASP, set by the
        # SODA Master so per-request metrics and spans carry a tenant
        # dimension for isolation accounting.
        self.tenant: Optional[str] = None
        # Observability: metric children bound against whichever registry
        # is attached to the simulator (rebound if it changes).
        self._obs_cache: Optional[tuple] = None

    # -- observability (observes, never perturbs) ----------------------------
    def _obs_metrics(self) -> Optional[tuple]:
        """(registry, outcome counter, latency histogram, per-node
        counter, failover counter, timeout counter) or None."""
        registry = registry_of(self.sim)
        if registry is None:
            return None
        if self._obs_cache is None or self._obs_cache[0] is not registry:
            self._obs_cache = (
                registry,
                registry.counter(
                    "soda_switch_requests_total",
                    "Requests seen by a service switch, by outcome.",
                    ("service", "outcome"),
                ),
                registry.histogram(
                    "soda_switch_response_seconds",
                    "Client-visible response time through the switch.",
                    ("service",),
                ),
                registry.counter(
                    "soda_switch_dispatch_total",
                    "Requests dispatched to each back-end node.",
                    ("service", "node"),
                ),
                registry.counter(
                    "soda_switch_failovers_total",
                    "Dispatch attempts retried on another replica.",
                    ("service",),
                ),
                registry.counter(
                    "soda_switch_timeouts_total",
                    "Requests that exhausted their timeout budget.",
                    ("service",),
                ),
                registry.counter(
                    "soda_tenant_requests_total",
                    "Requests by owning tenant and outcome (market extension).",
                    ("tenant", "service", "outcome"),
                ),
            )
        return self._obs_cache

    def _obs_outcome(self, outcome: str, latency_s: Optional[float] = None) -> None:
        cache = self._obs_metrics()
        if cache is None:
            return
        requests, latency = cache[1], cache[2]
        requests.inc(service=self.service_name, outcome=outcome)
        if latency_s is not None:
            latency.observe(latency_s, service=self.service_name)
        if self.tenant is not None:
            cache[6].inc(
                tenant=self.tenant, service=self.service_name, outcome=outcome
            )

    # -- SLA hooks (extension) ----------------------------------------------
    def add_outcome_listener(
        self, listener: Callable[[float, Optional[float], str], None]
    ) -> None:
        """Subscribe ``listener(time, latency_s, outcome)`` to every request."""
        self._outcome_listeners.append(listener)

    def _notify(self, latency_s: Optional[float], outcome: str) -> None:
        for listener in self._outcome_listeners:
            listener(self.sim.now, latency_s, outcome)

    # -- dispatch batching (extension) ----------------------------------------
    def enable_batching(self, window_s: float = 0.001, max_batch: int = 32) -> None:
        """Coalesce same-class requests into shared dispatch batches.

        A request arriving while a batch for its class is open joins it;
        the batch dispatches when ``window_s`` elapses after it opened or
        when it reaches ``max_batch`` members, whichever comes first.
        A retried attempt re-batches with whatever batch is open then.
        """
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._batching = (window_s, max_batch)

    def disable_batching(self) -> None:
        """Stop opening new batches (open ones drain normally)."""
        self._batching = None

    # -- policy management (the ASP-facing hook, §3.4) -----------------------
    def set_policy(self, policy: SwitchingPolicy) -> None:
        """Replace the request switching policy with an ASP-specific one."""
        if not isinstance(policy, SwitchingPolicy):
            raise TypeError("policy must be a SwitchingPolicy")
        self.policy = policy

    # -- node management (SODA Master's resizing hooks) ------------------------
    def add_node(self, node: VirtualServiceNode) -> None:
        if node in self.nodes:
            raise ValueError(f"node {node.name} already behind the switch")
        self.nodes.append(node)
        self.per_node_count.setdefault(node.name, 0)

    def remove_node(self, node: VirtualServiceNode) -> None:
        if node not in self.nodes:
            raise ValueError(f"node {node.name} not behind the switch")
        if node is self.home_node and len(self.nodes) > 1:
            raise ValueError("cannot remove the switch's home node")
        self.nodes.remove(node)
        self.quarantined.discard(node.name)

    # -- health quarantine (failover extension) -------------------------------
    def quarantine(self, node: VirtualServiceNode) -> None:
        """Take a node out of dispatch rotation (health check failed).

        Idempotent; the node object stays behind the switch so the
        watchdog can still reboot it in place.
        """
        if node not in self.nodes:
            raise ValueError(f"node {node.name} not behind the switch")
        self.quarantined.add(node.name)

    def unquarantine(self, node: VirtualServiceNode) -> None:
        """Return a recovered node to dispatch rotation.  Idempotent."""
        self.quarantined.discard(node.name)

    def weights(self) -> Dict[str, int]:
        """Node name -> relative capacity, read from the config file."""
        by_endpoint = {(n.endpoint.ip, n.endpoint.port): n for n in self.nodes}
        weights: Dict[str, int] = {}
        for directive in self.config.backends:
            node = by_endpoint.get((directive.ip, directive.port))
            if node is not None:
                weights[node.name] = directive.capacity
        return weights

    # -- dispatch ------------------------------------------------------------
    def _healthy(self) -> List[VirtualServiceNode]:
        if self.quarantined:
            return [
                n for n in self.nodes
                if n.is_available and n.name not in self.quarantined
            ]
        return [n for n in self.nodes if n.is_available]

    def select(
        self,
        request: Optional[Request] = None,
        exclude: Iterable[str] = (),
    ) -> VirtualServiceNode:
        """Pick a back-end (no simulated time; used by serve and tests).

        Requests targeting a component of a partitionable service are
        restricted to that component's nodes.  ``exclude`` removes nodes
        by name — the attempt loop uses it to avoid re-trying a replica
        that already failed this request.
        """
        candidates = self._healthy()
        if exclude:
            candidates = [n for n in candidates if n.name not in exclude]
        if request is not None and request.component:
            candidates = [n for n in candidates if n.component == request.component]
        if not candidates:
            what = (
                f"component {request.component!r}"
                if request is not None and request.component
                else "node"
            )
            raise ServiceUnavailableError(
                f"service {self.service_name!r} has no healthy {what}"
            )
        choice = self.policy.choose(candidates, self.weights())
        if choice not in candidates:
            # Ill-behaving custom policy (§5): contain the damage to this
            # service by falling back to the first healthy node.
            choice = candidates[0]
        return choice

    def _pick(self, request: Request, tried: Set[str]) -> tuple:
        """``(backend, None)`` or ``(None, failure)``, avoiding ``tried``.

        When every live replica has already failed this request, the
        exclusion set resets so a watchdog-rebooted node gets a chance.
        """
        try:
            return self.select(request, exclude=tried), None
        except ServiceUnavailableError as exc:
            if not tried:
                return None, exc
        tried.clear()
        try:
            return self.select(request), None
        except ServiceUnavailableError as exc:
            return None, exc

    def serve(self, request: Request) -> Generator[Event, Any, NodeResponse]:
        """Full client-visible request path (simulated-process step)."""
        if self.home_node.torn_down:
            raise ServiceUnavailableError(f"switch of {self.service_name!r} is gone")
        started = self.sim.now
        # Observability: open the dispatch segment (and, for requests
        # arriving without a workload-created root span, the root too).
        # Spans only read the clock — the timing model is untouched.
        tracer = tracer_of(self.sim)
        lane = f"switch:{self.service_name}"
        root = dispatch = None
        owns_root = False
        if tracer is not None:
            root = request.trace
            if root is None:
                owns_root = True
                root = tracer.start_span(
                    "request", lane=lane, start=started, service=self.service_name
                )
                request = replace(request, trace=root)
            dispatch = tracer.start_span("dispatch", lane=lane, start=started, parent=root)
            if self.tenant is not None:
                dispatch.annotate(tenant=self.tenant)
        # 1. Client -> switch home node.
        inbound = self.lan.transfer(
            request.client, self.home_node.host.nic, REQUEST_SIZE_MB,
            label=f"switch:{self.service_name}:in",
        )
        yield inbound.done
        # SLA class-priority shedding: drop at ingress while backlog
        # saturates, before the request consumes a dispatcher slot.
        if self.shedder is not None and self.shedder.should_shed(self):
            self.shedded += 1
            self._notify(None, "shed")
            self._obs_outcome("shed")
            self._finish_spans(dispatch, root if owns_root else None, "shed")
            raise RequestSheddedError(
                f"service {self.service_name!r} shed a request under load"
            )
        # The attempt loop.  A retry policy or a budget runs each tail as
        # its own process (the budget abandons it, not cancels it — the
        # back-end finishes the work like a real server whose client
        # hung up); neither installed, the tail runs inline.
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        deadline = (
            None if self.request_timeout_s is None
            else started + self.request_timeout_s
        )
        guarded = policy is not None or deadline is not None
        tried: Set[str] = set()
        any_dispatched = False
        attempt = 0
        while True:
            attempt += 1
            # 2. The dispatch step (serialised through the dispatcher).
            forwarded = self._batching is not None
            if forwarded:
                backend, failure = yield from self._join_batch(request, tried)
            else:
                backend, failure = yield from self._classify(request, tried)
            if backend is not None:
                if deadline is not None and deadline - self.sim.now <= 0:
                    failure = self._timeout_failure()
                    break
                any_dispatched = True
                tail = self._attempt(backend, request, forwarded, dispatch)
                if not guarded:
                    response, exc = yield from tail
                else:
                    proc = self.sim.process(tail, name=f"attempt:{backend.name}")
                    if deadline is None:
                        response, exc = yield proc
                    else:
                        guard = self.sim.timeout(deadline - self.sim.now)
                        yield self.sim.any_of([proc, guard])
                        if proc.is_alive:
                            # Budget exhausted mid-attempt; abandon it.
                            failure = self._timeout_failure()
                            break
                        response, exc = proc.value
                if exc is None:
                    elapsed = self.sim.now - started
                    self.response_times.record(self.sim.now, elapsed)
                    self._notify(elapsed, "ok")
                    self._obs_outcome("ok", elapsed)
                    if owns_root:
                        root.finish(self.sim.now).annotate(node=response.node_name)
                    return response
                failure = exc
                tried.add(backend.name)
            if attempt >= max_attempts:
                break
            # Back off before the next attempt, clamped to the budget.
            self.failovers += 1
            cache = self._obs_metrics()
            if cache is not None:
                cache[4].inc(service=self.service_name)
            if dispatch is not None and dispatch.finished:
                # The re-dispatch (backoff included) is its own segment,
                # so the request's spans still tile its response time.
                dispatch = tracer.start_span(
                    "dispatch", lane=lane, start=self.sim.now, parent=root,
                    attempt=attempt + 1,
                )
                if self.tenant is not None:
                    dispatch.annotate(tenant=self.tenant)
            delay = policy.delay(attempt)
            if deadline is not None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    failure = self._timeout_failure()
                    break
                if delay > remaining:
                    delay = remaining
            if delay > 0:
                yield self.sim.timeout(delay)
        if any_dispatched:
            self.rejected += 1
        self._notify(None, "failed")
        self._obs_outcome("failed")
        self._finish_spans(dispatch, root if owns_root else None, "failed")
        raise failure

    # -- the dispatch step -----------------------------------------------------
    def _classify(
        self, request: Request, tried: Set[str]
    ) -> Generator[Event, Any, tuple]:
        """A batch of one, run inline: dispatcher slot, classify, select."""
        slot = self._dispatcher.request()
        try:
            yield slot
            yield self.sim.timeout(
                SWITCH_CPU_MCYCLES / self.home_node.host.cpu_mhz
            )
            return self._pick(request, tried)
        finally:
            self._dispatcher.release(slot)

    def _join_batch(
        self, request: Request, tried: Set[str]
    ) -> Generator[Event, Any, tuple]:
        """Join (or open) the request's class batch; wait for its work.

        Resumes with ``(backend, exc)`` once the batch has selected a
        back-end for this member and its forward transfer has landed.
        """
        window_s, max_batch = self._batching
        key = request.component
        batch = self._open_batches.get(key)
        if batch is None or batch.closed or len(batch.members) >= max_batch:
            batch = _DispatchBatch(self.sim, key)
            self._open_batches[key] = batch
            self.sim.process(
                self._run_batch(batch, window_s),
                name=f"batch:{self.service_name}:{key or '-'}",
            )
        joined = Event(self.sim)
        batch.members.append((request, tried, joined))
        if len(batch.members) >= max_batch and not batch.full.triggered:
            batch.full.succeed()
        return (yield joined)

    def _run_batch(
        self, batch: _DispatchBatch, window_s: float
    ) -> Generator[Event, Any, None]:
        """Batch side: one slot, one classify slice, one flow per group.

        Spawned when the batch opens; closes it after ``window_s`` or
        when it fills, then performs the coalesced dispatch work and
        fires every member's event — success carries the chosen
        back-end once that back-end's combined forward transfer lands.
        """
        guard = self.sim.timeout(window_s)
        if not batch.full.triggered:
            yield self.sim.any_of([guard, batch.full])
        batch.closed = True
        if self._open_batches.get(batch.key) is batch:
            del self._open_batches[batch.key]
        # One dispatcher slot and one classify slice for the whole batch
        # — this is the coalescing win on the switch's CPU.
        groups: Dict[VirtualServiceNode, List[Event]] = {}
        slot = self._dispatcher.request()
        try:
            yield slot
            yield self.sim.timeout(
                SWITCH_CPU_MCYCLES / self.home_node.host.cpu_mhz
            )
            for req, tried, joined in batch.members:
                backend, exc = self._pick(req, tried)
                if backend is None:
                    joined.succeed((None, exc))
                    continue
                groups.setdefault(backend, []).append(joined)
        finally:
            self._dispatcher.release(slot)
        self.batches_dispatched += 1
        # One combined forward transfer per chosen back-end; members
        # resume the instant their group's last byte lands.
        for backend, events in groups.items():
            flow = self.lan.transfer(
                self.home_node.host.nic, backend.host.nic,
                len(events) * REQUEST_SIZE_MB,
                label=f"switch:{self.service_name}:fwd",
            )
            flow.done.callbacks.append(
                lambda _ev, b=backend, evs=events: [
                    joined.succeed((b, None)) for joined in evs
                ]
            )

    # -- the per-request tail ----------------------------------------------------
    def _attempt(
        self, backend: VirtualServiceNode, request: Request, forwarded: bool, dispatch
    ) -> Generator[Event, Any, tuple]:
        """One attempt on ``backend``; returns ``(response, exc)``.

        Makes the forward hop unless a batch already did, counts the
        dispatch, closes the dispatch segment and runs the back-end.
        Catching :class:`SODAError` here keeps an abandoned (timed-out)
        attempt from failing a process nobody is left awaiting.
        """
        if not forwarded:
            # 3. Forward to the back-end (loopback when co-located).
            forward = self.lan.transfer(
                self.home_node.host.nic, backend.host.nic, REQUEST_SIZE_MB,
                label=f"switch:{self.service_name}:fwd",
            )
            yield forward.done
        # 4. Back-end serves; response returns directly to the client.
        self.dispatched += 1
        self.per_node_count[backend.name] = self.per_node_count.get(backend.name, 0) + 1
        cache = self._obs_metrics()
        if cache is not None:
            cache[3].inc(service=self.service_name, node=backend.name)
        if dispatch is not None and not dispatch.finished:
            # The back-end process bootstraps at this same instant, so
            # closing the dispatch segment here makes it contiguous with
            # the node's queue_wait segment.
            dispatch.finish(self.sim.now).annotate(node=backend.name)
        try:
            response = yield self.sim.process(
                backend.serve(request), name=f"serve:{backend.name}"
            )
        except SODAError as exc:
            return None, exc
        return response, None

    def _timeout_failure(self) -> RequestTimeoutError:
        self.timeouts += 1
        cache = self._obs_metrics()
        if cache is not None:
            cache[5].inc(service=self.service_name)
        return RequestTimeoutError(
            f"service {self.service_name!r} request exceeded its "
            f"{self.request_timeout_s:g}s budget"
        )

    def _finish_spans(self, dispatch, root, status: str) -> None:
        """Close still-open spans on an error path (no-op for None)."""
        now = self.sim.now
        if dispatch is not None and not dispatch.finished:
            dispatch.finish(now, status)
        if root is not None and not root.finished:
            root.finish(now, status)
