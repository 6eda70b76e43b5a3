"""The per-layer ledger: the same seeded requests, replayed layer by layer.

Each layer is called through its public functions in-process and timed
from outside, chunk by chunk.  A layer's self time is its call minus
the calls of the layers beneath it on the same requests: the dispatcher
minus the backend it routes to, the router minus the shell it routes
to, the shell minus the PSL resolutions and index probes it makes.

Every stack that resolves hosts gets its own ``PublicSuffixList`` and
sees the same request sequence, so each PSL's cache is in the same
state when a given request reaches it; without that, the stack timed
second would find every host the first one just resolved.

Layers are named by module: ``psl``, ``index`` (``serve.index``),
``shell`` (``serve.service``), ``epoch``/``snapshot`` (``serve.epoch``,
``serve.epochfmt``, ``serve.snapshot``), ``cluster``, ``dispatcher``
(``api.dispatcher``), ``codec`` (``api.codec``), ``frame``
(``net.frame``).
"""

from __future__ import annotations

import gc
import statistics
import time

import workloads
from stats import self_time

from repro.api.codec import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.api.dispatcher import Dispatcher
from repro.api.envelopes import BatchQueryRequest, PublishRequest, QueryRequest
from repro.cluster import Router
from repro.net.frame import FrameDecoder, encode_frame
from repro.psl import PublicSuffixList
from repro.serve.epoch import Epoch
from repro.serve.service import RwsService
from repro.serve.snapshot import SnapshotStore

ns = time.perf_counter_ns

#: Point requests (or batches' worth of pairs) replayed per pass.
REPLAY_PAIRS = 16_384
#: Requests timed together; per-chunk timing keeps clock reads out of
#: the per-request figures.
POINT_CHUNK = 64
BATCH_CHUNK = 4
#: Repetitions of each publish-side measurement (median reported).
PUBLISH_REPEATS = 3


def _service(rws_list) -> RwsService:
    service = RwsService(psl=PublicSuffixList())
    service.publish(rws_list)
    return service


def _router(rws_list) -> Router:
    router = Router(RwsService(psl=PublicSuffixList()), 3, lag=0,
                    policy="rendezvous")
    router.publish(rws_list)
    return router


def _settle() -> None:
    """Move everything built so far out of the collector's way.

    The timed loops run with the collector on, as the server does.  In
    a server that has been serving for a while the list, index and
    stacks sit in the oldest generation, which is seldom rescanned;
    freezing them here keeps the several stacks built for the replay
    from making each collection costlier than the server's.
    """
    gc.collect()
    gc.freeze()


def _loop_ns() -> float:
    """Per-item cost of the timing loops themselves (subtracted)."""
    items = list(range(POINT_CHUNK))
    best = float("inf")
    for _ in range(200):
        started = ns()
        [None for _item in items]
        best = min(best, (ns() - started) / len(items))
    return best


class _Clock:
    """Accumulates time and item counts per layer."""

    def __init__(self, loop_ns: float):
        self.total: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.loop_ns = loop_ns

    def time(self, name: str, func, items: list) -> list:
        started = ns()
        out = [func(item) for item in items]
        elapsed = ns() - started - self.loop_ns * len(items)
        self.total[name] = self.total.get(name, 0.0) + elapsed
        self.items[name] = self.items.get(name, 0) + len(items)
        return out


def _batches(pairs: list, size: int) -> list[list]:
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


def _read_pass(rws_list, router_backend: bool, pairs: list, batch: bool,
               loop_ns: float) -> tuple[dict, dict]:
    """Native requests through codec, frame, dispatcher and every layer.

    Returns (totals in ns, item counts) keyed by layer.
    """
    clock = _Clock(loop_ns)
    backend = _router(rws_list) if router_backend else _service(rws_list)
    dispatcher = Dispatcher(backend)
    router = _router(rws_list)
    shell = _service(rws_list)
    psl = PublicSuffixList()
    index = shell.epoch.index
    if batch:
        requests = [BatchQueryRequest(chunk, detail=False)
                    for chunk in _batches(pairs, workloads.BATCH_PAIRS)]
        chunk_size = BATCH_CHUNK
    else:
        requests = [QueryRequest(a, b) for a, b in pairs]
        chunk_size = POINT_CHUNK
    _settle()
    response_bytes = 0
    for chunk in _batches(requests, chunk_size):
        texts = clock.time("codec.request_encode", encode_request, chunk)
        frames = clock.time("frame.encode", encode_frame, texts)
        decoder = FrameDecoder()

        def unframe(data, decoder=decoder):
            decoder.feed(data)
            return decoder.next_frame()

        payloads = clock.time("frame.decode", unframe, frames)
        decoded = clock.time(
            "codec.request_decode",
            lambda payload: decode_request(payload.decode("utf-8"))[0],
            payloads)
        responses = clock.time("dispatcher", dispatcher.dispatch, decoded)
        if batch:
            clock.time("cluster", lambda r: router.related_batch(r.pairs),
                       chunk)
            clock.time("shell", lambda r: shell.related_batch(r.pairs),
                       chunk)
            hosts = [[host.strip().lower() for pair in r.pairs
                      for host in pair] for r in chunk]
            sites = clock.time("psl", psl.etld_plus_one_many, hosts)
            site_pairs = [(s[i], s[i + 1]) for s in sites
                          for i in range(0, len(s), 2)]
            clock.time("index", lambda p: index.related(*p), site_pairs)
            clock.items["psl"] += sum(map(len, hosts)) - len(hosts)
        else:
            clock.time("cluster", lambda r: router.query(r.host_a, r.host_b),
                       chunk)
            clock.time("shell", lambda r: shell.query(r.host_a, r.host_b),
                       chunk)
            hosts = [host.strip().lower() for r in chunk
                     for host in (r.host_a, r.host_b)]
            sites = clock.time("psl", psl.etld_plus_one, hosts)
            clock.time("index", lambda p: index.query(*p),
                       list(zip(sites[::2], sites[1::2])))
        texts = clock.time("codec.response_encode", encode_response,
                           responses)
        response_bytes += sum(len(text.encode("utf-8")) for text in texts)
        clock.time("codec.response_decode", decode_response, texts)
    clock.total["response_bytes"] = response_bytes
    return clock.total, clock.items


def _other_shape_pass(rws_list, pairs: list, batch: bool,
                      loop_ns: float) -> tuple[dict, dict]:
    """The read shape the workload does not send, on the same pairs."""
    clock = _Clock(loop_ns)
    shell = _service(rws_list)
    psl = PublicSuffixList()
    index = shell.epoch.index
    _settle()
    if batch:
        for chunk in _batches(pairs, workloads.BATCH_PAIRS):
            clock.time("shell", shell.related_batch, [chunk])
            hosts = [host.strip().lower() for pair in chunk for host in pair]
            sites = clock.time("psl", psl.etld_plus_one_many, [hosts])[0]
            clock.items["psl"] += len(hosts) - 1
            clock.time("index", lambda p: index.related(*p),
                       list(zip(sites[::2], sites[1::2])))
    else:
        for chunk in _batches(pairs, POINT_CHUNK):
            clock.time("shell", lambda p: shell.query(*p), chunk)
            hosts = [host.strip().lower() for pair in chunk for host in pair]
            sites = clock.time("psl", psl.etld_plus_one, hosts)
            clock.time("index", lambda p: index.query(*p),
                       list(zip(sites[::2], sites[1::2])))
    return clock.total, clock.items


def _ms(func, repeats: int = PUBLISH_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        started = ns()
        func()
        times.append((ns() - started) / 1e6)
    return statistics.median(times)


def _publish_pass(rws_list) -> dict[str, float]:
    """Publish-side layers on the workload's list and its v2."""
    successor = workloads.successor_list(rws_list)
    psl = PublicSuffixList()
    store = SnapshotStore()
    store.publish(rws_list)
    snapshot = store.publish(successor)
    epoch = Epoch.compile(snapshot, psl)
    buf = epoch.to_buffer(include_psl=False)
    text = encode_request(PublishRequest(successor))
    out = {
        "epoch.compile_ms": _ms(lambda: Epoch.compile(snapshot, psl)),
        "epoch.encode_ms": _ms(lambda: epoch.to_buffer(include_psl=False)),
        "epoch.load_ms": _ms(lambda: Epoch.from_buffer(buf, psl=psl)),
        "epoch.bytes": float(len(buf)),
        "snapshot.delta_ms": _ms(lambda: store.delta(1, 2)),
        "codec.publish_decode_ms": _ms(lambda: decode_request(text)),
    }
    # Router.publish beyond the primary's own publish: the same
    # alternating publishes into a lone service and into a router.
    router = _router(rws_list)
    lone = _service(rws_list)
    versions = [successor, rws_list]
    router_ms, lone_ms = [], []
    for i in range(PUBLISH_REPEATS):
        rws = versions[i % 2]
        router_ms.append(_ms(lambda: router.publish(rws), 1))
        lone_ms.append(_ms(lambda: lone.publish(rws), 1))
    out["cluster.publish_self_ms"] = self_time(
        statistics.median(router_ms), [statistics.median(lone_ms)])
    return out


def replay(workload: str, rws_list, pairs: list) -> dict[str, float]:
    """Every replay-derived per-layer metric for one workload's requests."""
    pairs = pairs[:REPLAY_PAIRS]
    batch = workload == "batch-cold"
    router_backend = workload == "publish-mix"
    loop_ns = _loop_ns()
    total, items = _read_pass(rws_list, router_backend, pairs, batch,
                              loop_ns)
    other, other_items = _other_shape_pass(rws_list, pairs, not batch,
                                           loop_ns)
    requests = items["dispatcher"]
    per = {name: total[name] / items[name] for name in items}
    other_per = {name: other[name] / other_items[name]
                 for name in other_items}
    n_pairs = len(pairs)
    codec_ns = sum(total[name] for name in (
        "codec.request_encode", "codec.request_decode",
        "codec.response_encode", "codec.response_decode"))
    backend = "cluster" if router_backend else "shell"
    out = {
        "psl.resolve_ns_per_host": per["psl"],
        "dispatcher.self_ns": self_time(per["dispatcher"], [per[backend]]),
        "cluster.route_self_ns": self_time(per["cluster"], [per["shell"]]),
        "codec.request_encode_ns": per["codec.request_encode"],
        "codec.request_decode_ns": per["codec.request_decode"],
        "codec.response_encode_ns": per["codec.response_encode"],
        "codec.response_decode_ns": per["codec.response_decode"],
        "codec.per_pair_ns": codec_ns / n_pairs,
        "codec.response_bytes": total["response_bytes"] / requests,
        "frame.encode_ns": per["frame.encode"],
        "frame.decode_ns": per["frame.decode"],
    }
    # Shell self time per shape: its call minus the PSL and index work
    # it did, all over the same pairs.
    batch_ns, point_ns = (total, other) if batch else (other, total)
    out["shell.related_batch_self_ns_per_pair"] = self_time(
        batch_ns["shell"], [batch_ns["psl"], batch_ns["index"]]) / n_pairs
    out["shell.query_self_ns"] = self_time(
        point_ns["shell"], [point_ns["psl"], point_ns["index"]]) / n_pairs
    batch_per, point_per = (per, other_per) if batch else (other_per, per)
    out["index.related_ns_per_pair"] = batch_per["index"]
    out["index.query_ns"] = point_per["index"]
    # The server-side chain of one request, for the ledger check.
    out["ledger.server_chain_us"] = (
        per["frame.decode"] + per["codec.request_decode"]
        + per["dispatcher"] + per["codec.response_encode"]
        + per["frame.encode"]) / 1000.0
    out["ledger.client_chain_us"] = (
        per["codec.request_encode"] + per["frame.encode"]
        + per["frame.decode"] + per["codec.response_decode"]) / 1000.0
    out.update(_publish_pass(rws_list))
    return out
