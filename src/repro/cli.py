"""Command-line interface: ``python -m repro`` or ``rws-repro``.

Subcommands:

* ``experiments`` — list every table/figure pipeline;
* ``run <id> [...]`` — run pipelines and print paper-vs-measured;
* ``validate <file.json>`` — run the RWS submission validator on a
  canonical-format set file (structure-only; the network checks need
  the synthetic web);
* ``survey`` — run the §3 user-study simulation and print Table 1;
* ``governance`` — run the §4 PR simulation and print Table 3;
* ``list-stats`` — print the reconstructed list's composition;
* ``query <site> <site...>`` — answer membership queries against the
  compiled serving index (the browser's storage-access question);
* ``serve`` — bring up the serving layer over the reconstructed list,
  exercise it, and print its metrics table (a one-shot stand-in for a
  long-running service);
* ``cluster`` — bring up a replicated deployment (a
  :class:`~repro.cluster.Router` over ``--replicas`` read replicas
  with ``--lag`` propagation delay and a ``--policy`` routing policy),
  publish a list update mid-run so stale reads are visible, and print
  the merged cluster's metrics table;
* ``load`` — run a named traffic scenario through the workload engine
  (``--scenario steady --users 100000 --shards 4``, optionally
  replicated via ``--replicas/--lag/--policy``) and print throughput,
  latency percentiles, and the reproducible run digest; ``--trace``
  attaches the deterministic tracer and ``--metrics-out FILE`` /
  ``--trace-out FILE`` write ``repro.obs`` JSON snapshots;
* ``stats`` — bring up the serving stack, run a self-test workload,
  and print the unified metrics registry (``serve.*`` / ``psl.*`` /
  ``queue.*`` / ``api.*`` / ``cluster.*`` namespaces; ``--json`` /
  ``--out FILE`` for the snapshot form);
* ``trace`` — run a seeded workload with the deterministic tracer and
  print the span table and the reproducible trace digest;
* ``epoch`` — work with the zero-copy binary epoch format:
  ``encode`` a list profile to a ``.rwse`` file, then ``stat`` or
  ``verify`` an encoded file;
* ``api`` — dispatch one wire-format JSON request envelope and print
  the JSON response (the ``repro.api`` protocol over stdin/argv).

The serving subcommands (``query``, ``serve``, ``cluster``, ``load``,
``stats``, ``trace``, ``api``) all route through the
:class:`repro.api.Dispatcher` protocol layer rather than calling
:class:`~repro.serve.service.RwsService` (or the cluster router)
directly.
"""

from __future__ import annotations

import argparse
import sys

# Every subcommand imports what it needs when it runs, so a serving
# subcommand never loads the paper-analysis stack.


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS

    for experiment_id in sorted(EXPERIMENTS):
        doc = EXPERIMENTS[experiment_id].__doc__ or ""
        first_line = doc.strip().splitlines()[0] if doc.strip() else ""
        print(f"{experiment_id:4s} {first_line}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import run_experiment
    from repro.reporting import render_cdf, render_comparison, render_table

    for experiment_id in args.ids:
        try:
            result = run_experiment(experiment_id)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        print(f"== {result.experiment_id}: {result.title}")
        if result.rows:
            print(render_table(result.headers or [""], result.rows))
        if result.series and args.plots:
            print(render_cdf(result.series, title="(CDF)"))
        print(render_comparison(result))
        if result.notes:
            print(f"note: {result.notes}")
        print()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.rws import SchemaError, Validator, parse_rws_json, remediation_text

    try:
        with open(args.file, encoding="utf-8") as handle:
            rws_list = parse_rws_json(handle.read())
    except (OSError, SchemaError) as error:
        print(f"cannot load {args.file}: {error}", file=sys.stderr)
        return 2
    validator = Validator()
    failures = 0
    for rws_set in rws_list:
        report = validator.validate(rws_set)
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {rws_set.primary} ({rws_set.size()} members)")
        if not report.passed:
            failures += 1
            for line in report.bot_comment().splitlines()[1:]:
                print(f"    {line.strip()}")
            if args.suggest:
                for line in remediation_text(report).splitlines():
                    print(f"    {line}")
    return 1 if failures else 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.analysis.surveychar import survey_scalars, table1
    from repro.reporting import render_comparison, render_table, rows_to_csv
    from repro.survey import conduct_study

    dataset = conduct_study()
    result = table1(dataset)
    print(render_table(result.headers, result.rows, title=result.title))
    print(render_comparison(survey_scalars(dataset)))

    if args.export:
        rows = dataset.to_rows()
        headers = list(rows[0]) if rows else []
        csv_text = rows_to_csv(headers, [[row[h] for h in headers]
                                         for row in rows])
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"wrote {len(rows)} anonymised responses to {args.export}")
    return 0


def _cmd_governance(_args: argparse.Namespace) -> int:
    from repro.analysis import run_experiment
    from repro.reporting import render_comparison, render_table

    result = run_experiment("T3")
    print(render_table(result.headers, result.rows, title=result.title))
    print(render_comparison(run_experiment("F5")))
    return 0


def _cmd_list_stats(_args: argparse.Namespace) -> int:
    from repro.analysis import run_experiment
    from repro.reporting import render_comparison

    print(render_comparison(run_experiment("A1")))
    return 0


def _build_api(middlewares=()):
    """The serving stack behind every API-routed subcommand."""
    from repro.api import Dispatcher
    from repro.data import build_rws_list
    from repro.serve import RwsService

    service = RwsService()
    service.publish(build_rws_list())
    return service, Dispatcher(service, middlewares=middlewares)


def _dispatch_ok(transport, request):
    """Dispatch, surfacing error envelopes instead of crashing."""
    from repro.api import ErrorResponse

    response = transport.dispatch(request)
    if isinstance(response, ErrorResponse):
        print(f"{request.op} failed: {response.error.code.value}: "
              f"{response.error.message}", file=sys.stderr)
        raise SystemExit(1)
    return response


def _tcp_front(dispatcher, host: str = "127.0.0.1", port: int = 0):
    """A loopback server thread over ``dispatcher`` and a client to it."""
    from repro.net import RwsTcpServer, ServerThread, TcpApiClient

    harness = ServerThread(RwsTcpServer(dispatcher=dispatcher, host=host,
                                        port=port))
    host, port = harness.start()
    return harness, TcpApiClient(host, port)


def _stack_registry(backend, counter, latency=None, net=None):
    """One registry over a serving stack: the backend, its API
    middleware and, behind a TCP front, both ends of the wire (which
    are then shut down)."""
    registry = backend.stats_registry()
    counter.write_metrics(registry)
    if latency is not None:
        registry.merge(latency.registry)
    if net is not None:
        harness, client = net
        harness.server.write_metrics(registry)
        client.write_metrics(registry)
        client.close()
        harness.stop()
    return registry


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.api import ErrorCode, ErrorResponse, QueryRequest, VerdictCache

    if len(args.sites) < 2:
        print("query needs at least two sites", file=sys.stderr)
        return 2
    _service, dispatcher = _build_api(middlewares=(VerdictCache(),))
    subject = args.sites[0]
    all_related = True
    failed = False
    for other in args.sites[1:]:
        response = dispatcher.dispatch(QueryRequest(host_a=subject,
                                                    host_b=other))
        if isinstance(response, ErrorResponse):
            failed = True
            if response.error.code is ErrorCode.UNRESOLVABLE_HOST:
                detail = response.error.detail
                bad = detail.get("host_a", detail.get("host_b", subject))
                print(f"error      {subject} ~ {other}: "
                      f"{bad!r} has no registrable domain")
            else:
                print(f"error      {subject} ~ {other}: "
                      f"{response.error.code.value}: "
                      f"{response.error.message}")
            continue
        verdict = response.verdict
        if verdict.related:
            result = verdict.result
            assert result is not None
            if result.set_primary is not None:
                role_a = result.role_a.value if result.role_a else "?"
                role_b = result.role_b.value if result.role_b else "?"
                detail = (f"set {result.set_primary} "
                          f"({role_a} ~ {role_b})")
            else:
                detail = "same site"
            print(f"related    {verdict.site_a} ~ {verdict.site_b}  [{detail}]")
        else:
            all_related = False
            print(f"unrelated  {verdict.site_a} ~ {verdict.site_b}")
    if failed:
        return 2
    return 0 if all_related else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import (
        BatchQueryRequest,
        LatencyRecorder,
        PollRequest,
        RequestCounter,
        StatsRequest,
        SubmitRequest,
    )
    from repro.obs import render_metrics_lines

    counter = RequestCounter()
    latency = LatencyRecorder()
    service, dispatcher = _build_api(middlewares=(counter, latency))
    transport, net = dispatcher, None
    if args.tcp is not None:
        # The self-test workload rides real loopback sockets: the same
        # dispatcher sits behind an RwsTcpServer, and every dispatch
        # below goes through a pooled TcpApiClient instead.
        try:
            tcp_host, _, tcp_port = args.tcp.rpartition(":")
            bind = (tcp_host or "127.0.0.1", int(tcp_port))
        except ValueError:
            print(f"--tcp wants HOST:PORT (port 0 = ephemeral), "
                  f"got {args.tcp!r}", file=sys.stderr)
            return 2
        net = _tcp_front(dispatcher, *bind)
        harness, transport = net
        host, port = harness.server.address
        print(f"tcp server listening on {host}:{port} "
              f"(api v{transport.api_version})")
    snapshot = service.current_snapshot
    assert snapshot is not None
    rws_list = snapshot.rws_list
    print(f"serving snapshot v{snapshot.version} "
          f"({snapshot.content_hash[:12]}…): "
          f"{service.index.set_count} sets, "
          f"{service.index.site_count} member domains")

    members = [record.site for record in rws_list.all_members()]
    workload = max(0, args.queries)
    pairs = [(members[i % len(members)], members[(i * 7 + 3) % len(members)])
             for i in range(workload)]
    # Compact path: only the verdict bits are reported, so skip the
    # per-query verdict objects the detail path would allocate.
    response = _dispatch_ok(transport,
                            BatchQueryRequest(pairs=pairs, detail=False))
    related = sum(response.related)
    print(f"answered {workload} membership queries "
          f"({related} related)")

    if args.validate:
        tickets = [_dispatch_ok(transport,
                                SubmitRequest(rws_set=rws_set)).ticket
                   for rws_set in rws_list]
        service.drain()
        passed = sum(1 for ticket in tickets
                     if _dispatch_ok(transport,
                                     PollRequest(ticket=ticket)).passed)
        print(f"validated {len(tickets)} served sets through the queue "
              f"({passed} passed)")

    # The stats op rides the transport like every other op; the table
    # is the same stack's registry, with the middleware and the wire.
    _dispatch_ok(transport, StatsRequest())
    print()
    for line in render_metrics_lines(
            _stack_registry(service, counter, latency, net)):
        print(line)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.api import (
        BatchQueryRequest,
        Dispatcher,
        PublishRequest,
        RequestCounter,
        StatsRequest,
    )
    from repro.cluster import Router
    from repro.data import build_rws_list
    from repro.obs import render_metrics_lines
    from repro.serve import RwsService
    from repro.workload.scenarios import LIST_PROFILES

    if args.replicas < 1 or args.lag < 0:
        print("cluster needs --replicas >= 1 and --lag >= 0",
              file=sys.stderr)
        return 2

    service = RwsService()
    service.publish(build_rws_list())
    router = Router(service, replicas=args.replicas, lag=args.lag,
                    policy=args.policy)
    counter = RequestCounter()
    dispatcher = Dispatcher(router, middlewares=(counter,))
    snapshot = service.current_snapshot
    assert snapshot is not None
    print(f"cluster: primary + {args.replicas} replica(s), "
          f"policy {args.policy}, lag {args.lag} tick(s); "
          f"serving snapshot v{snapshot.version} "
          f"({snapshot.content_hash[:12]}…)")

    members = [record.site for record in snapshot.rws_list.all_members()]
    workload = max(0, args.queries)
    pairs = [(members[i % len(members)], members[(i * 7 + 3) % len(members)])
             for i in range(workload)]
    related = sum(_dispatch_ok(
        dispatcher, BatchQueryRequest(pairs=pairs, detail=False)).related)
    print(f"answered {workload} membership queries across the replica "
          f"set ({related} related)")

    # Publish the seed profile's successor so replica propagation (and
    # staleness at --lag > 0) is observable: probe the update's new
    # members, which a stale replica still answers "unrelated".
    _, build_v2 = LIST_PROFILES["seed"]
    assert build_v2 is not None
    v2_list = build_v2()
    response = _dispatch_ok(dispatcher, PublishRequest(rws_list=v2_list))
    print(f"published v{response.version}; replica epochs now "
          f"{router.replica_versions()}"
          + (" (stale until the lag elapses)"
             if not router.converged else ""))
    grown_primary = v2_list.sets[0].primary
    probes = [(grown_primary, "midflight-news.com"),
              ("midflight.com", "midflight-shop.com")] * 8
    stale = sum(_dispatch_ok(
        dispatcher, BatchQueryRequest(pairs=probes, detail=False)).related)
    router.converge()
    converged = sum(_dispatch_ok(
        dispatcher, BatchQueryRequest(pairs=probes, detail=False)).related)
    print(f"probed the update's new members mid-propagation "
          f"({stale}/{len(probes)} related) and after convergence "
          f"({converged}/{len(probes)} related); replica epochs "
          f"{router.replica_versions()}")

    # As in ``serve``: the stats op is exercised like every other op,
    # and the table is the same stack's registry.
    _dispatch_ok(dispatcher, StatsRequest())
    print()
    for line in render_metrics_lines(_stack_registry(router, counter)):
        print(line)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.api import BatchQueryRequest, LatencyRecorder, RequestCounter
    from repro.obs import (
        metrics_snapshot,
        render_metrics_lines,
        write_snapshot,
    )

    if args.replicas < 0 or args.queries < 0:
        print("stats needs --replicas >= 0 and --queries >= 0",
              file=sys.stderr)
        return 2
    counter = RequestCounter()
    latency = LatencyRecorder()
    if args.replicas > 0:
        from repro.api import Dispatcher
        from repro.cluster import Router
        from repro.data import build_rws_list
        from repro.serve import RwsService

        service = RwsService()
        service.publish(build_rws_list())
        backend = Router(service, replicas=args.replicas,
                         policy=args.policy)
        dispatcher = Dispatcher(backend, middlewares=(counter, latency))
    else:
        backend, dispatcher = _build_api(middlewares=(counter, latency))
    snapshot = backend.current_snapshot
    assert snapshot is not None
    members = [record.site for record in snapshot.rws_list.all_members()]
    pairs = [(members[i % len(members)], members[(i * 7 + 3) % len(members)])
             for i in range(args.queries)]
    net = _tcp_front(dispatcher) if args.transport == "tcp" else None
    if pairs:
        (net[1] if net is not None else dispatcher).dispatch(
            BatchQueryRequest(pairs=pairs, detail=False))
    registry = _stack_registry(backend, counter, latency, net)
    if args.out or args.json:
        document = metrics_snapshot(registry, meta={
            "source": "repro stats",
            "queries": str(args.queries),
            "replicas": str(args.replicas),
            "transport": args.transport,
        })
        if args.out:
            write_snapshot(args.out, document)
            print(f"wrote metrics snapshot to {args.out}")
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for line in render_metrics_lines(registry):
        print(line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_trace_lines, trace_snapshot, write_snapshot
    from repro.workload import get_scenario, run_workload

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.users < 1 or args.shards < 1:
        print("trace needs --users >= 1 and --shards >= 1", file=sys.stderr)
        return 2
    result = run_workload(scenario, args.users, shards=args.shards,
                          seed=args.seed, executor=args.executor,
                          trace=True)
    assert result.trace is not None
    if args.out:
        write_snapshot(args.out, trace_snapshot(result.trace, meta={
            "scenario": scenario.name,
            "users": str(args.users),
            "shards": str(args.shards),
            "seed": str(args.seed),
        }))
        print(f"wrote trace snapshot to {args.out}")
    for line in render_trace_lines(result.trace, limit=args.spans):
        print(line)
    return 0


def _cmd_api(args: argparse.Namespace) -> int:
    import json

    text = args.request if args.request is not None else sys.stdin.read()
    _service, dispatcher = _build_api()
    envelope = json.loads(dispatcher.dispatch_wire(text))
    print(json.dumps(envelope, indent=2 if args.pretty else None,
                     sort_keys=True))
    return 0 if envelope.get("ok") else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import CHAOS_PLANS
    from repro.workload import SCENARIOS, get_scenario, run_workload
    from repro.workload.driver import chaotic

    if args.list_plans:
        width = max(len(name) for name in CHAOS_PLANS)
        for name in sorted(CHAOS_PLANS):
            description = (SCENARIOS[name].description
                           if name in SCENARIOS else "")
            print(f"{name:{width}s}  {description}")
        return 0
    if args.plan not in CHAOS_PLANS:
        known = ", ".join(sorted(CHAOS_PLANS))
        print(f"unknown chaos plan {args.plan!r} (known: {known})",
              file=sys.stderr)
        return 2
    if args.users < 1 or args.shards < 1:
        print("chaos needs --users >= 1 and --shards >= 1",
              file=sys.stderr)
        return 2
    # Every plan ships a matching named scenario (same registry key);
    # an unregistered plan would still run via chaotic() over the
    # takedown shape.
    if args.plan in SCENARIOS:
        scenario = get_scenario(args.plan)
    else:
        scenario = chaotic("takedown", args.plan)
    result = run_workload(scenario, args.users, shards=args.shards,
                          seed=args.seed, executor=args.executor)
    for line in result.report_lines():
        print(line)
    portable = result.registry.to_portable()
    for key in sorted(portable["counters"]):
        if key.startswith(("chaos.", "cluster.")):
            print(f"{key} {portable['counters'][key]}")
    for key in sorted(portable["gauges"]):
        if key.startswith(("chaos.", "cluster.")):
            print(f"{key} {portable['gauges'][key]:g}")
    if args.verify:
        # The determinism gate: the same plan replayed on a different
        # partition must reproduce the outcome digest bit-for-bit.
        shards = 2 if args.shards == 1 else args.shards + 1
        again = run_workload(scenario, args.users, shards=shards,
                             seed=args.seed, executor="inline")
        if again.digest != result.digest:
            print(f"DIGEST MISMATCH: {result.digest_hex} "
                  f"({args.shards} shard(s)) vs {again.digest_hex} "
                  f"({shards} shards)", file=sys.stderr)
            return 1
        print(f"verified: digest bit-identical across {args.shards} "
              f"and {shards} shard partitions")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.workload import SCENARIOS, get_scenario, run_workload
    from repro.workload.driver import replicated

    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:{width}s}  {SCENARIOS[name].description}")
        return 0
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.users < 0 or args.shards < 1:
        print("load needs --users >= 0 and --shards >= 1", file=sys.stderr)
        return 2
    if args.replicas is not None or args.lag is not None \
            or args.policy is not None:
        # Unset flags keep the scenario's own replication settings, so
        # e.g. `--scenario stale-replica --replicas 5` preserves the
        # scenario's staggered lag.
        scenario = replicated(
            scenario,
            args.replicas if args.replicas is not None
            else scenario.replicas,
            lag=args.lag if args.lag is not None
            else scenario.replica_lag,
            policy=args.policy or scenario.router_policy,
        )
    if args.chaos is not None:
        from repro.workload.driver import chaotic

        try:
            scenario = chaotic(scenario, args.chaos)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
    trace = args.trace or args.trace_out is not None
    if trace and args.transport == "tcp":
        print("--trace requires --transport inproc (socket scheduling "
              "would make span streams non-deterministic)",
              file=sys.stderr)
        return 2
    result = run_workload(scenario, args.users, shards=args.shards,
                          seed=args.seed, executor=args.executor,
                          trace=trace, transport=args.transport)
    for line in result.report_lines():
        print(line)
    if args.metrics_out or args.trace_out:
        from repro.obs import metrics_snapshot, trace_snapshot, write_snapshot

        meta = {
            "scenario": scenario.name,
            "users": str(args.users),
            "shards": str(args.shards),
            "seed": str(args.seed),
            "transport": args.transport,
        }
        if args.metrics_out:
            write_snapshot(args.metrics_out,
                           metrics_snapshot(result.registry, meta=meta))
            print(f"wrote metrics snapshot to {args.metrics_out}")
        if args.trace_out:
            assert result.trace is not None
            write_snapshot(args.trace_out,
                           trace_snapshot(result.trace, meta=meta))
            print(f"wrote trace snapshot to {args.trace_out}")
    return 0


def _epoch_for_profile(profile: str, domains: int | None):
    """Compile an :class:`~repro.serve.Epoch` for a named list profile."""
    from repro.psl import default_psl
    from repro.serve import Epoch, SnapshotStore

    if domains is not None:
        from repro.data import build_synthetic_list

        rws_list = build_synthetic_list(domains)
    else:
        from repro.workload.scenarios import LIST_PROFILES

        if profile not in LIST_PROFILES:
            known = ", ".join(sorted(LIST_PROFILES))
            raise KeyError(f"unknown list profile {profile!r} "
                           f"(known: {known})")
        build_v1, _build_v2 = LIST_PROFILES[profile]
        rws_list = build_v1()
    snapshot = SnapshotStore().publish(rws_list)
    return Epoch.compile(snapshot, default_psl())


def _cmd_epoch(args: argparse.Namespace) -> int:
    import time

    from repro.serve import EpochFormatError
    from repro.serve.epochfmt import encode_epoch, epoch_stat

    if args.action == "encode":
        try:
            epoch = _epoch_for_profile(args.profile, args.domains)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        started = time.perf_counter_ns()
        buf = encode_epoch(epoch)
        encode_ms = (time.perf_counter_ns() - started) / 1e6
        with open(args.out, "wb") as handle:
            handle.write(buf)
        print(f"encoded {args.profile if args.domains is None else args.domains} "
              f"-> {args.out}: {len(buf)} bytes in {encode_ms:.2f} ms")
        return 0

    # stat / verify need an encoded file.
    if not args.file:
        print(f"epoch {args.action} needs a FILE argument", file=sys.stderr)
        return 2
    try:
        with open(args.file, "rb") as handle:
            buf = handle.read()
    except OSError as error:
        print(f"cannot read {args.file}: {error}", file=sys.stderr)
        return 2

    if args.action == "stat":
        try:
            stat = epoch_stat(buf)
        except EpochFormatError as error:
            print(f"invalid epoch file {args.file}: {error}",
                  file=sys.stderr)
            return 2
        width = max(len(key) for key in stat)
        for key, value in stat.items():
            print(f"{key:<{width}}  {value}")
        return 0

    if args.action == "verify":
        from repro.serve import Epoch, membership_hash

        started = time.perf_counter_ns()
        try:
            epoch = Epoch.from_buffer(buf)
        except EpochFormatError as error:
            print(f"invalid epoch file {args.file}: {error}",
                  file=sys.stderr)
            return 2
        load_ms = (time.perf_counter_ns() - started) / 1e6
        print(f"loaded {len(buf)} bytes in {load_ms:.2f} ms: "
              f"{len(epoch.index)} sites, {epoch.index.set_count} sets")
        if epoch.snapshot is None:
            print("no snapshot section; nothing to verify against")
            return 0
        recomputed = membership_hash(epoch.snapshot.rws_list)
        if recomputed != epoch.snapshot.content_hash:
            print(f"content hash MISMATCH: stored "
                  f"{epoch.snapshot.content_hash} != recomputed "
                  f"{recomputed}", file=sys.stderr)
            return 1
        print(f"content hash ok: {recomputed}")
        return 0

    print(f"unknown epoch action {args.action!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="rws-repro",
        description="Reproduction of 'A First Look at Related Website Sets' "
                    "(IMC 2024).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("experiments",
                                help="list table/figure pipelines")
    sub.set_defaults(handler=_cmd_experiments)

    sub = subparsers.add_parser("run", help="run pipelines by artefact id")
    sub.add_argument("ids", nargs="+", metavar="ID",
                     help="artefact ids, e.g. T1 F3 F5")
    sub.add_argument("--plots", action="store_true",
                     help="render ASCII CDF plots for figure pipelines")
    sub.set_defaults(handler=_cmd_run)

    sub = subparsers.add_parser("validate",
                                help="validate an RWS JSON list file")
    sub.add_argument("file", help="path to canonical-format RWS JSON")
    sub.add_argument("--suggest", action="store_true",
                     help="print a remediation checklist for failing sets")
    sub.set_defaults(handler=_cmd_validate)

    sub = subparsers.add_parser("survey", help="run the §3 survey simulation")
    sub.add_argument("--export", metavar="FILE",
                     help="write the anonymised response rows to a CSV file "
                          "(the shape of the paper's released dataset)")
    sub.set_defaults(handler=_cmd_survey)

    sub = subparsers.add_parser("governance",
                                help="run the §4 governance simulation")
    sub.set_defaults(handler=_cmd_governance)

    sub = subparsers.add_parser("list-stats",
                                help="composition of the reconstructed list")
    sub.set_defaults(handler=_cmd_list_stats)

    sub = subparsers.add_parser(
        "query",
        help="membership queries against the compiled serving index")
    sub.add_argument("sites", nargs="+", metavar="SITE",
                     help="two or more sites; the first is queried "
                          "against each of the rest")
    sub.set_defaults(handler=_cmd_query)

    sub = subparsers.add_parser(
        "serve",
        help="bring up the serving layer and print its counters")
    sub.add_argument("--queries", type=int, default=1000, metavar="N",
                     help="size of the self-test query workload "
                          "(default: 1000)")
    sub.add_argument("--tcp", metavar="HOST:PORT", default=None,
                     help="serve the self-test workload over a real "
                          "loopback TCP socket (port 0 picks an "
                          "ephemeral port)")
    sub.add_argument("--validate", action="store_true",
                     help="also push every served set through the "
                          "asynchronous validation queue")
    sub.set_defaults(handler=_cmd_serve)

    sub = subparsers.add_parser(
        "cluster",
        help="bring up a replicated serving cluster and exercise it")
    sub.add_argument("--replicas", type=int, default=3, metavar="N",
                     help="read replicas behind the router "
                          "(default: 3)")
    sub.add_argument("--lag", type=int, default=0, metavar="TICKS",
                     help="replica propagation lag in logical-clock "
                          "ticks (default: 0 — replicas converge "
                          "inside the publish)")
    sub.add_argument("--policy", default="round-robin",
                     choices=["round-robin", "rendezvous"],
                     help="read-routing policy (default: round-robin)")
    sub.add_argument("--queries", type=int, default=1000, metavar="N",
                     help="size of the self-test query workload "
                          "(default: 1000)")
    sub.set_defaults(handler=_cmd_cluster)

    sub = subparsers.add_parser(
        "api",
        help="dispatch one wire-format JSON request envelope",
        description="Dispatch a repro.api wire request against the "
                    "serving layer and print the JSON response. "
                    'Example: {"api_version": 1, "op": "query", '
                    '"payload": {"host_a": "www.timesinternet.in", '
                    '"host_b": "indiatimes.com"}}')
    sub.add_argument("request", nargs="?", metavar="JSON",
                     help="the request envelope (read from stdin "
                          "when omitted)")
    sub.add_argument("--pretty", action="store_true",
                     help="indent the response JSON")
    sub.set_defaults(handler=_cmd_api)

    sub = subparsers.add_parser(
        "load",
        help="run a traffic scenario through the workload engine")
    sub.add_argument("--scenario", default="steady", metavar="NAME",
                     help="scenario registry name (default: steady; "
                          "see --list-scenarios)")
    sub.add_argument("--users", type=int, default=10000, metavar="N",
                     help="simulated user sessions (default: 10000)")
    sub.add_argument("--shards", type=int, default=1, metavar="K",
                     help="worker shards; 1 runs the serial reference "
                          "driver (default: 1)")
    sub.add_argument("--seed", type=int, default=0, metavar="SEED",
                     help="run seed; decision outcomes and the digest "
                          "are bit-reproducible per seed (default: 0)")
    sub.add_argument("--executor", default="auto",
                     choices=["auto", "inline", "thread", "process"],
                     help="how shards run (default: auto — processes "
                          "on multi-core hosts, threads otherwise)")
    sub.add_argument("--replicas", type=int, default=None, metavar="N",
                     help="serve through a router over N read replicas "
                          "(default: the scenario's own setting)")
    sub.add_argument("--lag", type=int, default=None, metavar="USERS",
                     help="replica propagation-lag stagger in users "
                          "(default: the scenario's own setting)")
    sub.add_argument("--policy", default=None,
                     choices=["round-robin", "rendezvous"],
                     help="cluster routing policy (default: the "
                          "scenario's own setting)")
    sub.add_argument("--transport", default="inproc",
                     choices=["inproc", "tcp"],
                     help="shard dispatch transport: in-process calls "
                          "or a per-shard loopback TCP server "
                          "(default: inproc; outcomes are digest-"
                          "identical either way)")
    sub.add_argument("--chaos", default=None, metavar="PLAN",
                     help="run the scenario under a seeded fault plan "
                          "(see `chaos --list-plans`); scenarios "
                          "without a replica cluster get a default "
                          "3-replica rendezvous cluster")
    sub.add_argument("--list-scenarios", action="store_true",
                     help="print the scenario registry and exit")
    sub.add_argument("--trace", action="store_true",
                     help="attach the deterministic tracer (forces "
                          "full-fidelity execution) and report the "
                          "trace digest")
    sub.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="write the merged metrics registry as a "
                          "repro.obs JSON snapshot")
    sub.add_argument("--trace-out", metavar="FILE", default=None,
                     help="write the merged trace as a repro.obs JSON "
                          "snapshot (implies --trace)")
    sub.set_defaults(handler=_cmd_load)

    sub = subparsers.add_parser(
        "chaos",
        help="run a seeded fault-injection plan through the replica "
             "cluster")
    sub.add_argument("--plan", default="failover", metavar="NAME",
                     help="fault plan name (default: failover; see "
                          "--list-plans)")
    sub.add_argument("--users", type=int, default=400, metavar="N",
                     help="simulated user sessions (default: 400)")
    sub.add_argument("--shards", type=int, default=1, metavar="K",
                     help="worker shards (default: 1, the serial "
                          "reference driver)")
    sub.add_argument("--seed", type=int, default=0, metavar="SEED",
                     help="run seed; fault history and the digest are "
                          "bit-reproducible per seed (default: 0)")
    sub.add_argument("--executor", default="auto",
                     choices=["auto", "inline", "thread", "process"],
                     help="how shards run (default: auto)")
    sub.add_argument("--verify", action="store_true",
                     help="re-run on a different shard partition and "
                          "fail unless the outcome digest is "
                          "bit-identical")
    sub.add_argument("--list-plans", action="store_true",
                     help="print the fault-plan registry and exit")
    sub.set_defaults(handler=_cmd_chaos)

    sub = subparsers.add_parser(
        "stats",
        help="print the unified metrics registry for a serving stack")
    sub.add_argument("--queries", type=int, default=1000, metavar="N",
                     help="size of the self-test query workload "
                          "(default: 1000)")
    sub.add_argument("--replicas", type=int, default=0, metavar="N",
                     help="serve through a router over N read replicas "
                          "(default: 0 — a single service)")
    sub.add_argument("--policy", default="rendezvous",
                     choices=["round-robin", "rendezvous"],
                     help="cluster routing policy when --replicas > 0 "
                          "(default: rendezvous)")
    sub.add_argument("--transport", default="inproc",
                     choices=["inproc", "tcp"],
                     help="run the self-test workload in-process or "
                          "through a loopback TCP server, folding "
                          "net.* metrics into the registry "
                          "(default: inproc)")
    sub.add_argument("--json", action="store_true",
                     help="print the snapshot JSON instead of the table")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the snapshot JSON to a file")
    sub.set_defaults(handler=_cmd_stats)

    sub = subparsers.add_parser(
        "trace",
        help="trace a seeded workload and print its deterministic spans")
    sub.add_argument("--scenario", default="steady", metavar="NAME",
                     help="scenario registry name (default: steady)")
    sub.add_argument("--users", type=int, default=50, metavar="N",
                     help="simulated user sessions (default: 50)")
    sub.add_argument("--shards", type=int, default=1, metavar="K",
                     help="worker shards; the trace digest is identical "
                          "for any K (default: 1)")
    sub.add_argument("--seed", type=int, default=0, metavar="SEED",
                     help="run seed; span ids and the trace digest are "
                          "bit-reproducible per seed (default: 0)")
    sub.add_argument("--executor", default="auto",
                     choices=["auto", "inline", "thread", "process"],
                     help="how shards run (default: auto)")
    sub.add_argument("--spans", type=int, default=16, metavar="N",
                     help="span rows to print (default: 16)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the trace snapshot JSON to a file")
    sub.set_defaults(handler=_cmd_trace)

    sub = subparsers.add_parser(
        "epoch",
        help="encode, inspect, and verify zero-copy binary epochs")
    sub.add_argument("action", choices=["encode", "stat", "verify"],
                     help="encode a list profile, or stat/verify an "
                          "encoded file")
    sub.add_argument("file", nargs="?", metavar="FILE",
                     help="encoded .rwse file (stat / verify)")
    sub.add_argument("--profile", default="seed", metavar="NAME",
                     help="list profile to encode (default: seed)")
    sub.add_argument("--domains", type=int, default=None, metavar="N",
                     help="encode a seeded synthetic list with N "
                          "domains instead of a named profile")
    sub.add_argument("--out", metavar="FILE", default="epoch.rwse",
                     help="output path for encode "
                          "(default: epoch.rwse)")
    sub.set_defaults(handler=_cmd_epoch)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
