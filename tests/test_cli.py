"""Tests for the command-line interface."""

import json
import struct
import zlib

import pytest

from repro.cli import main
from repro.data import build_rws_list
from repro.rws import serialize_rws_json


class TestExperimentsCommand:
    def test_lists_all_ids(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("T1", "T3", "F3", "F9", "A1"):
            assert experiment_id in output


class TestRunCommand:
    def test_run_single(self, capsys):
        assert main(["run", "A1"]) == 0
        output = capsys.readouterr().out
        assert "41.0" in output
        assert "paper" in output

    def test_run_multiple(self, capsys):
        assert main(["run", "F3", "A1"]) == 0
        output = capsys.readouterr().out
        assert "Levenshtein" in output
        assert "composition" in output.lower()

    def test_run_with_plots(self, capsys):
        assert main(["run", "F3", "--plots"]) == 0
        output = capsys.readouterr().out
        assert "1.00 |" in output  # The ASCII CDF's y axis.

    def test_unknown_id_fails(self, capsys):
        assert main(["run", "F99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_lowercase_id(self, capsys):
        assert main(["run", "a1"]) == 0


class TestValidateCommand:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = tmp_path / "sets.json"
        path.write_text(serialize_rws_json(build_rws_list()))
        assert main(["validate", str(path)]) == 0
        output = capsys.readouterr().out
        assert "[PASS]" in output
        assert "[FAIL]" not in output

    def test_invalid_set_fails(self, tmp_path, capsys):
        document = {
            "sets": [{
                "primary": "https://example.com",
                "associatedSites": ["https://blog.example.com"],
                "rationaleBySite": {"https://blog.example.com": "blog"},
            }]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["validate", str(path)]) == 1
        output = capsys.readouterr().out
        assert "[FAIL]" in output
        assert "eTLD+1" in output

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/sets.json"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2


class TestOtherCommands:
    def test_list_stats(self, capsys):
        assert main(["list-stats"]) == 0
        output = capsys.readouterr().out
        assert "92.68" in output or "92.7" in output

    def test_governance(self, capsys):
        assert main(["governance"]) == 0
        output = capsys.readouterr().out
        assert "202" in output
        assert "Unable to fetch .well-known JSON file" in output

    @pytest.mark.slow
    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        output = capsys.readouterr().out
        assert "RWS (same set)" in output

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestSurveyExport:
    @pytest.mark.slow
    def test_export_writes_csv(self, tmp_path, capsys):
        import csv

        path = tmp_path / "responses.csv"
        assert main(["survey", "--export", str(path)]) == 0
        with open(path, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) > 300
        first = rows[0]
        assert {"participant", "group", "site_a", "site_b",
                "answered_related", "seconds"} <= set(first)
        assert "wrote" in capsys.readouterr().out


class TestQueryCommand:
    def test_related_pair(self, capsys):
        assert main(["query", "timesinternet.in", "indiatimes.com"]) == 0
        output = capsys.readouterr().out
        assert "related" in output
        assert "timesinternet.in ~ indiatimes.com" in output

    def test_unrelated_pair_exits_one(self, capsys):
        assert main(["query", "timesinternet.in", "bild.de"]) == 1
        assert "unrelated" in capsys.readouterr().out

    def test_hostname_is_resolved_to_site(self, capsys):
        assert main(["query", "www.timesinternet.in", "indiatimes.com"]) == 0
        assert "timesinternet.in ~ indiatimes.com" in capsys.readouterr().out

    def test_unresolvable_site_exits_two(self, capsys):
        assert main(["query", "com", "indiatimes.com"]) == 2
        assert "no registrable domain" in capsys.readouterr().out

    def test_single_site_errors(self, capsys):
        assert main(["query", "indiatimes.com"]) == 2
        assert "at least two" in capsys.readouterr().err


class TestQueryErrorPaths:
    def test_every_site_unresolvable_exits_two(self, capsys):
        assert main(["query", "com", "net", "org"]) == 2
        output = capsys.readouterr().out
        assert output.count("no registrable domain") == 2

    def test_mixed_outcomes_still_reports_each_pair(self, capsys):
        assert main(["query", "timesinternet.in", "indiatimes.com",
                     "com", "bild.de"]) == 2
        output = capsys.readouterr().out
        assert "related    timesinternet.in ~ indiatimes.com" in output
        assert "'com' has no registrable domain" in output
        assert "unrelated  timesinternet.in ~ bild.de" in output


class TestServeCommand:
    def test_reports_snapshot_and_counters(self, capsys):
        assert main(["serve", "--queries", "100"]) == 0
        output = capsys.readouterr().out
        assert "serving snapshot v1" in output
        assert "41 sets" in output
        assert "answered 100 membership queries" in output
        assert "psl.hits" in output
        # The dispatcher's middleware counters ride along.
        assert "api.requests.batch_query" in output
        assert "api.requests.stats" in output

    def test_validate_pushes_sets_through_queue(self, capsys):
        assert main(["serve", "--queries", "10", "--validate"]) == 0
        output = capsys.readouterr().out
        assert "validated 41 served sets" in output
        assert "(41 passed)" in output


class TestLoadErrorPaths:
    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["load", "--scenario", "no-such-traffic"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "steady" in err  # the known names are suggested

    def test_negative_users_exits_two(self, capsys):
        assert main(["load", "--users", "-5"]) == 2
        assert "--users >= 0" in capsys.readouterr().err

    def test_zero_shards_exits_two(self, capsys):
        assert main(["load", "--shards", "0"]) == 2
        assert "--shards >= 1" in capsys.readouterr().err


class TestApiCommand:
    def test_query_request_round_trips(self, capsys):
        request = json.dumps({
            "api_version": 1, "op": "query",
            "payload": {"host_a": "www.timesinternet.in",
                        "host_b": "indiatimes.com"},
        })
        assert main(["api", request]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["op"] == "query"
        assert envelope["payload"]["verdict"]["result"]["related"] is True

    def test_stats_request(self, capsys):
        assert main(["api", '{"op": "stats", "payload": {}}']) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["payload"]["report"]["serve.index_sets"] == 41.0

    def test_unresolvable_host_error_shape(self, capsys):
        request = json.dumps({
            "op": "query",
            "payload": {"host_a": "com", "host_b": "indiatimes.com"},
        })
        assert main(["api", request]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "UNRESOLVABLE_HOST"
        assert envelope["error"]["detail"] == {"host_a": "com"}

    def test_unknown_ticket_error_shape(self, capsys):
        request = json.dumps({"op": "poll",
                              "payload": {"ticket": "sub-9999"}})
        assert main(["api", request]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["code"] == "UNKNOWN_TICKET"

    def test_malformed_request_exits_one_with_envelope(self, capsys):
        assert main(["api", "{not json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "MALFORMED"

    def test_reads_stdin_when_no_argument(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin",
                            io.StringIO('{"op": "stats", "payload": {}}'))
        assert main(["api"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_pretty_prints_indented_json(self, capsys):
        assert main(["api", "--pretty",
                     '{"op": "stats", "payload": {}}']) == 0
        output = capsys.readouterr().out
        assert output.startswith("{\n")
        assert json.loads(output)["ok"] is True


class TestStatsCommand:
    def test_renders_namespaced_table(self, capsys):
        assert main(["stats", "--queries", "120"]) == 0
        output = capsys.readouterr().out
        assert "serve.queries" in output
        assert "psl." in output
        assert "api.requests.batch_query" in output
        assert "registry digest " in output

    def test_replicated_backend_adds_cluster_metrics(self, capsys):
        assert main(["stats", "--queries", "60", "--replicas", "2"]) == 0
        output = capsys.readouterr().out
        assert "cluster.replicas" in output

    def test_json_snapshot_is_schema_tagged(self, capsys):
        assert main(["stats", "--queries", "40", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == "repro.obs.metrics/1"
        assert snapshot["counters"]["serve.queries"] == 40
        assert snapshot["meta"]["source"] == "repro stats"

    def test_out_writes_snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["stats", "--queries", "40", "--out",
                     str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["schema"] == "repro.obs.metrics/1"
        assert "wrote metrics snapshot" in capsys.readouterr().out

    def test_negative_queries_exits_two(self, capsys):
        assert main(["stats", "--queries", "-1"]) == 2
        assert "--queries >= 0" in capsys.readouterr().err


class TestTraceCommand:
    def test_prints_digest_and_span_table(self, capsys):
        assert main(["trace", "--users", "6", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("trace digest ")
        assert "serve.query" in output

    def test_digest_is_identical_across_shard_counts(self, capsys):
        assert main(["trace", "--users", "8", "--seed", "5"]) == 0
        serial = capsys.readouterr().out.splitlines()[0]
        assert main(["trace", "--users", "8", "--seed", "5",
                     "--shards", "2", "--executor", "thread"]) == 0
        sharded = capsys.readouterr().out.splitlines()[0]
        assert sharded == serial

    def test_out_writes_trace_snapshot(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--users", "6", "--seed", "5",
                     "--out", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["schema"] == "repro.obs.trace/1"
        assert snapshot["meta"]["scenario"] == "steady"
        assert snapshot["digest"] in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["trace", "--scenario", "nope"]) == 2
        assert "nope" in capsys.readouterr().err


class TestLoadObsFlags:
    def test_trace_flag_appends_obs_digests_to_report(self, capsys):
        assert main(["load", "--scenario", "steady", "--users", "40",
                     "--seed", "7", "--trace"]) == 0
        output = capsys.readouterr().out
        assert "trace digest " in output
        assert "metrics digest " in output

    def test_metrics_and_trace_out_write_snapshots(self, tmp_path,
                                                   capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        assert main(["load", "--scenario", "steady", "--users", "40",
                     "--seed", "7", "--shards", "2",
                     "--executor", "inline",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        metrics = json.loads(metrics_path.read_text())
        trace = json.loads(trace_path.read_text())
        assert metrics["schema"] == "repro.obs.metrics/1"
        assert metrics["deterministic"]["workload.queries"] > 0
        assert trace["schema"] == "repro.obs.trace/1"
        assert trace["meta"]["shards"] == "2"


class TestNetTransportFlags:
    def test_serve_tcp_runs_over_loopback(self, capsys):
        assert main(["serve", "--tcp", "127.0.0.1:0",
                     "--queries", "50"]) == 0
        output = capsys.readouterr().out
        assert "tcp server listening on 127.0.0.1:" in output
        assert "answered 50 membership queries" in output
        # The wire's own counters join the report table.
        assert "net.requests" in output
        assert "net.client.reconnects" in output

    def test_serve_tcp_bad_address_exits_two(self, capsys):
        assert main(["serve", "--tcp", "nonsense",
                     "--queries", "1"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_load_tcp_digest_matches_inproc(self, capsys):
        assert main(["load", "--scenario", "steady", "--users", "60",
                     "--seed", "9"]) == 0
        inproc = capsys.readouterr().out
        assert main(["load", "--scenario", "steady", "--users", "60",
                     "--seed", "9", "--transport", "tcp"]) == 0
        tcp = capsys.readouterr().out
        digest = [line for line in inproc.splitlines()
                  if line.startswith("digest ")]
        assert digest and digest[0] in tcp
        assert "transport tcp" in tcp

    def test_load_tcp_with_trace_exits_two(self, capsys):
        assert main(["load", "--scenario", "steady", "--users", "5",
                     "--transport", "tcp", "--trace"]) == 2
        assert "--transport inproc" in capsys.readouterr().err

    def test_stats_tcp_folds_net_metrics(self, capsys):
        assert main(["stats", "--queries", "40",
                     "--transport", "tcp"]) == 0
        output = capsys.readouterr().out
        assert "net.requests" in output
        assert "net.client.requests" in output
        assert "serve.queries" in output


class TestEpochCommand:
    @pytest.fixture
    def encoded(self, tmp_path, capsys):
        path = tmp_path / "seed.rwse"
        assert main(["epoch", "encode", "--out", str(path)]) == 0
        assert f"-> {path}" in capsys.readouterr().out
        return path

    def test_stat_reports_format_version_3(self, encoded, capsys):
        assert main(["epoch", "stat", str(encoded)]) == 0
        rows = dict(line.split(maxsplit=1)
                    for line in capsys.readouterr().out.splitlines())
        assert rows["format_version"] == "3"
        assert rows["bytes"] == str(encoded.stat().st_size)
        assert "has_psl" not in rows

    def test_verify_rechecks_the_content_hash(self, encoded, capsys):
        assert main(["epoch", "verify", str(encoded)]) == 0
        assert "content hash ok" in capsys.readouterr().out

    def test_truncated_and_version_1_files_exit_two(self, encoded,
                                                    tmp_path, capsys):
        raw = encoded.read_bytes()
        truncated = tmp_path / "truncated.rwse"
        truncated.write_bytes(raw[:1000])
        # Version 1 and 2 headers with a valid CRC: refused by version
        # alone.
        olds = []
        for version in (1, 2):
            body = bytearray(raw[:-4])
            struct.pack_into("<H", body, 4, version)
            olds.append(tmp_path / f"v{version}.rwse")
            olds[-1].write_bytes(
                bytes(body) + struct.pack("<I", zlib.crc32(body)))
        for path in (truncated, *olds):
            for action in ("stat", "verify"):
                assert main(["epoch", action, str(path)]) == 2
                assert "invalid epoch file" in capsys.readouterr().err
