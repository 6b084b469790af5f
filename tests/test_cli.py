"""CLI entry point: argument parsing and a few fast end-to-end commands."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_all_registered_experiments():
    parser = build_parser()
    for experiment in ("table1", "table3", "table4", "fig4", "fig10", "fig20"):
        args = parser.parse_args([experiment])
        assert args.experiment == experiment


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_scale_and_seed_options():
    args = build_parser().parse_args(["fig4", "--scale", "0.005", "--seed", "3", "--tolerance", "5"])
    assert args.scale == 0.005
    assert args.seed == 3
    assert args.tolerance == 5


def test_shards_and_workers_options():
    args = build_parser().parse_args(["fig10", "--shards", "4", "--workers", "0"])
    assert args.shards == 4
    assert args.workers == 0  # 0 = one worker per CPU core
    defaults = build_parser().parse_args(["fig10"])
    assert defaults.shards == 1
    assert defaults.workers == 1


def test_invalid_shards_and_workers_rejected():
    with pytest.raises(SystemExit):
        main(["fig4", "--shards", "0"])
    with pytest.raises(SystemExit):
        main(["fig4", "--workers", "-1"])


def test_shards_rejected_by_unsupporting_commands():
    # --shards changes measured results, so commands that cannot honour it
    # must reject it instead of silently ignoring it.
    for experiment in ("fig5", "fig7", "fig11", "fig16", "table1"):
        with pytest.raises(SystemExit):
            main([experiment, "--shards", "4"])
    # --shards 1 (the default, monolithic model) stays accepted everywhere.
    assert main(["table1", "--shards", "1"]) == 0


def test_table_commands_print_output(capsys):
    assert main(["table1"]) == 0
    assert main(["table3"]) == 0
    assert main(["table4"]) == 0
    output = capsys.readouterr().out
    assert "ReliableSketch (Ours)" in output
    assert "ESbucket" in output
    assert "Stateful ALU" in output


def test_transport_option_parsing():
    args = build_parser().parse_args(["fig4", "--shards", "2", "--transport", "inproc"])
    assert args.transport == "inproc"
    assert build_parser().parse_args(["fig4"]).transport is None
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig4", "--transport", "smoke-signals"])


def test_transport_rejected_by_unsupporting_commands():
    # --transport is a pure execution knob, but commands that would silently
    # ignore it must reject it (mirrors the --shards policy).
    for experiment in ("fig5", "fig10", "fig16", "table1", "ingest-worker"):
        with pytest.raises(SystemExit):
            main([experiment, "--transport", "inproc"])


def test_ingest_only_flags_rejected_elsewhere():
    # Mirrors the --shards policy: result-shaping ingest flags must never be
    # silently ignored by the figure/table commands.
    for flags in (["--algorithm", "CM_fast"], ["--count", "500"],
                  ["--skew", "2.0"], ["--memory-bytes", "1024"],
                  ["--connect", "x:1"], ["--verify"]):
        with pytest.raises(SystemExit):
            main(["fig4", *flags])


def test_ingest_worker_connection_refused_is_clean():
    # An unreachable collector must surface as an argparse error (exit 2),
    # not an OSError traceback.
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest-worker", "--connect", "127.0.0.1:39997"])
    assert excinfo.value.code == 2


def test_ingest_collect_validation():
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--algorithm", "Elastic"])  # unmergeable
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--algorithm", "NoSuchSketch"])
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--bind", "127.0.0.1:0"])  # bind needs tcp
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--transport", "tcp", "--bind", "no-port"])


def test_ingest_collect_inproc_end_to_end(capsys):
    assert main([
        "ingest-collect", "--transport", "inproc", "--shards", "2",
        "--count", "4000", "--memory-bytes", "8192", "--verify",
    ]) == 0
    output = capsys.readouterr().out
    assert "2 workers over inproc" in output
    assert "bit-identical to single-node ingest: True" in output


def test_ingest_collect_reshard_end_to_end(capsys):
    # The default --partitions under --reshard gives every worker two
    # partitions, so the split and the merge each hand one off.
    assert main([
        "ingest-collect", "--transport", "inproc", "--shards", "2",
        "--reshard", "--count", "4000", "--memory-bytes", "8192", "--batch-size", "500", "--verify",
    ]) == 0
    output = capsys.readouterr().out
    assert "split worker" in output and "merged worker" in output
    assert "handoff: partition" in output
    assert "across 4 partitions" in output
    final_epoch = int(re.search(r"final epoch (\d+)", output).group(1))
    assert final_epoch >= 2
    assert "bit-identical to single-node ingest: True" in output
    assert "bit-identical to local sharded ingest: True" in output


@pytest.mark.parametrize("flags, message", [
    # 4000 items at the default 8192-item batch is one batch: the split and
    # merge hooks would never fire.
    (["--count", "4000"], "at least 3 batches"),
    # One partition per worker: the split would have nothing to move.
    (["--count", "40000", "--partitions", "2"], "more partitions than workers"),
    # Two batches: the split a third of the way in and the merge at two
    # thirds would land on the same batch.
    (["--count", "1000", "--batch-size", "500"], "at least 3 batches"),
])
def test_ingest_collect_reshard_rejects_runs_that_move_nothing(capsys, flags, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest-collect", "--transport", "inproc", "--shards", "2",
              "--reshard", *flags])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err



def test_ingest_collect_reshard_at_three_batches_over_three_shards(capsys):
    # The shortest stream --reshard accepts still splits and merges, and
    # the default --partitions doubles an odd shard count too.
    assert main([
        "ingest-collect", "--transport", "inproc", "--shards", "3",
        "--reshard", "--count", "1500", "--memory-bytes", "8192", "--batch-size", "500", "--verify",
    ]) == 0
    output = capsys.readouterr().out
    assert "[chunk 1] split worker" in output and "[chunk 2] merged worker" in output
    assert output.count("handoff: partition") == 2
    assert "across 6 partitions; final epoch 2;" in output
    assert "bit-identical to single-node ingest: True" in output
    assert "bit-identical to local sharded ingest: True" in output

def test_ingest_collect_tcp_self_hosted(capsys):
    assert main([
        "ingest-collect", "--transport", "tcp", "--shards", "2",
        "--count", "2000", "--memory-bytes", "8192",
    ]) == 0
    assert "tree-merged 2 snapshots" in capsys.readouterr().out


def test_fig17_command_runs_small(capsys):
    assert main(["fig17", "--scale", "0.001"]) == 0
    assert "containing truth" in capsys.readouterr().out


def test_fig19_command_runs_small(capsys):
    assert main(["fig19", "--scale", "0.001"]) == 0
    assert "KB" in capsys.readouterr().out


# --------------------------------------------------------------- serving CLI
def test_serving_flags_rejected_elsewhere():
    # Same policy as the ingest flags: serve/query-only flags must never be
    # silently ignored by other commands.
    for flags in (["--publish-every", "100"], ["--keys", "1,2"],
                  ["--top-k", "3"], ["--stats"]):
        with pytest.raises(SystemExit):
            main(["fig4", *flags])
    with pytest.raises(SystemExit):
        main(["serve", "--keys", "1"])  # query-only flag on serve
    with pytest.raises(SystemExit):
        main(["query", "--publish-every", "5"])  # serve-only flag on query


def test_serving_validation():
    with pytest.raises(SystemExit):
        main(["serve", "--algorithm", "NoSuchSketch"])
    with pytest.raises(SystemExit):
        main(["serve", "--publish-every", "0"])
    with pytest.raises(SystemExit):
        main(["query", "--top-k", "0"])
    with pytest.raises(SystemExit):
        main(["query", "--connect", "127.0.0.1:39996"])  # no action flag
    # an unreachable server is a clean argparse error, not a traceback
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "--connect", "127.0.0.1:39996", "--stats"])
    assert excinfo.value.code == 2


def test_async_serving_flags_policy():
    # The async flags obey the same never-silently-ignored policy.
    for flags in (["--async"], ["--max-inflight", "8"],
                  ["--drain-timeout", "1"], ["--backlog", "4"],
                  ["--pipeline", "4"]):
        with pytest.raises(SystemExit):
            main(["fig4", *flags])
    with pytest.raises(SystemExit):
        main(["query", "--async"])  # serve-only flag on query
    with pytest.raises(SystemExit):
        main(["serve", "--pipeline", "4"])  # query-only flag on serve


def test_async_serving_validation():
    with pytest.raises(SystemExit):
        main(["serve", "--async", "--max-inflight", "0"])
    with pytest.raises(SystemExit):
        main(["serve", "--async", "--drain-timeout", "0"])
    with pytest.raises(SystemExit):
        main(["serve", "--backlog", "0"])
    with pytest.raises(SystemExit):
        main(["query", "--connect", "127.0.0.1:1", "--keys", "1", "--pipeline", "0"])
    with pytest.raises(SystemExit):
        main(["query", "--connect", "127.0.0.1:1", "--stats", "--pipeline", "4"])


def test_query_pipeline_against_async_server(capsys):
    from repro.serve.async_server import AsyncServingSession
    from repro.serve.server import ServeConfig

    service = ServeConfig("CM_fast", 16384, seed=0).build_service()
    service.ingest([1, 1, 2])
    service.flush()
    with AsyncServingSession(service) as session:
        host, port = session.address
        assert main(["query", "--connect", f"{host}:{port}",
                     "--keys", "1,2,3", "--pipeline", "2"]) == 0
    output = capsys.readouterr().out
    assert "pipelined 3 requests, depth 2" in output
    assert "1: 2" in output and "2: 1" in output and "3: 0" in output


def test_ingest_collect_accepts_reliable_sketch(capsys):
    # PR 3 follow-on: Ours snapshots, so it can be collected remotely; the
    # verify path compares routed answers against local sharded ingest.
    assert main([
        "ingest-collect", "--transport", "inproc", "--shards", "2",
        "--algorithm", "Ours", "--count", "3000", "--memory-bytes", "16384",
        "--verify",
    ]) == 0
    output = capsys.readouterr().out
    assert "no lossless merge" in output
    assert "bit-identical to local sharded ingest: True" in output


def test_serve_and_query_end_to_end(capsys):
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--bind", "127.0.0.1:0",
         "--algorithm", "CM_fast", "--memory-bytes", "16384",
         "--publish-every", "512"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        match = None
        for line in server.stdout:
            match = re.match(r"^serving .* on (\S+):(\d+)", line)
            if match:
                break
        assert match, "server exited before printing its address"
        address = f"{match.group(1)}:{match.group(2)}"
        # A writer pushing a synthetic stream, then reads on the same
        # connection (the serve loop multiplexes; no session limit).
        assert main(["query", "--connect", address, "--count", "2000",
                     "--keys", "0,1", "--top-k", "3", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "ingested 2000 items" in output
        assert "answered at epoch" in output
        assert '"epoch_id"' in output
        # Ctrl-C is the shutdown signal: drain, report, exit cleanly.
        server.send_signal(signal.SIGINT)
        rest, _ = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert server.returncode == 0
    assert "over 1 connection(s)" in rest
    assert "drained=True" in rest


@pytest.mark.parametrize("mode", [[], ["--async"]], ids=["default", "async"])
def test_serve_looks_up_the_server_class_at_call_time(mode, monkeypatch, capsys):
    # pipebench/server_main.py imports repro.cli, then replaces
    # repro.serve.async_server.AsyncSketchServer to pin loop settings; the
    # serve command must build the replacement, with or without --async.
    import threading

    import repro.cli  # noqa: F401  (imported before the patch, on purpose)
    import repro.serve.async_server as async_server

    built = []

    class RecordingServer(async_server.AsyncSketchServer):
        def __init__(self, service, *args, **kwargs):
            super().__init__(service, *args, **kwargs)
            built.append(kwargs)
            self.shutdown()  # serve_forever then drains at once

    monkeypatch.setattr(async_server, "AsyncSketchServer", RecordingServer)
    argv = ["serve", "--bind", "127.0.0.1:0", "--max-inflight", "8",
            "--backlog", "4", "--drain-timeout", "1", *mode]
    exit_codes = []
    # On a thread with a deadline: a server the patch cannot reach would
    # serve forever instead of failing.
    runner = threading.Thread(
        target=lambda: exit_codes.append(main(argv)), daemon=True
    )
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "serve built a server the patch missed"
    assert exit_codes == [0]
    assert built == [{"max_inflight": 8, "backlog": 4, "drain_timeout": 1.0}]
    assert "drained=True" in capsys.readouterr().out


def test_durability_flags_rejected_elsewhere(tmp_path):
    # Store and heartbeat flags obey the never-silently-ignored policy.
    store = str(tmp_path)
    for flags in (["--store", store], ["--store-retain", "2"],
                  ["--heartbeat-interval", "1"], ["--heartbeat-timeout", "1"]):
        with pytest.raises(SystemExit):
            main(["fig4", *flags])
    with pytest.raises(SystemExit):
        main(["store-inspect", "--store", store, "--store-retain", "2"])
    # store-* commands are nothing without a directory to operate on.
    for command in ("store-inspect", "store-verify", "store-compact"):
        with pytest.raises(SystemExit):
            main([command])


def test_durability_flag_validation(tmp_path):
    store = str(tmp_path)
    with pytest.raises(SystemExit):
        main(["store-compact", "--store", store, "--store-retain", "0"])
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--partitions", "2",
              "--heartbeat-interval", "0"])
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--partitions", "2",
              "--heartbeat-timeout", "-1"])
    # A resumed fleet carries history local re-ingest cannot mirror.
    with pytest.raises(SystemExit):
        main(["ingest-collect", "--partitions", "2", "--store", store,
              "--verify"])
    # The store persists snapshots, so the family must be snapshotable.
    with pytest.raises(SystemExit):
        main(["serve", "--algorithm", "Elastic", "--store", store])


def test_store_commands_on_empty_directory(tmp_path, capsys):
    store = str(tmp_path)
    assert main(["store-verify", "--store", store]) == 0
    assert "empty store (cold start)" in capsys.readouterr().out
    assert main(["store-inspect", "--store", store]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_ingest_collect_store_resume_end_to_end(tmp_path, capsys):
    store = str(tmp_path / "checkpoints")
    argv = ["ingest-collect", "--transport", "inproc", "--shards", "2",
            "--partitions", "4", "--count", "2000", "--memory-bytes", "8192",
            "--store", store]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert f"persisting partition checkpoints to {store}" in first
    assert "2000" in first
    # A second run resumes from disk: its totals include the first run's.
    assert main(argv) == 0
    assert "4000" in capsys.readouterr().out


def test_temporal_query_flag_validation():
    # --epoch / --window / --watch belong to query only.
    with pytest.raises(SystemExit):
        main(["fig4", "--epoch", "2"])
    with pytest.raises(SystemExit):
        main(["serve", "--window", "2"])
    # Mutually exclusive pin vs window; window needs keys; watch needs top-k.
    with pytest.raises(SystemExit):
        main(["query", "--keys", "1", "--epoch", "2", "--window", "3"])
    with pytest.raises(SystemExit):
        main(["query", "--window", "2"])
    with pytest.raises(SystemExit):
        main(["query", "--keys", "1", "--window", "0"])
    with pytest.raises(SystemExit):
        main(["query", "--keys", "1", "--epoch", "-1"])
    with pytest.raises(SystemExit):
        main(["query", "--keys", "1", "--watch", "3"])
    with pytest.raises(SystemExit):
        main(["query", "--top-k", "5", "--watch", "0"])
    with pytest.raises(SystemExit):
        main(["query", "--top-k", "5", "--interval", "0.5"])
    with pytest.raises(SystemExit):
        main(["query", "--top-k", "5", "--watch", "2", "--epoch", "1"])
    with pytest.raises(SystemExit):
        main(["query", "--keys", "1", "--epoch", "2", "--pipeline", "4"])


def test_ring_epochs_flag_validation():
    with pytest.raises(SystemExit):
        main(["query", "--ring-epochs", "4", "--stats"])
    with pytest.raises(SystemExit):
        main(["serve", "--ring-epochs", "0"])
    args = build_parser().parse_args(["serve", "--ring-epochs", "16"])
    assert args.ring_epochs == 16
