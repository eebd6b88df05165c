from __future__ import annotations

import contextlib
import io
import json
import os
import gc
import shlex
import signal
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import dalia
import scenario
from counting import CountingFunction
from dalia import cli, directory, wire
from dalia.canonical import canonical_bytes
from dalia.cli import main
from dalia.directory import load_snapshot, save_snapshot, snapshot_to_json
from dalia.serve import TcpServerHandle
from dalia.wire import WireServer

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_INPUT_ARGS = ["location=city centre", "date=tomorrow", "party_size=4"]


def write_scenario_configs(tmp_path: Path, fail_on=None) -> Path:
    server_doc = scenario.food_server_doc(fail_on=fail_on)
    (tmp_path / "food_server.json").write_bytes(canonical_bytes(server_doc))
    (tmp_path / "directory.json").write_bytes(save_snapshot(scenario.scenario_directory()))
    config = {
        "servers": ["local:food_server.json"],
        "directory": "local:directory.json",
    }
    path = tmp_path / "orchestrator.json"
    path.write_text(json.dumps(config))
    return path


def run_cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_discover_prints_summary_and_fingerprint(tmp_path):
    config = write_scenario_configs(tmp_path)
    code, output = run_cli(
        ["discover", "--config", str(config), "--inputs", *SCENARIO_INPUT_ARGS]
    )
    assert code == 0
    assert "capabilities (2): restaurant.reserve, restaurant.search" in output
    assert "tasks (1): restaurant.booking" in output
    assert "agents (1): RestaurantAgent" in output
    assert "feasible tasks (1): restaurant.booking" in output
    assert "fingerprint: " in output

    code_again, output_again = run_cli(
        ["discover", "--config", str(config), "--inputs", *SCENARIO_INPUT_ARGS]
    )
    assert code_again == 0
    assert output_again == output


def test_discover_unreachable_endpoint_exits_2(tmp_path):
    config = tmp_path / "orchestrator.json"
    config.write_text(
        json.dumps({"servers": ["local:missing.json"], "directory": "local:directory.json"})
    )
    code, _ = run_cli(["discover", "--config", str(config), "--inputs"])
    assert code == 2


def test_plan_emits_two_node_graph(tmp_path):
    config = write_scenario_configs(tmp_path)
    code, output = run_cli(
        [
            "plan",
            "--config",
            str(config),
            "--intent",
            "book_restaurant",
            "--inputs",
            *SCENARIO_INPUT_ARGS,
        ]
    )
    assert code == 0
    graph = json.loads(output)
    assert len(graph["nodes"]) == 2
    assert len(graph["edges"]) == 1
    assert graph["edges"][0]["slot"] == "restaurant_list"
    assert {node["agent_id"] for node in graph["nodes"]} == {"RestaurantAgent"}


def test_plan_output_is_byte_identical_across_runs(tmp_path):
    config = write_scenario_configs(tmp_path)
    args = [
        "plan",
        "--config",
        str(config),
        "--intent",
        "book_restaurant",
        "--inputs",
        *SCENARIO_INPUT_ARGS,
    ]
    outputs = {run_cli(args)[1] for _ in range(5)}
    assert len(outputs) == 1


def test_plan_dot_output(tmp_path):
    config = write_scenario_configs(tmp_path)
    code, output = run_cli(
        [
            "plan",
            "--config",
            str(config),
            "--intent",
            "book_restaurant",
            "--inputs",
            *SCENARIO_INPUT_ARGS,
            "--dot",
        ]
    )
    assert code == 0
    assert output.startswith("digraph task_restaurant_booking {")
    assert output.count('[label="restaurant_list"]') == 1


def test_plan_unknown_intent_exits_3(tmp_path, capsys):
    config = write_scenario_configs(tmp_path)
    code, _ = run_cli(
        ["plan", "--config", str(config), "--intent", "fly_to_moon", "--inputs"]
    )
    assert code == 3
    assert "NoSuchTask" in capsys.readouterr().err


def test_run_scenario_completes(tmp_path):
    config = write_scenario_configs(tmp_path)
    code, output = run_cli(
        [
            "run",
            "--config",
            str(config),
            "--intent",
            "book_restaurant",
            "--inputs",
            *SCENARIO_INPUT_ARGS,
        ]
    )
    assert code == 0
    trace = json.loads(output)
    assert trace["outcome"] == "completed"
    assert trace["final_bindings"]["booking_confirmation"] == scenario.BOOKING_CONFIRMATION


def test_run_aborted_exits_4(tmp_path):
    config = write_scenario_configs(tmp_path, fail_on={scenario.SEARCH_ID: (1,)})
    code, output = run_cli(
        [
            "run",
            "--config",
            str(config),
            "--intent",
            "book_restaurant",
            "--inputs",
            *SCENARIO_INPUT_ARGS,
        ]
    )
    assert code == 4
    trace = json.loads(output)
    assert trace["outcome"] == "aborted"
    assert [step["status"] for step in trace["steps"]] == ["failed", "skipped"]


def test_run_trace_files_are_byte_identical(tmp_path):
    config = write_scenario_configs(tmp_path)
    paths = [tmp_path / "trace_one.json", tmp_path / "trace_two.json"]
    for path in paths:
        code, output = run_cli(
            [
                "run",
                "--config",
                str(config),
                "--intent",
                "book_restaurant",
                "--inputs",
                *SCENARIO_INPUT_ARGS,
                "--trace",
                str(path),
            ]
        )
        assert code == 0
        assert output == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _refuse_discovery(monkeypatch) -> None:
    def discover(*args, **kwargs):
        raise AssertionError("discovery was reached")

    monkeypatch.setattr(cli, "discover", discover)


def test_run_refuses_an_unwritable_trace_path_before_discovery(tmp_path, monkeypatch, capsys):
    config = write_scenario_configs(tmp_path)
    _refuse_discovery(monkeypatch)
    for path, reason in (
        (tmp_path / "absent" / "trace.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        code, output = run_cli(
            ["run", "--config", str(config), "--intent", "book_restaurant",
             "--inputs", *SCENARIO_INPUT_ARGS, "--trace", str(path)]
        )
        assert (code, output) == (1, "")
        assert capsys.readouterr().err == f"usage error: cannot write trace {path}: {reason}\n"
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("before", [None, b"an earlier trace\n"], ids=["absent", "existing"])
def test_a_run_that_stops_before_writing_leaves_the_trace_path_as_it_was(tmp_path, before):
    config = write_scenario_configs(tmp_path)
    path = tmp_path / "trace.json"
    if before is not None:
        path.write_bytes(before)
    code, output = run_cli(
        ["run", "--config", str(config), "--intent", "fly_somewhere", "--trace", str(path)]
    )
    assert (code, output) == (3, "")
    assert (path.read_bytes() if path.exists() else None) == before


def test_a_run_replaces_a_longer_existing_trace_file(tmp_path):
    config = write_scenario_configs(tmp_path)
    args = ["run", "--config", str(config), "--intent", "book_restaurant",
            "--inputs", *SCENARIO_INPUT_ARGS]
    code, output = run_cli(args)
    assert code == 0
    path = tmp_path / "trace.json"
    path.write_bytes(b"x" * 10 * len(output))
    assert run_cli([*args, "--trace", str(path)]) == (0, "")
    assert path.read_text(encoding="utf-8") == output


def test_an_input_that_is_not_utf8_is_a_usage_error_before_discovery(tmp_path, monkeypatch, capsys):
    config = write_scenario_configs(tmp_path)
    _refuse_discovery(monkeypatch)
    code, output = run_cli(
        ["run", "--config", str(config), "--intent", "book_restaurant",
         "--inputs", "location=\udcff", "date=tomorrow", "party_size=4"]
    )
    assert (code, output) == (1, "")
    assert capsys.readouterr().err == "usage error: input 'location' is not UTF-8 text: '\\udcff'\n"


def test_run_refuses_a_raw_non_utf8_byte_in_an_input():
    proc = subprocess.run(
        [sys.executable, "-m", "dalia.cli", "run", "--config", "configs/orchestrator.json",
         "--intent", "book_restaurant", "--inputs", b"location=\xff", "date=tomorrow",
         "party_size=4"],
        capture_output=True,
        timeout=30,
        cwd=REPO_ROOT,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"usage error: input 'location' is not UTF-8 text: '\\udcff'\n"


def test_usage_errors_exit_1(tmp_path):
    config = write_scenario_configs(tmp_path)
    code, _ = run_cli(
        ["plan", "--config", str(config), "--intent", "book_restaurant", "--inputs", "no-equals"]
    )
    assert code == 1
    code, _ = run_cli(["plan", "--config", str(tmp_path / "absent.json"), "--intent", "x"])
    assert code == 1
    code, _ = run_cli(["bogus-command"])
    assert code == 1


def test_server_serve_rejects_broken_config(tmp_path):
    doc = scenario.food_server_doc()
    doc["tasks"][0]["capabilities"].append("ghost.capability")
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["server", "serve", "--config", str(path)])
    assert code == 1


# A value that is not a list: a number, a boolean, and an object, whose keys
# were once read as capability or task documents.
_NOT_LISTS = pytest.mark.parametrize("value", [5, True, {"restaurant.search": {}}])
_LIST_FIELDS = pytest.mark.parametrize("field", ["capabilities", "tasks"])


@_NOT_LISTS
@_LIST_FIELDS
def test_server_serve_refuses_a_config_whose_list_field_is_not_a_list(
    tmp_path, capsys, field, value
):
    doc = scenario.food_server_doc()
    doc[field] = value
    path = tmp_path / "food_server.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["server", "serve", "--config", str(path)]) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"invalid configuration: {field} must be a list")
    assert len(err.splitlines()) == 1


@_NOT_LISTS
@_LIST_FIELDS
def test_run_over_a_local_server_whose_list_field_is_not_a_list_exits_2(
    tmp_path, capsys, field, value
):
    config = write_scenario_configs(tmp_path)
    doc = scenario.food_server_doc()
    doc[field] = value
    (tmp_path / "food_server.json").write_text(json.dumps(doc))
    args = ["run", "--config", str(config), "--intent", "book_restaurant"]
    assert run_cli([*args, "--inputs", *SCENARIO_INPUT_ARGS]) == (2, "")
    endpoint = f"local:{config.resolve().parent / 'food_server.json'}"
    err = capsys.readouterr().err
    assert err.startswith(f"EndpointUnreachable: endpoint unreachable: {endpoint} ({field} ")
    assert f"({field} must be a list" in err
    assert len(err.splitlines()) == 1


def test_server_serve_stdio_subprocess(tmp_path):
    server_doc = scenario.food_server_doc()
    path = tmp_path / "food_server.json"
    path.write_bytes(canonical_bytes(server_doc))
    request = {"jsonrpc": "2.0", "id": 1, "method": "dalia/list_capabilities", "params": {}}
    proc = subprocess.run(
        [sys.executable, "-m", "dalia.cli", "server", "serve", "--config", str(path)],
        input=json.dumps(request) + "\n",
        capture_output=True,
        text=True,
        timeout=30,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    response = json.loads(proc.stdout.splitlines()[0])
    assert [doc["capability_id"] for doc in response["result"]] == [
        "restaurant.search",
        "restaurant.reserve",
    ]


def test_stdio_server_answers_in_utf8_under_an_ascii_locale():
    requests = canonical_bytes(
        {"jsonrpc": "2.0", "id": 1, "method": "dalia/invoke", "params": {"capability_id": "café.x"}}
    ) + b"\n" + canonical_bytes({"jsonrpc": "2.0", "id": 2, "method": "dalia/server_info"}) + b"\n"
    answers = {}
    for encoding in ("utf-8", "ascii"):
        proc = subprocess.run(
            [sys.executable, "-m", "dalia.cli", "server", "serve", "--config", "configs/food_server.json"],
            input=requests,
            capture_output=True,
            timeout=30,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONIOENCODING": encoding},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        answers[encoding] = proc.stdout
    assert answers["ascii"] == answers["utf-8"] == (
        '{"jsonrpc":"2.0","id":1,"error":{"code":-32001,"message":"unknown capability: \'café.x\'"}}\n'
        '{"jsonrpc":"2.0","id":2,"result":{"server_id":"mcp_food_server"}}\n'
    ).encode()


def test_stdio_server_stops_quietly_when_its_reader_goes_away(tmp_path):
    # The answers outgrow a pipe's buffer, so the server is still writing
    # when the reader closes its end.
    request = canonical_bytes({"jsonrpc": "2.0", "id": 1, "method": "dalia/list_capabilities"})
    requests = tmp_path / "requests.jsonl"
    requests.write_bytes((request + b"\n") * 3000)
    with open(requests, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dalia.cli", "server", "serve", "--config", "configs/food_server.json"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
        )
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
    assert head == b'{"jsonrpc"'
    assert (proc.returncode, stderr) == (0, b"")


def test_a_run_process_prints_the_transcript_trace():
    proc = subprocess.run(
        [sys.executable, "-m", "dalia.cli", "run", "--config", "configs/orchestrator.json",
         "--intent", "book_restaurant", "--inputs", *SCENARIO_INPUT_ARGS],
        capture_output=True,
        timeout=30,
        cwd=REPO_ROOT,
    )
    trace = [line[2:] for line in _cli_transcript()["run"] if line.startswith("1 ")]
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == "".join(f"{line}\n" for line in trace).encode()


def test_main_in_process_leaves_gc_state_alone(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    before = gc.isenabled(), gc.get_freeze_count()
    code, _ = run_cli(["run", "--config", "configs/orchestrator.json", "--intent",
                       "book_restaurant", "--inputs", *SCENARIO_INPUT_ARGS])
    assert code == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_run_writes_utf8_under_an_ascii_locale():
    outputs = {}
    for encoding in ("utf-8", "ascii"):
        proc = subprocess.run(
            [sys.executable, "-m", "dalia.cli", "run", "--config", "configs/orchestrator.json",
             "--intent", "book_restaurant", "--inputs", "location=café", "date=tomorrow",
             "party_size=4"],
            capture_output=True,
            timeout=30,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONIOENCODING": encoding},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs[encoding] = proc.stdout
    assert outputs["ascii"] == outputs["utf-8"]
    assert json.loads(outputs["ascii"])["final_bindings"]["location"] == "café"


def test_main_writes_to_whatever_replaced_sys_stdout(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    replaced = io.StringIO()
    with contextlib.redirect_stdout(replaced):
        code = main(["plan", "--config", "configs/orchestrator.json", "--intent", "book_restaurant",
                     "--inputs", *SCENARIO_INPUT_ARGS])
    assert code == 0
    assert json.loads(replaced.getvalue())["task_id"] == "restaurant.booking"


def test_directory_serve_snapshot_round_trip(tmp_path):
    snapshot_path = tmp_path / "directory.json"
    original = save_snapshot(scenario.scenario_directory()) + b"\n"
    snapshot_path.write_bytes(original)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dalia.cli",
            "directory",
            "serve",
            "--snapshot",
            str(snapshot_path),
        ],
        input="",
        capture_output=True,
        text=True,
        timeout=30,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert snapshot_path.read_bytes() == original


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_directory_serve_saves_an_acknowledged_write_when_signalled(tmp_path, signum):
    path = tmp_path / "directory.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "dalia.cli", "directory", "serve", "--snapshot", str(path),
         "--tcp", "127.0.0.1:0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        cwd=REPO_ROOT,
    )
    try:
        line = proc.stderr.readline().decode()
        assert line.startswith("serving directory on ")
        client = wire.TcpClient(line.split()[-1])
        record = {"agent_id": "zed", "role": "r", "domains": [], "accessible_servers": []}
        client.call("directory/register_agent", {"record": record})
        client.close()
        proc.send_signal(signum)  # only the process this test started
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert (proc.returncode, stderr) == (0, b"")
    assert list(load_snapshot(path.read_bytes()).agents) == ["zed"]


def _directory_serve(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dalia.cli", "directory", "serve", *args],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=30,
        cwd=REPO_ROOT,
    )


def test_directory_serve_reports_a_snapshot_it_cannot_save(tmp_path):
    path = tmp_path / "missing" / "directory.json"
    proc = _directory_serve("--snapshot", str(path))
    reason = f"[Errno 2] No such file or directory: {str(path)!r}"
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"invalid configuration: cannot save snapshot {path}: {reason}\n"


@pytest.mark.parametrize("where", ["missing/directory.json", "directory.json", "kept.json"])
def test_directory_serve_bind_failure_exits_2_whether_or_not_the_snapshot_saves(tmp_path, where):
    path = tmp_path / where
    if where == "kept.json":  # hand-formatted, so a save would change its bytes
        path.write_text(json.dumps(snapshot_to_json(scenario.scenario_directory()), indent=2))
    before = path.read_bytes() if path.exists() else None
    proc = _directory_serve("--snapshot", str(path), "--tcp", "not-an-address")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "BindFailure: cannot bind not-an-address: expected host:port\n"
    # nothing was served, so nothing was saved
    assert (path.read_bytes() if path.exists() else None) == before


@pytest.mark.parametrize(
    "command",
    [["server", "serve", "--config", "configs/food_server.json"], ["directory", "serve"]],
    ids=["server", "directory"],
)
def test_serve_on_an_out_of_range_port_exits_2_and_saves_nothing(tmp_path, command):
    path = tmp_path / "directory.json"
    snapshot = ["--snapshot", str(path)] if command[0] == "directory" else []
    proc = subprocess.run(
        [sys.executable, "-m", "dalia.cli", *command, *snapshot, "--tcp", "127.0.0.1:99999"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=30,
        cwd=REPO_ROOT,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "BindFailure: cannot bind 127.0.0.1:99999: port must be 0-65535\n"
    assert not path.exists()


def test_a_tcp_endpoint_with_an_out_of_range_port_exits_2(tmp_path, capsys):
    config = tmp_path / "orchestrator.json"
    config.write_text(json.dumps({"servers": ["tcp:127.0.0.1:70000"], "directory": "tcp:h:1"}))
    assert run_cli(["discover", "--config", str(config), "--inputs"])[0] == 2
    assert capsys.readouterr().err == (
        "BindFailure: cannot bind 127.0.0.1:70000: port must be 0-65535\n"
    )


def test_run_loads_no_serving_code():
    script = (
        "import io, sys\n"
        "from dalia import cli\n"
        "argv = ['run', '--config', 'configs/orchestrator.json', '--intent', 'book_restaurant',\n"
        f"        '--inputs', *{SCENARIO_INPUT_ARGS!r}]\n"
        "assert cli.main(argv, out=io.StringIO()) == 0\n"
        "loaded = {'socketserver', 'dalia.serve', 'dataclasses', 'inspect', 'socket'}\n"
        "print(sorted(loaded & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30, cwd=REPO_ROOT
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_run_over_local_endpoints_encodes_no_discovery_answer(tmp_path, monkeypatch):
    config = write_scenario_configs(tmp_path)
    counters = {}
    for owner, name in ((wire, "canonical_bytes"), (directory, "canonical_bytes"),
                        (wire._Dispatcher, "answer")):
        counters[owner, name] = CountingFunction(getattr(owner, name))
        monkeypatch.setattr(owner, name, counters[owner, name])
    code, _ = run_cli(
        ["run", "--config", str(config), "--intent", "book_restaurant",
         "--inputs", *SCENARIO_INPUT_ARGS]
    )
    assert code == 0
    assert [counter.calls for counter in counters.values()] == [0, 0, 0]


def test_pipeline_over_tcp_endpoints(tmp_path):
    from dalia.wire import DirectoryService

    server_handle = TcpServerHandle(WireServer(scenario.food_server_config()), "127.0.0.1:0")
    directory_handle = TcpServerHandle(
        DirectoryService(scenario.scenario_directory()), "127.0.0.1:0"
    )
    try:
        config = tmp_path / "orchestrator.json"
        config.write_text(
            json.dumps(
                {
                    "servers": [f"tcp:{server_handle.address}"],
                    "directory": f"tcp:{directory_handle.address}",
                }
            )
        )
        code, output = run_cli(
            [
                "run",
                "--config",
                str(config),
                "--intent",
                "book_restaurant",
                "--inputs",
                *SCENARIO_INPUT_ARGS,
            ]
        )
        assert code == 0
        assert json.loads(output)["outcome"] == "completed"
    finally:
        server_handle.shutdown()
        directory_handle.shutdown()


def _run_against_server(tmp_path, address: str) -> tuple[int, str]:
    """``dalia run`` of the scenario with the food server at ``tcp:address``."""
    write_scenario_configs(tmp_path)
    config = tmp_path / "orchestrator.json"
    config.write_text(
        json.dumps({"servers": [f"tcp:{address}"], "directory": "local:directory.json"})
    )
    args = ["run", "--config", str(config), "--intent", "book_restaurant"]
    return run_cli([*args, "--inputs", *SCENARIO_INPUT_ARGS])


def test_silent_endpoint_during_discovery_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(wire, "CLIENT_TIMEOUT_SECONDS", 0.3)
    # listens, so connections complete, but never accepts or answers
    with socket.create_server(("127.0.0.1", 0)) as silent:
        host, port = silent.getsockname()[:2]
        started = time.perf_counter()
        code, output = _run_against_server(tmp_path, f"{host}:{port}")
        elapsed = time.perf_counter() - started
    assert code == 2
    assert output == ""
    assert "EndpointUnreachable" in capsys.readouterr().err
    assert elapsed < 5


def test_silent_endpoint_during_invoke_aborts_the_trace_and_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(wire, "CLIENT_TIMEOUT_SECONDS", 0.3)
    release = threading.Event()
    server = WireServer(scenario.food_server_config())
    invoke = server._methods["dalia/invoke"]

    def blocked_invoke(params):
        release.wait(timeout=10)
        return invoke(params)

    server._methods["dalia/invoke"] = blocked_invoke
    handle = TcpServerHandle(server, "127.0.0.1:0")
    try:
        code, output = _run_against_server(tmp_path, handle.address)
    finally:
        release.set()
        handle.shutdown()
    assert code == 4
    trace = json.loads(output)
    assert trace["outcome"] == "aborted"
    assert [step["status"] for step in trace["steps"]] == ["failed", "skipped"]
    assert trace["steps"][0]["error"].startswith("invocation failed: endpoint unreachable")
    assert trace["final_bindings"] == dict(pair.split("=") for pair in SCENARIO_INPUT_ARGS)


def test_package_exports_only_classes_and_functions():
    assert dalia.__all__
    for name in dalia.__all__:
        value = getattr(dalia, name)
        assert not isinstance(value, types.ModuleType), name
        assert callable(value), name


def test_checked_in_demo_configs_work():
    code, output = run_cli(
        [
            "plan",
            "--config",
            str(REPO_ROOT / "configs" / "orchestrator.json"),
            "--intent",
            "book_restaurant",
            "--inputs",
            *SCENARIO_INPUT_ARGS,
        ]
    )
    assert code == 0
    assert len(json.loads(output)["nodes"]) == 2


def test_plan_refuses_a_config_with_an_unexpected_field(tmp_path, capsys):
    config = write_scenario_configs(tmp_path)
    config.write_text(json.dumps(dict(json.loads(config.read_text()), output_format="dot")))
    code, output = run_cli(
        ["plan", "--config", str(config), "--intent", "book_restaurant",
         "--inputs", *SCENARIO_INPUT_ARGS]
    )
    assert (code, output) == (1, "")
    assert capsys.readouterr().err == "usage error: unexpected config fields: ['output_format']\n"


_DEEP = b"[" * 200_000


def _food_server_with_number(literal: str) -> bytes:
    """The food server config with ``literal`` as a value in a handler script."""
    doc = scenario.food_server_doc()
    doc["handlers"]["restaurant.search"]["script"] = [{"restaurant_list": "__number__"}]
    return json.dumps(doc).replace('"__number__"', literal).encode()


@pytest.mark.parametrize(
    ("target", "content", "command", "expected"),
    [
        ("food_server.json", _DEEP, "run", 2),
        ("directory.json", _DEEP, "run", 2),
        ("food_server.json", _food_server_with_number("NaN"), "run", 2),
        ("food_server.json", _food_server_with_number("1e999"), "run", 2),
        ("orchestrator.json", _DEEP, "run", 1),
        ("orchestrator.json", b'{"servers": ["local:food_server.json"], "directory": "\xff"}', "run", 1),
        ("food_server.json", _DEEP, "server", 1),
        ("directory.json", _DEEP, "directory", 1),
    ],
    ids=[
        "local-server-deep",
        "local-snapshot-deep",
        "local-server-nan",
        "local-server-overflow",
        "config-deep",
        "config-not-utf8",
        "server-serve-deep",
        "directory-serve-deep",
    ],
)
def test_unreadable_documents_exit_with_their_documented_code(
    tmp_path, capsys, target, content, command, expected
):
    config = write_scenario_configs(tmp_path)
    (tmp_path / target).write_bytes(content)
    args = {
        "run": ["run", "--config", str(config), "--intent", "book_restaurant",
                "--inputs", *SCENARIO_INPUT_ARGS],
        "server": ["server", "serve", "--config", str(tmp_path / target)],
        "directory": ["directory", "serve", "--snapshot", str(tmp_path / target)],
    }[command]
    code, output = run_cli(args)
    assert code == expected
    assert output == ""
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert (tmp_path / target).read_bytes() == content


# -- the CLI transcript --------------------------------------------------------------

_CLI_TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")


def _cli_transcript() -> dict[str, list[str]]:
    """The lines of each ``[section]`` of cli_transcript.txt."""
    sections: dict[str, list[str]] = {}
    for line in _CLI_TRANSCRIPT.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            lines = sections[line[1:-1]] = []
        elif not line.startswith("#"):
            lines.append(line)
    return sections


def _replay_cli(lines: list[str], directory: Path, capsys) -> list[str]:
    """Write the section's files into ``directory``, run its command from the
    repository root, and render what it did in the transcript's lines."""
    rendered = []
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag == "+":
            name, _, text = rest.partition(" ")
            (directory / name).write_text(text, encoding="utf-8")
            rendered.append(line)
        elif tag == "$":
            argv = shlex.split(rest.replace("{dir}", str(directory)))
            assert argv[0] == "dalia"
            capsys.readouterr()
            out = io.StringIO()
            code = main(argv[1:], out=out)
            err = capsys.readouterr().err
            for stream in (out.getvalue(), err):
                assert stream.endswith("\n") or not stream
            rendered.append(line)
            rendered += [f"1 {text}" if text else "1" for text in out.getvalue().splitlines()]
            rendered += [f"2 {text}" if text else "2" for text in err.splitlines()]
            rendered.append(f"? {code}")
    return rendered


@pytest.mark.parametrize("section", list(_cli_transcript()))
def test_cli_transcript(section, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    expected = _cli_transcript()[section]
    assert _replay_cli(expected, tmp_path, capsys) == expected
