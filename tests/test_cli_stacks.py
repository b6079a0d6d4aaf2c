"""CLI serving stacks: one stream whichever way the stack is stood up.

``serve``, ``fleet`` and ``gateway`` build their stacks from the same
flags.  These tests pin that contract from the outside:

* the merged JSONL stream of ``serve`` (per-hour and day blocks, and
  with ``--jobs 2``) and ``fleet`` (serial and supervised) is
  byte-identical on one world;
* ``fleet --resume`` after a ``--max-days`` run continues that stream;
* ``gateway`` stands up its fleet and lifecycle stacks, names the
  backend in its ``listening`` line, and drains on SIGTERM;
* every subcommand's options keep their dest, default, ``required``,
  choices, nargs and type.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main as cli_main

SRC = Path(__file__).resolve().parents[1] / "src"

STACK_ARGS = [
    "--data", "net.npz", "--impute-epochs", "1", "--train-day", "21",
    "--estimators", "4", "--training-days", "2", "--horizons", "1", "3",
    "--top-k", "3",
]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-stacks")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert cli_main([
            "-q", "generate", "--towers", "8", "--weeks", "5", "--seed", "5",
            "--out", "net.npz",
        ]) == 0
    finally:
        os.chdir(cwd)
    return root


def _run(world, capsys, *args) -> str:
    """Run one CLI command in *world*; returns its stdout."""
    capsys.readouterr()
    cwd = os.getcwd()
    os.chdir(world)
    try:
        assert cli_main(["-q", *args, *STACK_ARGS]) == 0
    finally:
        os.chdir(cwd)
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def reference(world):
    """``serve`` per-hour stdout, the stream every other stack must match."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "-q", "serve", "--registry", "ref",
         *STACK_ARGS],
        cwd=world, env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout


def test_reference_stream_alerts(reference):
    events = [json.loads(line) for line in reference.splitlines()]
    assert len(events) == 63
    assert sum(e["type"] == "alert" for e in events) == 28
    assert {e["horizon"] for e in events if e["type"] == "alert"} == {1, 3}


@pytest.mark.parametrize(
    "command",
    [
        ["serve", "--registry", "r-serve-24", "--batch-hours", "24"],
        ["serve", "--registry", "r-serve-jobs2", "--jobs", "2"],
        ["fleet", "--registry", "r-fleet", "--checkpoint-dir", "f-serial",
         "--shards", "2", "--batch-hours", "24"],
        ["fleet", "--registry", "r-sup", "--checkpoint-dir", "f-sup",
         "--shards", "2", "--supervise"],
    ],
    ids=["serve-batch24", "serve-jobs2", "fleet-serial-batch24", "fleet-supervised"],
)
def test_stacks_emit_identical_stdout(world, reference, capsys, command):
    assert _run(world, capsys, *command) == reference


def test_fleet_resume_continues_the_stream(world, reference, capsys):
    head = _run(world, capsys, "fleet", "--registry", "r-head",
                "--checkpoint-dir", "f-resume", "--shards", "2",
                "--max-days", "28")
    assert 0 < len(head) < len(reference)
    tail = _run(world, capsys, "fleet", "--registry", "r-tail",
                "--checkpoint-dir", "f-resume", "--resume")
    assert head + tail == reference


def _spawn_gateway(world, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "-q", "gateway", "--port", "0",
         *args, *STACK_ARGS],
        cwd=world, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )


@pytest.mark.parametrize(
    ("args", "backend"),
    [
        (["--registry", "g-fleet", "--shards", "2", "--checkpoint-dir", "g-ckpt",
          "--supervise"], "fleet"),
        (["--registry", "g-life", "--lifecycle"], "resilient"),
    ],
    ids=["fleet-supervised", "lifecycle"],
)
def test_gateway_stacks_start_and_drain(world, args, backend):
    proc = _spawn_gateway(world, *args)
    try:
        deadline = time.monotonic() + 300
        listening = None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            assert line, f"gateway exited early (rc={proc.poll()})"
            record = json.loads(line)
            if record.get("type") == "listening":
                listening = record
                break
        assert listening is not None
        assert listening["backend"] == backend
        assert listening["resume_hour"] == 0

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert records[-1]["type"] == "shutdown"
    assert records[-1]["command"] == "gateway"


# --------------------------------------------------------------------------
# parser surface: (dest, default, required, choices, nargs, type)
# --------------------------------------------------------------------------
MODELS = ("Random", "Persist", "Average", "Trend", "Tree", "RF-R", "RF-F1",
          "RF-F2")
TRAINABLE = ("RF-F1", "RF-F2", "RF-R", "Tree")

COMMON = {
    "--data": ("data", None, True, None, None, None),
    "--impute-epochs": ("impute_epochs", 10, False, None, None, "int"),
    "--seed": ("seed", 0, False, None, None, "int"),
    "--jobs": ("jobs", 1, False, None, None, "int"),
}

SURFACE = {
    "generate": {
        "--towers": ("towers", 100, False, None, None, "int"),
        "--weeks": ("weeks", 18, False, None, None, "int"),
        "--seed": ("seed", 7, False, None, None, "int"),
        "--tier": ("tier", None, False, ("national", "paper", "small"), None, None),
        "--chunked": ("chunked", False, False, None, 0, None),
        "--chunk-weeks": ("chunk_weeks", None, False, None, None, "int"),
        "--out": ("out", None, True, None, None, None),
    },
    "analyze": dict(COMMON),
    "forecast": {
        **COMMON,
        "--target": ("target", "hot", False, ("hot", "become"), None, None),
        "--t-day": ("t_day", 60, False, None, None, "int"),
        "--window": ("window", 7, False, None, None, "int"),
        "--horizons": ("horizons", [1, 5, 7, 14], False, None, "+", "int"),
        "--estimators": ("estimators", 10, False, None, None, "int"),
        "--training-days": ("training_days", 6, False, None, None, "int"),
    },
    "sweep": {
        **COMMON,
        "--target": ("target", "hot", False, ("hot", "become"), None, None),
        "--n-t": ("n_t", 4, False, None, None, "int"),
        "--horizons": ("horizons", [1, 3, 5, 7, 14], False, None, "+", "int"),
        "--windows": ("windows", [7], False, None, "+", "int"),
        "--estimators": ("estimators", 10, False, None, None, "int"),
        "--training-days": ("training_days", 6, False, None, None, "int"),
        "--out": ("out", None, True, None, None, None),
    },
    "serve": {
        **COMMON,
        "--registry": ("registry", None, True, None, None, None),
        "--model": ("model", "RF-F1", False, MODELS, None, None),
        "--train-day": ("train_day", 60, False, None, None, "int"),
        "--window": ("window", 7, False, None, None, "int"),
        "--horizons": ("horizons", [1], False, None, "+", "int"),
        "--estimators": ("estimators", 10, False, None, None, "int"),
        "--training-days": ("training_days", 6, False, None, None, "int"),
        "--top-k": ("top_k", 5, False, None, None, "int"),
        "--alert-threshold": ("alert_threshold", None, False, None, None, "float"),
        "--max-days": ("max_days", None, False, None, None, "int"),
        "--from-stdin": ("from_stdin", False, False, None, 0, None),
        "--checkpoint-dir": ("checkpoint_dir", None, False, None, None, None),
        "--snapshot-every": ("snapshot_every", 168, False, None, None, "int"),
        "--batch-hours": ("batch_hours", 1, False, None, None, "int"),
        "--resume": ("resume", False, False, None, 0, None),
    },
    "lifecycle": {
        **COMMON,
        "--registry": ("registry", None, True, None, None, None),
        "--model": ("model", "RF-F1", False, TRAINABLE, None, None),
        "--train-day": ("train_day", 60, False, None, None, "int"),
        "--window": ("window", 7, False, None, None, "int"),
        "--horizon": ("horizon", 1, False, None, None, "int"),
        "--estimators": ("estimators", 10, False, None, None, "int"),
        "--training-days": ("training_days", 6, False, None, None, "int"),
        "--top-k": ("top_k", 5, False, None, None, "int"),
        "--alert-threshold": ("alert_threshold", None, False, None, None, "float"),
        "--max-days": ("max_days", None, False, None, None, "int"),
        "--retrain-every": ("retrain_every", 0, False, None, None, "int"),
        "--min-retrain-gap": ("min_retrain_gap", 7, False, None, None, "int"),
        "--drift-alpha": ("drift_alpha", 0.01, False, None, None, "float"),
        "--reference-days": ("reference_days", 14, False, None, None, "int"),
        "--current-days": ("current_days", 7, False, None, None, "int"),
        "--promote-min-delta": ("promote_min_delta", 5.0, False, None, None, "float"),
        "--shadow-days": ("shadow_days", 5, False, None, None, "int"),
        "--max-shadow-days": ("max_shadow_days", 14, False, None, None, "int"),
        "--confirm-days": ("confirm_days", 0, False, None, None, "int"),
        "--from-stdin": ("from_stdin", False, False, None, 0, None),
        "--checkpoint-dir": ("checkpoint_dir", None, False, None, None, None),
        "--snapshot-every": ("snapshot_every", 168, False, None, None, "int"),
        "--resume": ("resume", False, False, None, 0, None),
    },
    "fleet": {
        **COMMON,
        "--registry": ("registry", None, True, None, None, None),
        "--model": ("model", "RF-F1", False, MODELS, None, None),
        "--train-day": ("train_day", 60, False, None, None, "int"),
        "--window": ("window", 7, False, None, None, "int"),
        "--horizons": ("horizons", [1], False, None, "+", "int"),
        "--estimators": ("estimators", 10, False, None, None, "int"),
        "--training-days": ("training_days", 6, False, None, None, "int"),
        "--top-k": ("top_k", 5, False, None, None, "int"),
        "--alert-threshold": ("alert_threshold", None, False, None, None, "float"),
        "--max-days": ("max_days", None, False, None, None, "int"),
        "--from-stdin": ("from_stdin", False, False, None, 0, None),
        "--shards": ("shards", None, False, None, None, "int"),
        "--checkpoint-dir": ("checkpoint_dir", None, True, None, None, None),
        "--snapshot-every": ("snapshot_every", 168, False, None, None, "int"),
        "--resume": ("resume", False, False, None, 0, None),
        "--batch-hours": ("batch_hours", 1, False, None, None, "int"),
        "--supervise": ("supervise", False, False, None, 0, None),
        "--max-restarts": ("max_restarts", 3, False, None, None, "int"),
        "--heartbeat-secs": ("heartbeat_secs", 5.0, False, None, None, "float"),
    },
    "gateway": {
        **COMMON,
        "--registry": ("registry", None, True, None, None, None),
        "--model": ("model", "RF-F1", False, MODELS, None, None),
        "--train-day": ("train_day", 60, False, None, None, "int"),
        "--window": ("window", 7, False, None, None, "int"),
        "--horizons": ("horizons", [1], False, None, "+", "int"),
        "--estimators": ("estimators", 10, False, None, None, "int"),
        "--training-days": ("training_days", 6, False, None, None, "int"),
        "--top-k": ("top_k", 5, False, None, None, "int"),
        "--alert-threshold": ("alert_threshold", None, False, None, None, "float"),
        "--host": ("host", "127.0.0.1", False, None, None, None),
        "--port": ("port", 8765, False, None, None, "int"),
        "--queue-capacity": ("queue_capacity", 256, False, None, None, "int"),
        "--sse-buffer": ("sse_buffer", 256, False, None, None, "int"),
        "--checkpoint-dir": ("checkpoint_dir", None, False, None, None, None),
        "--snapshot-every": ("snapshot_every", 168, False, None, None, "int"),
        "--resume": ("resume", False, False, None, 0, None),
        "--shards": ("shards", None, False, None, None, "int"),
        "--supervise": ("supervise", False, False, None, 0, None),
        "--max-restarts": ("max_restarts", 3, False, None, None, "int"),
        "--heartbeat-secs": ("heartbeat_secs", 5.0, False, None, None, "float"),
        "--lifecycle": ("lifecycle", False, False, None, 0, None),
    },
}


def _surface(subparser: argparse.ArgumentParser) -> dict:
    return {
        action.option_strings[0]: (
            action.dest,
            action.default,
            action.required,
            None if action.choices is None else tuple(action.choices),
            action.nargs,
            None if action.type is None else action.type.__name__,
        )
        for action in subparser._actions
        if not isinstance(action, argparse._HelpAction)
    }


def _subparsers() -> dict:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def test_subcommand_set_is_pinned():
    assert set(_subparsers()) == set(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_option_surface_is_pinned(command):
    assert _surface(_subparsers()[command]) == SURFACE[command]


@pytest.mark.parametrize("command", ["serve", "lifecycle"])
def test_retired_gbt_model_is_an_invalid_choice(command, tmp_path, capsys):
    """The parser refuses ``--model GBT`` before any data is read."""
    argv = [command, "--data", str(tmp_path / "missing.npz"), "--registry",
            str(tmp_path / "models"), "--model", "GBT"]
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 2
    assert "invalid choice: 'GBT'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
