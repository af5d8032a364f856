"""CLI coverage for the extension subcommands and schemes."""

import json

import pytest

from repro.cli import main
from repro.obs import from_json


def test_cli_spy(capsys):
    assert main(["spy", "--matrix", "trdheim", "--k", "3", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "|" in out and "-" in out


def test_cli_spy_refuses_large():
    with pytest.raises(SystemExit, match="max-dim"):
        main(["spy", "--matrix", "c-big", "--scale", "tiny", "--max-dim", "10"])


@pytest.mark.parametrize("scheme", ["2d-orb", "s2d-bal"])
def test_cli_extension_schemes(scheme, capsys):
    assert main(
        ["partition", "--matrix", "trdheim", "--scheme", scheme, "--k", "4",
         "--scale", "tiny"]
    ) == 0
    assert "speedup=" in capsys.readouterr().out


def test_cli_simulate_single_scheme(capsys):
    assert main(
        ["simulate", "--matrix", "trdheim", "--scheme", "s2d", "--k", "4",
         "--scale", "tiny"]
    ) == 0
    out = capsys.readouterr().out
    assert "scheme=s2D" in out and "speedup=" in out


def test_cli_simulate_profile(capsys):
    assert main(
        ["simulate", "--matrix", "trdheim", "--scheme", "1d", "--k", "4",
         "--scale", "tiny", "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "total" in out  # wall-clock stage table
    assert "bandwidth=" in out and "latency=" in out  # model breakdown


def test_cli_partition_profile(tmp_path, capsys):
    args = ["partition", "--matrix", "trdheim", "--scheme", "1d", "--k", "4",
            "--scale", "tiny", "--profile"]
    assert main(args) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0] for line in out.splitlines() if line.strip()}
    assert {"stage", "coarsen", "initial", "refine", "kway", "total"} <= rows
    assert "bisections=3" in out and "speedup=" in out
    # --profile tabulates the same trace --trace exports: profiling
    # must not hide the partitioner spans from the exported file.
    path = tmp_path / "trace.json"
    assert main(args + ["--trace", str(path), "--trace-format", "json"]) == 0
    names = {sp.name for sp in from_json(json.loads(path.read_text())).walk()}
    assert {"engine.plan", "partition.refine", "partition.kway"} <= names


def test_cli_simulate_all_methods(capsys):
    assert main(
        ["simulate", "--matrix", "trdheim", "--k", "4", "--scale", "tiny", "--all"]
    ) == 0
    out = capsys.readouterr().out
    # one summary line per registered method
    from repro.engine import available_methods

    assert out.count("speedup=") == len(available_methods())


def test_cli_simulate_requires_one_source():
    with pytest.raises(SystemExit, match="exactly one"):
        main(["simulate"])


def test_cli_simulate_scheme_conflicts_with_all():
    with pytest.raises(SystemExit, match="conflicts"):
        main(["simulate", "--matrix", "trdheim", "--scheme", "2d", "--all",
              "--scale", "tiny"])


def test_cli_table_with_default_scale_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert main(["table", "--id", "4"]) == 0
    assert "scale=tiny" in capsys.readouterr().out
