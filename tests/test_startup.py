"""What a CLI process loads, and the package's lazily resolved names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import wmpower
from wmpower import cli

SRC = Path(__file__).resolve().parent.parent / "src"

# Loaded by merge and axioms only; dataclasses and inspect by nothing.
NOT_LOADED = (
    "dataclasses",
    "inspect",
    "random",
    "wmpower.axioms",
    "wmpower.merging",
    "wmpower.sampling",
)

SCRIPT = """
import io, sys
from wmpower import cli
game = sys.argv[1]
stdout, sys.stdout = sys.stdout, io.StringIO()
codes = [
    cli.main(["power", "--game", game]),
    cli.main(["mwc", "--game", game]),
    cli.main(["demo", "ecuador"]),
]
sys.stdout = stdout
print(codes, sorted(m for m in sys.argv[2:] if m in sys.modules))
"""


def test_power_mwc_and_demo_load_only_what_they_run(tmp_path):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"quota": "51", "weights": ["50", "46", "4", "1"]}))
    # -S: no site hook preloads modules, so every module seen was loaded here.
    result = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, str(game), *NOT_LOADED],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0] []"


def test_every_exported_name_resolves_to_its_home_module():
    assert set(wmpower.__all__) == {*wmpower._HOMES, "errors"}
    for name in wmpower.__all__:
        home = importlib.import_module(f"wmpower.{wmpower._HOMES.get(name, name)}")
        expected = home if name == "errors" else getattr(home, name)
        assert getattr(wmpower, name) is expected, name
    assert set(wmpower.__all__) <= set(dir(wmpower))


def test_lazy_cli_names_are_attributes_and_replacements_are_called(
    tmp_path, monkeypatch, capsys
):
    for name in cli._LAZY:
        home = importlib.import_module(f"wmpower.{wmpower._HOMES[name]}")
        assert getattr(cli, name) is getattr(home, name)
    home_check = importlib.import_module("wmpower.merging").check_wm_mergeability
    calls = []

    def traced(games):
        calls.append(len(games))
        return home_check(games)

    monkeypatch.setattr(cli, "check_wm_mergeability", traced)
    paths = []
    for name, weights in (("a.json", ["3", "2", "0"]), ("b.json", ["3", "0", "1"])):
        path = tmp_path / name
        path.write_text(json.dumps({"quota": "4", "weights": weights}))
        paths.append(str(path))
    assert cli.main(["merge", *paths]) == 0
    assert calls == [2]
    assert "union: [4; 3, 2, 1]" in capsys.readouterr().out
