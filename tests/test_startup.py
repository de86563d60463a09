"""What a CLI process loads, and the package's lazily resolved names."""

import importlib
import importlib.util
import inspect
import json
import typing
from pathlib import Path

import pytest

import wmpower
from make_golden import GOLDEN
from package import run_python
from wmpower import cli

# Loaded by merge and axioms only; argparse, gettext and locale only for help
# and usage errors; dataclasses and inspect by nothing.
NOT_LOADED = (
    "argparse",
    "dataclasses",
    "gettext",
    "inspect",
    "locale",
    "random",
    "wmpower.axioms",
    "wmpower.merging",
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
    result = run_python("-S", "-c", SCRIPT, str(game), *NOT_LOADED, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0] []"


# Runs the CLI the way `python -m wmpower.cli` does, as __main__, and prints
# its exit code and the wmpower modules loaded, and argparse and random if
# they were.
RUN_AS_MAIN = """
import io, runpy, sys
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    runpy.run_module("wmpower.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
sys.stdout = stdout
shown = ("wmpower", "argparse", "random")
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] in shown))
"""

BASE = ("errors", "games")
RENDER = ("indices",)
SUITE = ("axioms", "indices", "merging")


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["power", "--game", "{game}"], 0, RENDER),
        (["power", "--game", "{refused}"], 2, ()),
        (["mwc", "--game", "{game}"], 0, ()),
        (["mwc", "--game", "{refused}"], 2, ()),
        (["merge", "{a}", "{b}"], 0, ("merging",)),
        (["demo", "ecuador"], 0, RENDER),
        (["axioms", "--index", "dp", "--suite", "thm1"], 0, SUITE),
        (["axioms", "--index", "ss", "--suite", "classic", "--samples", "2"], 0, SUITE),
        (["power", "--help"], 0, ()),
    ],
    ids=[
        "power",
        "power-refused",
        "mwc",
        "mwc-refused",
        "merge",
        "demo",
        "axioms",
        "axioms-samples",
        "power-help",
    ],
)
def test_each_command_loads_exactly_its_modules(tmp_path, argv, code, modules):
    paths = {}
    for name, obj in (
        ("game", {"quota": "51", "weights": ["50", "46", "4", "1"]}),
        ("refused", {"quota": "51", "weights": ["50", "-46"]}),
        ("a", {"quota": "4", "weights": ["3", "2", "0"]}),
        ("b", {"quota": "4", "weights": ["3", "0", "1"]}),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    result = run_python(
        "-S", "-c", RUN_AS_MAIN, *(arg.format(**paths) for arg in argv), timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert loaded[0] == str(code)
    # Never wmpower.cli: importing it under `python -m` would run cli.py twice.
    expected = {"wmpower", *(f"wmpower.{m}" for m in (*BASE, *modules))}
    if "--help" in argv:
        expected.add("argparse")  # only help and usage errors reach argparse
    if "--samples" in argv:
        expected.add("random")
    assert loaded[1:] == sorted(expected)


def test_every_exported_name_resolves_to_its_home_module():
    assert set(wmpower.__all__) == {*wmpower._HOMES, "errors"}
    for name in wmpower.__all__:
        home = importlib.import_module(f"wmpower.{wmpower._HOMES.get(name, name)}")
        expected = home if name == "errors" else getattr(home, name)
        assert getattr(wmpower, name) is expected, name
    assert set(wmpower.__all__) <= set(dir(wmpower))


def public_functions():
    """Each public callable, and each function that a public class defines or inherits."""
    for name in wmpower.__all__:
        obj = getattr(wmpower, name)
        if inspect.isclass(obj):
            for cls in obj.__mro__:
                for attr, member in vars(cls).items():
                    # The function of a property, cached_property, staticmethod or classmethod.
                    for wrapped in ("fget", "func", "__func__"):
                        member = getattr(member, wrapped, member)
                    if inspect.isfunction(member):
                        yield f"{name}.{attr}", member
        if callable(obj):
            yield name, obj


def test_type_hints_of_every_public_function_resolve():
    # The samplers' hints name the C base class of random.Random, so they
    # resolve although axioms never imports random.
    unresolved = []
    for name, obj in public_functions():
        try:
            typing.get_type_hints(obj)
        except NameError as error:
            unresolved.append(f"{name}: {error}")
    assert unresolved == []


def test_children_import_the_package_under_test():
    # A child that a test starts runs the code that the tests import, be it
    # this checkout's src/, a mutated copy or an installed wheel.
    result = run_python("-c", "import wmpower; print(wmpower.__file__)", timeout=60)
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(wmpower.__file__).resolve()


# The benchmark's traced driver: it replaces cli attributes by spanned ones.
TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def traced_cli_module():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    return traced_cli


def traced_cli_names() -> set[str]:
    """Every cli attribute that bench/traced_cli.py reads and replaces."""
    names = traced_cli_module().SPANS
    return {*names, "INDEX_FUNCTIONS", "check_wm_mergeability", "render_table"}


def test_lazy_cli_names_are_attributes_and_replacements_are_called(
    tmp_path, monkeypatch, capsys
):
    for name in traced_cli_names():
        home = importlib.import_module(f"wmpower.{wmpower._HOMES[name]}")
        assert getattr(cli, name) is getattr(home, name), name
    calls = []

    def replace(name):
        home = getattr(cli, name)

        def replacement(*args, **kwargs):
            calls.append(name)
            return home(*args, **kwargs)

        monkeypatch.setattr(cli, name, replacement)

    for name in ("check_wm_mergeability", "check_sym", "render_table"):
        replace(name)
    paths = []
    for name, weights in (("a.json", ["3", "2", "0"]), ("b.json", ["3", "0", "1"])):
        path = tmp_path / name
        path.write_text(json.dumps({"quota": "4", "weights": weights}))
        paths.append(str(path))
    assert cli.main(["merge", *paths]) == 0
    assert calls == ["check_wm_mergeability"]
    assert "union: [4; 3, 2, 1]" in capsys.readouterr().out
    assert cli.main(["axioms", "--index", "ss", "--suite", "classic"]) == 0
    assert calls[1:] == ["check_sym"] * 11
    assert cli.main(["power", "--game", paths[0]]) == 0
    assert calls[12:] == ["render_table"]
    assert capsys.readouterr().out.startswith("index: ss  suite: classic  games: 11\n")


def test_every_span_of_the_traced_driver_fires(tmp_path):
    # Runs bench/traced_cli.py as the benchmark does, one child per argv, and
    # collects the names of the spans it wrote.
    paths = {}
    for name, obj in (
        ("game", {"quota": "51", "weights": ["50", "46", "4", "1"]}),
        ("a", {"quota": "4", "weights": ["3", "2", "0"]}),
        ("b", {"quota": "4", "weights": ["3", "0", "1"]}),
        ("c", {"quota": "4", "weights": ["0", "2", "3"]}),
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    runs = [
        # --index=... is not the common form, so argparse parses this argv.
        ["power", "--game", paths["game"], "--index=ss,bz,dp,pg,cm,hcm"],
        ["demo", "ecuador"],
        ["merge", paths["a"], paths["b"]],  # mergeable
        ["merge", paths["a"], paths["c"]],  # not mergeable
        ["axioms", "--index", "ss", "--suite", "classic"],
        ["axioms", "--index", "dp", "--suite", "thm1", "--samples", "2"],
        ["axioms", "--index", "hcm", "--suite", "thm2"],
    ]
    fired = set()
    for k, argv in enumerate(runs):
        spans = tmp_path / f"spans{k}.json"
        result = run_python(str(TRACED_CLI), str(spans), *argv, timeout=60)
        assert result.returncode == 0, (argv, result.stderr)
        fired |= {span["name"] for span in json.loads(spans.read_text())}
    installed = {
        *traced_cli_module().SPANS.values(),
        *(f"indices.{key}" for key in wmpower.INDEX_FUNCTIONS),
        "cli.parse_args",
        "games.mwc",
        "merging.check_mergeable",
        "merging.check_nonmergeable",
    }
    # No handler calls wm_union, so its span never fires: the driver's list
    # is stale there.
    assert installed - fired == {"merging.wm_union"}


# Ends the process through cli.run(), the console script's entry point, with
# an atexit probe that writes the count of frozen objects to stderr last.
RUN_WITH_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count(), file=sys.stderr))
from wmpower import cli
cli.run()
"""

# Runs cli.main in process and prints its exit code and the frozen count.
MAIN_IN_PROCESS = """
import contextlib, gc, io, sys
from wmpower import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, gc.get_freeze_count())
"""


def run_golden_argv(script, name):
    """The golden case's record and ``python -S -c script`` run on its argv."""
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    result = run_python("-S", "-c", script, *expected["argv"], cwd=GOLDEN, timeout=60)
    return expected, result


@pytest.mark.parametrize("name", ["power_reference_game", "power_refused_negative_weight"])
def test_run_freezes_the_heap_before_the_process_exits(name):
    # run() freezes after main() returns: stdout, stderr and the exit code are
    # the recorded ones, and the probe sees the frozen objects.
    expected, result = run_golden_argv(RUN_WITH_PROBE, name)
    assert (result.returncode, result.stdout) == (expected["exit"], expected["stdout"])
    stderr, _, probe = result.stderr.rpartition("frozen: ")
    assert stderr == expected["stderr"]
    assert int(probe) > 0


def test_axioms_runs_under_the_stdlib_profiler(tmp_path):
    # cProfile runs the module with runpy.run_module and no alter_sys, so
    # sys.modules["__main__"] is the profiler's module. cProfile swallows
    # SystemExit, so the exit code says nothing.
    expected = json.loads((GOLDEN / "dp_thm1.json").read_text())
    result = run_python(
        "-m", "cProfile", "-o", str(tmp_path / "profile"), "-m", "wmpower.cli",
        *expected["argv"], cwd=GOLDEN, timeout=60,
    )
    assert (result.stdout, result.stderr) == (expected["stdout"], "")


def test_main_in_process_freezes_nothing():
    _, result = run_golden_argv(MAIN_IN_PROCESS, "power_reference_game")
    assert result.stdout.split() == ["0", "0"], result.stderr
