"""The package surface: lazy re-exports, the program's entry point and
its OpenBLAS thread default."""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bentkit
from bentkit import BooleanFunction, PermutationMap, mm_function, serialize_truth_table

ROOT = Path(__file__).resolve().parent.parent

# every name the package exported when its __init__ imported eagerly, but
# decode_point and is_semi_bent, which nothing in the package called; and
# certify, exported since
EXPORTED = """
AnalysisProfile BoundsReport ResiliencyReport analyze bounds_report certify
complementary_plateaued dual is_bent nonlinearity
plateaued_order resiliency_report BentTriple LinearSubspace PermutationMap
ResilientSumCertificate bent_triple_from_derivative class_d_bent
class_d_restricted_sum direct_sum generalized_indirect_sum indirect_sum
mm_function mm_restricted_sum psap_bent psap_restricted_sum
resilient_indirect_sum resilient_indirect_sum_from_pair
restricted_indirect_sum restricted_indirect_sum_dual rothaus
rothaus_restricted_sum walsh_case AnfPolynomial BooleanFunction
WalshSpectrum degree degree_of_variable encode_point mobius
mobius_inv parse_truth_table serialize_truth_table walsh_transform
CapError PremiseError TruthTableFormatError GaloisField OracleReport
correlation_immune_by_definition exhaustive_nonlinearity naive_walsh
resiliency_by_definition XorShift64Star __version__
""".split()


def python(code, **env_changes):
    """Run `code` in a fresh interpreter with os.environ changed as given
    (None removes a variable); its stripped stdout."""
    env = dict(os.environ)
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_numpy():
    assert python("import sys, bentkit; print('numpy' in sys.modules)") == "False"


def test_every_mutant_names_one_place_and_a_test():
    from mutants import MUTANTS

    for path, old, new, test in MUTANTS:
        assert (ROOT / path).read_text().count(old) == 1, (path, old)
        assert new != old
        test_file, name = test.split("::")
        assert f"\ndef {name}(" in (ROOT / test_file).read_text(), test


def test_mutation_record_names_every_mutant_killed():
    # `python tests/mutants.py` rewrites the record; a mutant added,
    # changed or dropped without a new run shows here
    from mutants import MUTANTS

    records = json.loads((ROOT / "MUTANTS.json").read_text())
    assert [(r["file"], r["old"], r["new"], r["test"]) for r in records] == MUTANTS
    assert {r["verdict"] for r in records} == {"killed"}


def test_every_old_export_resolves():
    for name in EXPORTED:
        value = getattr(bentkit, name)
        if name != "__version__":
            assert value is getattr(sys.modules[value.__module__], name)
        assert name in dir(bentkit)
    assert set(bentkit.__all__) == set(EXPORTED) - {"__version__"}
    with pytest.raises(AttributeError):
        bentkit.no_such_name  # noqa: B018


def test_no_module_checks_with_assert():
    # python -O strips assert statements, and every check must survive it
    for path in sorted((ROOT / "src" / "bentkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_only_core_integer_calls_operator_index():
    # core._integer is the one integer reader; any other use of
    # operator.index would be a second reader with its own messages
    found, uses = False, []
    for path in sorted((ROOT / "src" / "bentkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            inside = path.name == "core.py" and getattr(top, "name", None) == "_integer"
            for node in ast.walk(top):
                if (isinstance(node, ast.ImportFrom) and node.module == "operator"
                        and any(alias.name == "index" for alias in node.names)):
                    uses.append(f"{path.name}:{node.lineno}")
                elif (isinstance(node, ast.Attribute) and node.attr == "index"
                      and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                    found |= inside
                    if not inside:
                        uses.append(f"{path.name}:{node.lineno}")
    assert found, "core._integer no longer reads with operator.index"
    assert not uses, f"operator.index outside core._integer at {uses}"


def test_no_module_reads_a_spectrum_as_int64():
    # WalshSpectrum.values widens the int32 spectrum into a new int64
    # array, 512 MiB at the cap, so the package reads the int32 array;
    # BooleanFunction.values() and dict.values() are calls and pass
    core = ast.parse((ROOT / "src" / "bentkit" / "core.py").read_text())
    spectrum = next(node for node in core.body if getattr(node, "name", None) == "WalshSpectrum")
    assert any(isinstance(node, ast.FunctionDef) and node.name == "values"
               and [d.id for d in node.decorator_list] == ["property"]
               for node in spectrum.body), "WalshSpectrum.values is no longer a property"
    reads = []
    for path in sorted((ROOT / "src" / "bentkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "values"
                  and id(node) not in called]
    assert not reads, f"a spectrum's .values read at {reads}"


def test_submodules_resolve_as_attributes():
    assert python("import bentkit; print(bentkit.analysis.__name__)") == "bentkit.analysis"


# The program prints its thread count and OPENBLAS_NUM_THREADS after a run.
PROGRAM = """
import os, sys
from bentkit.__main__ import main
sys.argv = ["bentkit", "wht", {path!r}]
with open(os.devnull, "w") as sys.stdout:
    code = main()
sys.stdout = sys.__stdout__
print(code, len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_program_runs_on_one_thread_unless_told_otherwise(tmp_path):
    path = tmp_path / "f.tt"
    path.write_text(serialize_truth_table(
        mm_function(PermutationMap.identity(3), BooleanFunction.zero(3))
    ))
    code = PROGRAM.format(path=str(path))
    assert python(code, OPENBLAS_NUM_THREADS=None) == "0 1 1"
    status, _, setting = python(code, OPENBLAS_NUM_THREADS="2").split()
    assert (status, setting) == ("0", "2")


def test_library_import_leaves_the_environment_alone():
    code = "import os, bentkit.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert python(code, OPENBLAS_NUM_THREADS=None) == "None"


def test_project_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for target in project["scripts"].values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_package_version_is_the_project_version():
    # one version string, so a record that names bentkit.__version__
    # names the release pyproject.toml builds
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert bentkit.__version__ == project["version"]


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    python(tour)


def test_readme_build_table_matches_the_build_registry():
    # README's `build` table against cli._BUILDS, whole rows in order: every
    # flag, key and option, with bold in README and "!" in _BUILDS marking
    # a required entry
    from bentkit.cli import _BUILDS

    readme = (ROOT / "README.md").read_text()
    header = "| construction | truth-table flags | `--param-file` keys | other options |"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]

    def column(cell, dashes):
        words = []
        for item in filter(None, cell.split(", ")):
            entry = re.fullmatch(rf"(\*\*)?`{dashes}([\w-]+)`(\*\*)?", item)
            assert entry and entry[1] == entry[3], (cell, item)
            words.append(entry[2] + "!" * bool(entry[1]))
        return " ".join(words)

    table = {}
    for row in rows:
        name, flags, keys, options = (cell.strip() for cell in row.strip("|").split("|"))
        table[name.strip("`")] = (column(flags, "--"), column(keys, ""), column(options, "--"))
    assert len(table) == 14
    assert table == {name: entry[1:] for name, entry in _BUILDS.items()}


def test_readme_states_the_oracle_cap():
    # every cap README states in the module list's `bentkit.oracle` entry
    # and in the `bentkit.oracle` paragraph, such as "size cap, n = 14" or
    # "capped at n = 14", against oracle.CAP; "caps 14/12/10" reads 14, 12, 10
    from bentkit.oracle import CAP

    readme = (ROOT / "README.md").read_text()
    entry = readme.split("`bentkit.oracle`\n(", 1)[1].split(")", 1)[0]
    paragraph = readme.split("\n`bentkit.oracle` reads", 1)[1].split("\n\n", 1)[0]
    for text in (entry, paragraph):
        caps = re.findall(r"\bcap(?:s|ped at)?,? (?:n = )?(\d+(?:/\d+)*)", text)
        assert caps, text
        assert {int(c) for cap in caps for c in cap.split("/")} == {CAP}, (caps, text)


def test_every_build_option_is_read_by_some_construction():
    from bentkit.cli import _BUILDS, _parser

    (commands,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {
        option.removeprefix("--") for action in commands.choices["build"]._actions
        for option in action.option_strings if option not in ("-h", "--help", "-o", "--output")
    }
    read = {word.rstrip("!") for _, flags, _, options in _BUILDS.values()
            for word in f"{flags} {options}".split()}
    assert len(registered) == 19  # 20 with -o
    assert registered == read
