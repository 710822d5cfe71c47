"""The import graph: what each entry point loads, and the lazy exports.

Package ``__init__`` modules resolve their exports on first use
(:mod:`repro._lazy`), and the CLI imports per subcommand.  These tests
pin the consequence in fresh interpreters — the simulation hot path and
the bare CLI never load the reporting stack — and the contract every
lazy package keeps with its ``__all__``.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Loaded by no fleet round and by no bare CLI invocation.
IMPORT_BUDGET = (
    "repro.obs.report", "repro.obs.svg", "repro.obs.ledger",
    "repro.obs.drift", "repro.obs.bench", "repro.obs.live",
    "repro.obs.profile",
    "repro.analysis.report", "repro.experiments.compare",
    "xml.sax", "urllib.request", "http.client", "email.parser",
)

LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.apps", "repro.core", "repro.dash",
    "repro.energy", "repro.estimators", "repro.experiments", "repro.mptcp",
    "repro.net", "repro.obs", "repro.workloads",
)


def loaded_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    # No coverage measurement in the child: its own imports would count.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("COV_CORE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"],
        env=env, check=True, capture_output=True, text=True).stdout
    return set(out.split())


class TestImportBudget:
    def test_fleet_path_loads_no_reporting_stack(self):
        loaded = loaded_after(
            "import repro.experiments.fleet, repro.experiments.sweep, "
            "repro.obs.recorder")
        assert "repro.experiments.fleet" in loaded
        assert sorted(loaded & set(IMPORT_BUDGET)) == []

    def test_cli_parser_loads_no_subsystem(self):
        loaded = loaded_after(
            "import repro.cli\nrepro.cli.build_parser()")
        assert "repro.cli" in loaded
        assert sorted(loaded & set(IMPORT_BUDGET)) == []

    def test_packages_load_no_submodules(self):
        """Importing every lazy package loads the packages and nothing
        else of the program."""
        loaded = loaded_after("import " + ", ".join(LAZY_PACKAGES))
        ours = {name for name in loaded
                if name == "repro" or name.startswith("repro.")}
        assert ours == set(LAZY_PACKAGES) | {"repro._lazy"}


def type_checking_imports(package: str) -> dict:
    """``{name: relative module}`` from the package's ``if
    TYPE_CHECKING:`` block."""
    module = importlib.import_module(package)
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom) and stmt.level == 1
                for alias in stmt.names:
                    assert alias.asname is None
                    found[alias.name] = "." + stmt.module
    return found


def lazy_table(package: str) -> dict:
    """``{name: relative module}`` from the package's ``_EXPORTS``."""
    exports = importlib.import_module(package)._EXPORTS
    table = {}
    for module, names in exports.items():
        for name in names:
            assert name not in table, f"{name} exported twice"
            table[name] = module
    return table


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_all_matches_table_and_type_checking_block(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))
        table = lazy_table(package)
        assert set(table) == set(module.__all__)
        assert type_checking_imports(package) == table

    def test_names_resolve_to_their_defining_objects(self, package):
        module = importlib.import_module(package)
        for name, where in lazy_table(package).items():
            home = importlib.import_module(where, package)
            assert getattr(module, name) is getattr(home, name), name
            # Resolved once, then a plain global.
            assert vars(module)[name] is getattr(home, name)

    def test_dir_lists_every_export(self, package):
        listing = dir(importlib.import_module(package))
        assert listing == sorted(listing)
        assert set(lazy_table(package)) <= set(listing)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError) as excinfo:
            module.no_such_export  # noqa: B018
        assert str(excinfo.value) == (
            f"module {package!r} has no attribute 'no_such_export'")
        assert not hasattr(module, "no_such_export")

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)
