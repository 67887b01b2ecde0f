"""The two simulators are independent oracles: neither imports the other.

Three-way verification (model vs. event engine vs. RTL backend) is only
meaningful while the two simulators share no evaluation code. This test
walks the imports of both sides with :mod:`ast`, so a later shared helper
cannot quietly merge them. The shared surfaces that carry no evaluation
logic — the result shape (:mod:`repro.simulator.result`) and the trace
recorder (:mod:`repro.simulator.trace`) — stay allowed.
"""

import ast
import pathlib

import pytest

import repro.simulator.rtl as rtl_package

RTL_DIR = pathlib.Path(rtl_package.__file__).parent
SIM_DIR = RTL_DIR.parent

EVENT_FILES = [SIM_DIR / "engine.py", SIM_DIR / "streams.py"]
RTL_FILES = sorted(RTL_DIR.glob("*.py"))

EVENT_MODULES = ("repro.simulator.engine", "repro.simulator.streams")
RTL_MODULES = ("repro.simulator.rtl",)
#: The package itself re-exports both simulators, so neither side may
#: import from it directly.
PACKAGE = "repro.simulator"


def _module_of(path: pathlib.Path) -> str:
    parts = path.relative_to(SIM_DIR.parent.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _package_of(path: pathlib.Path) -> str:
    module = _module_of(path)
    return module if path.name == "__init__.py" else module.rpartition(".")[0]


def imported_modules(source: str, package: str) -> set:
    """Every module ``source`` (living in ``package``) imports, relative
    imports resolved; ``from X import y`` counts as importing ``X`` and
    ``X.y``, since ``y`` may be a submodule."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _violations(path: pathlib.Path, forbidden) -> list:
    return sorted(
        name for name in imported_modules(path.read_text(), _package_of(path))
        if name == PACKAGE
        or any(name == mod or name.startswith(mod + ".") for mod in forbidden)
    )


def test_both_sides_are_found():
    assert all(path.exists() for path in EVENT_FILES)
    assert {path.name for path in RTL_FILES} >= {
        "__init__.py", "components.py", "program.py", "sim.py",
    }


@pytest.mark.parametrize("path", RTL_FILES, ids=lambda p: f"rtl/{p.name}")
def test_rtl_backend_imports_nothing_of_the_event_engine(path):
    assert _violations(path, EVENT_MODULES) == []


@pytest.mark.parametrize("path", EVENT_FILES, ids=lambda p: p.name)
def test_event_engine_imports_nothing_of_the_rtl_backend(path):
    assert _violations(path, RTL_MODULES) == []


def test_the_walker_sees_a_crossing_import():
    """The check itself: planted cross imports are reported, relative or not."""
    found = imported_modules(
        "from repro.simulator.streams import build_streams\n"
        "from .. import engine\n"
        "import repro.simulator.rtl.sim\n",
        "repro.simulator.rtl",
    )
    assert {
        "repro.simulator.streams", "repro.simulator.engine", "repro.simulator.rtl.sim",
    } <= found
