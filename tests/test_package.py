import ast
from pathlib import Path

import pytest

import rscycle

REMOVED = ["Region", "region_of", "signaling_fraction", "GapReport", "gap_report",
           "find_fixed_configuration"]


def test_public_surface_is_all():
    # every export resolves, a star import binds exactly __all__, and no deleted name returns
    assert len(set(rscycle.__all__)) == len(rscycle.__all__)
    for name in rscycle.__all__:
        assert getattr(rscycle, name) is not None
    namespace = {}
    exec("from rscycle import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rscycle.__all__)
    for name in REMOVED:
        with pytest.raises(ImportError):
            exec(f"from rscycle import {name}", {})


@pytest.mark.parametrize("path", sorted(p.name for p in Path(rscycle.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    # the project runs no linter, so an import a refactor leaves behind is caught here
    tree = ast.parse((Path(rscycle.__file__).parent / path).read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
