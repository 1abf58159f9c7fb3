"""Checks over the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "meshslam"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a check written as one is not a
    # check; the library raises typed errors instead.
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _stored_attribute(node):
    """The name of the attribute a node writes into, or None."""
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
        node = node.value
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in {"setdefault", "update", "pop", "clear"}):
        node = node.func.value
    else:
        return None
    return node.attr if isinstance(node, ast.Attribute) else None


def test_only_the_latest_writer_helpers_store_applied_keys():
    # A pose or point write that bypasses _update_pose/_update_point skips
    # the newest-key check, and then delivery order changes the state.
    tree = ast.parse((SRC / "state.py").read_text())
    writers = {func.name
               for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if _stored_attribute(node) in {"applied_kf_seq", "applied_mp_seq"}}
    assert writers == {"_update_pose", "_update_point"}


def _functions(tree):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_only_the_map_writers_change_map_structure():
    # The tracker keeps its window until the map's structure version moves,
    # so a keyframe or point added or removed, or a keyframe's columns
    # replaced, anywhere but in the Map methods that bump it leaves a stale
    # window behind.
    structure = {"keyframes", "map_points", "mp_ids", "landmark_ids",
                 "ranges", "bearings"}
    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writers |= {f"{path.relative_to(SRC)}:{name}"
                    for name, func in _functions(tree)
                    for node in ast.walk(func)
                    if _stored_attribute(node) in structure}
    assert writers == {f"core/types.py:Map.{name}" for name in (
        "add_keyframe", "add_point", "remove_point", "set_observations")}


def test_only_the_map_writes_observers():
    # Observers are the inverse of the keyframe columns, kept so by the Map
    # writers that change the columns: nothing else assigns them, calls a
    # method on them or hands a new point any.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC) == Path("core/types.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            written = _stored_attribute(node) == "observers"
            if isinstance(node, ast.Call):
                func = node.func
                written |= (isinstance(func, ast.Attribute)
                            and isinstance(func.value, ast.Attribute)
                            and func.value.attr == "observers")
                written |= (isinstance(func, ast.Name) and func.id == "MapPoint"
                            and (len(node.args) > 4
                                 or any(k.arg == "observers"
                                        for k in node.keywords)))
            if written:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_library_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(SRC)}: {name}"
             for path in paths
             for name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] == "scipy"]
    assert found == []
