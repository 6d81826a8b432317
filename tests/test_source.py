"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nullcone_lab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statement(path):
    """python -O strips assert statements, so a check written as one would
    vanish there; checks raise AssertionError explicitly instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def _unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines of every functools cache in the tree without an integer
    maxsize: a bare `cache`, or an `lru_cache` not called with one."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.attr if node.value.id in modules else None
        else:
            name = imported.get(node.id) if isinstance(node, ast.Name) else None
        if name not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        sizes = ([kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
                 if name == "lru_cache" and call is not None else [])
        if not (sizes and isinstance(sizes[0], ast.Constant)
                and type(sizes[0].value) is int):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_lru_cache_is_bounded(path):
    """Module-level caches live as long as the process, so each one is an
    lru_cache with an integer maxsize."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _unbounded_caches(tree)
    assert not lines, f"{path.name}: caches without an integer maxsize at lines {lines}"


@pytest.mark.parametrize("source, bounded", [
    ("from functools import lru_cache\n@lru_cache(maxsize=256)\ndef f(): pass", True),
    ("import functools\n@functools.lru_cache(16)\ndef f(): pass", True),
    ("import functools\n@functools.cache\ndef f(): pass", False),
    ("from functools import cache\n@cache\ndef f(): pass", False),
    ("from functools import lru_cache\n@lru_cache\ndef f(): pass", False),
    ("import functools as ft\n@ft.lru_cache(maxsize=None)\ndef f(): pass", False),
    ("import functools\ng = functools.lru_cache()(len)", False),
])
def test_the_cache_check_tells_bounded_from_unbounded(source, bounded):
    assert (not _unbounded_caches(ast.parse(source))) == bounded
