"""The benchmark's tracer (svbench/tracer.py) wraps library functions by
name, and a name it no longer finds reads 0 in every run.  This pins each
of its names to the library."""

import importlib.util
import pathlib
import sys

import svlie.cli  # noqa: F401  loads every module the tracer looks in

SVBENCH = pathlib.Path(__file__).resolve().parents[1] / "svbench"


def _snapshot() -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in SVBENCH.rglob("*")}


def test_tracer_finds_every_name_it_wraps(capsys, monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("svbench_tracer", SVBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {(fn.__module__, fn.__qualname__) for _, _, fn, _ in tracer.Tracer()._plan()}
    names = [(mod, name) for mod, name, _ in tracer.SPANNED] + list(tracer.COUNTED)
    assert {(f"svlie.{mod}", name) for mod, name in names} <= wrapped
    assert "not found" not in capsys.readouterr().err
    assert _snapshot() == before
