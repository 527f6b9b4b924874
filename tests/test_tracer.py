"""The benchmark's tracer (svbench/tracer.py) wraps library functions by
name, and a name it no longer finds reads 0 in every run.  This pins each
of its names to the library."""

import svlie.cli  # noqa: F401  loads every module the tracer looks in

from gen import SVBENCH, load_svbench


def _snapshot() -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in SVBENCH.rglob("*")}


def test_tracer_finds_every_name_it_wraps(capsys):
    before = _snapshot()
    tracer = load_svbench("tracer")
    wrapped = {(fn.__module__, fn.__qualname__) for _, _, fn, _ in tracer.Tracer()._plan()}
    names = [(mod, name) for mod, name, _ in tracer.SPANNED] + list(tracer.COUNTED)
    assert {(f"svlie.{mod}", name) for mod, name in names} <= wrapped
    assert "not found" not in capsys.readouterr().err
    assert _snapshot() == before
