"""The benchmark's traced run wraps program functions by name; each must
still be where it looks."""

from pathlib import Path


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.WRAPPED if attr not in vars(owner)]
    assert not missing
