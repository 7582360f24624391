"""The span tracer of the benchmark (bench/tracer.py) wraps qbd functions at
bindings it names by string. A rename in qbd must fail here rather than
break a traced benchmark run. Nothing under bench/ is edited."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def _resolve(tracer, owner, attr):
    try:
        return tracer._get(owner, attr)
    except (AttributeError, KeyError):
        return None


def test_install_wraps_every_binding_and_remove_restores_it(tracer):
    bindings = [(span, owner, attr) for span, pairs, _ in tracer._targets() for owner, attr in pairs]
    before = [_resolve(tracer, owner, attr) for _, owner, attr in bindings]
    missing = [
        f"{span}: {getattr(owner, '__name__', 'special._ENGINES')}.{attr}"
        for (span, owner, attr), fn in zip(bindings, before)
        if fn is None
    ]
    assert not missing
    t = tracer.Tracer()
    t.install()
    try:
        during = [tracer._get(owner, attr) for _, owner, attr in bindings]
    finally:
        t.remove()
    after = [tracer._get(owner, attr) for _, owner, attr in bindings]
    assert all(now is not orig for now, orig in zip(during, before))
    assert all(now is orig for now, orig in zip(after, before))
