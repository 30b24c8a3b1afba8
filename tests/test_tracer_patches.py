"""The benchmark tracer patches names it looks up in al_ist's modules.

perfbench/spans.py wraps each layer boundary at the module attribute its
caller reads (`al_ist.solver.nlft_forward`, `Sequence.reflected`,
`al_ist.solver.ThreadPoolExecutor`, ...).  Removing or renaming one of
those names breaks the traced benchmark run; this test makes it fail here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        replaced = [owner.__dict__[attr] is not original for owner, attr, original in patched]
    finally:
        tracer.uninstall()
    assert patched and all(replaced)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
