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


def test_tracer_sees_the_compare_window_solve(monkeypatch, tmp_path):
    # useful_frac divides solver.emitted by the computed coefficients; it
    # reads 0 if the tracer's solver wrap misses compare's window solve.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from al_ist.cli import main
    from al_ist.datagen import random_sequence
    from al_ist.seqio import write_sequence

    datum, out = tmp_path / "in.json", tmp_path / "cmp.csv"
    write_sequence(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5), str(datum))
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = main(["--cmd", "compare", "--in", str(datum), "--out", str(out),
                     "--t", "1.0", "--eps", "1e-6"])
    finally:
        tracer.uninstall()
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert rows and tracer.counts["solver.emitted"] == len(rows)
