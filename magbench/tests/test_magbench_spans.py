"""Span arithmetic and wrapper install/restore.

Run from the repository root: ``python3 -m pytest magbench/tests -q``.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import spans  # noqa: E402
from spans import Recorder, Span, Target, check_pristine, installed  # noqa: E402


def test_self_time_on_synthetic_tree():
    #  root [0, 10]
    #    a  [1, 4]        b [5, 9]
    #      a1 [2, 3]        b1 [5, 6]  b2 [7, 9]
    tree = [
        Span("sweeps.run", 0.0, 10.0, -1, 0),
        Span("extrinsic.calibrate", 1.0, 4.0, 0, 0),
        Span("magmap.query_many", 2.0, 3.0, 1, 0),
        Span("extrinsic.calibrate", 5.0, 9.0, 0, 0),
        Span("magmap.query_many", 5.0, 6.0, 3, 0),
        Span("magmap.gradient_many", 7.0, 9.0, 3, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    by_name = spans.self_time_by_name(tree)
    assert by_name == pytest.approx({"sweeps.run": 3.0, "extrinsic.calibrate": 3.0,
                                     "magmap.query_many": 2.0,
                                     "magmap.gradient_many": 2.0})
    # self times add up to the root's duration
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [Span("p", 0.0, 10.0, -1, 0), Span("c", 2.0, 6.0, 0, 0),
            Span("c", 4.0, 8.0, 0, 0), Span("c", 9.0, 12.0, 0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _fake_module():
    mod = types.ModuleType("magbench_fake_layer")

    def work(x):
        return x * 2

    class Thing:
        def method(self, x):
            return mod.work(x) + 1

    mod.work = work
    mod.Thing = Thing
    return mod


def test_wrappers_record_spans_and_restore_originals(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    original_work, original_method = mod.work, mod.Thing.method
    targets = (Target(mod.__name__, "work", "fake.work"),
               Target(f"{mod.__name__}:Thing", "method", "fake.method",
                      counts=lambda args, kwargs, result: {"fake.out": result}))
    check_pristine(targets)
    recorder = Recorder()
    with installed(recorder, targets):
        assert mod.work is not original_work
        with pytest.raises(RuntimeError, match="still wrapped"):
            check_pristine(targets)
        recorder.op = 3
        assert mod.Thing().method(5) == 11
    assert mod.work is original_work
    assert mod.Thing.__dict__["method"] is original_method
    check_pristine(targets)
    assert [(s.name, s.parent, s.op) for s in recorder.spans] == [
        ("fake.method", -1, 3), ("fake.work", 0, 3)]
    assert recorder.counters == {"fake.method.calls": 1, "fake.work.calls": 1,
                                 "fake.out": 11}


def test_restore_after_exception_and_partial_install(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    original = mod.work
    good = Target(mod.__name__, "work", "fake.work")
    with pytest.raises(ZeroDivisionError):
        with installed(Recorder(), (good,)):
            1 / 0
    assert mod.work is original
    with pytest.raises(AttributeError):
        with installed(Recorder(), (good, Target(mod.__name__, "missing", "x"))):
            pass
    assert mod.work is original


def test_magcalib_targets_install_and_restore():
    targets = spans.magcalib_targets()
    import magcalib.extrinsic as extrinsic
    import magcalib.magmap as magmap
    before = {(t.owner, t.attr): getattr(spans._resolve(t.owner), t.attr)
              for t in targets}
    check_pristine(targets)
    with installed(Recorder(), targets):
        assert hasattr(magmap.MagMap.query_many, spans._MARK)
        assert hasattr(extrinsic.select_lambda, spans._MARK)
    check_pristine(targets)
    after = {(t.owner, t.attr): getattr(spans._resolve(t.owner), t.attr)
             for t in targets}
    assert after == before
