import importlib
import types

import pytest

import twistlab
from layertrace import LAYERS, METHOD_SPANS, Tracer
from workloads import MnFluctuate, U1U2Cli


def _bindings():
    """Identity of every module attribute and wrapped class attribute in twistlab."""
    out = {}
    modules = [twistlab] + [importlib.import_module(f"twistlab.{layer}") for layer in LAYERS]
    for mod in modules:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for (layer, cls_name, meth) in METHOD_SPANS:
        cls = getattr(importlib.import_module(f"twistlab.{layer}"), cls_name)
        out[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return out


def test_wrappers_are_rebound_everywhere_and_fully_restored():
    before = _bindings()
    original = twistlab.pert.fluctuate
    with Tracer():
        wrapped = twistlab.pert.fluctuate
        assert wrapped is not original
        for ns in (twistlab, twistlab.gauge, twistlab.models, twistlab.cli):
            assert ns.fluctuate is wrapped
        assert twistlab.algebra.cmatrix is twistlab.linalg.cmatrix is twistlab.triple.cmatrix
        assert twistlab.linalg.cmatrix.__wrapped__ is before[("twistlab.linalg", "cmatrix")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("planted")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_session_prints_identical_stdout(tmp_path):
    wl = U1U2Cli(11, str(tmp_path))
    plain = wl.job(0)
    with Tracer() as tracer:
        traced = wl.job(0)
    assert traced == plain
    assert wl.verify(traced) == wl.verify(plain) == []
    m = tracer.layer_metrics(1)
    # every span of the session sits inside cli.main, so the layers' self times add up to its busy time
    assert sum(m[f"{layer}.self_s"][0] for layer in LAYERS) == pytest.approx(
        tracer.stats["cli.main"][1], rel=1e-9)
    assert m["cli.morita.busy_s"][0] > 0 and m["morita.amat_mul.calls"][0] > 0
    assert m["files.bytes_read"][0] > 0 and m["files.bytes_written"][0] > 0


def test_traced_library_job_is_identical_and_counts_pi(tmp_path):
    wl = MnFluctuate(11, str(tmp_path))
    plain = wl.digest(wl.job(2))
    with Tracer() as tracer:
        traced = wl.digest(wl.job(2))
    assert traced == plain
    m = tracer.layer_metrics(1)
    assert m["triple.pi.calls"][0] > 0
    assert m["triple.pi.unit_arg_share"][0] == 0.0   # dense perturbations, never a matrix unit
    # fluctuate(p) sees 3 pairs; gauge_dirac re-fluctuates p normalised (4 pairs) and its gauge transform (4)
    assert m["pert.pairs_per_fluctuate"][0] == pytest.approx((3 + 4 + 4) / 3)


def test_paused_records_nothing():
    with Tracer() as tracer:
        with tracer.paused():
            twistlab.linalg.rel_defect(twistlab.linalg.cmatrix([[1.0]]), [[1.0]])
    assert all(rec[0] == 0 for rec in tracer.stats.values())
    assert isinstance(twistlab.linalg.cmatrix, types.FunctionType)
