"""The per-job verification behind `failed`: planted wrong answers must count as failed."""
import dataclasses
import json

import pytest

from worker import run_job
from workloads import MnCheck, MnFluctuate, U1U2Cli


def _retouch(out, index, edit):
    """Copy of a CLI job output with command `index`'s JSON stdout edited."""
    rc, stdout, err = out[index]
    doc = json.loads(stdout)
    edit(doc)
    out = list(out)
    out[index] = (rc, json.dumps(doc), err)
    return out


@pytest.fixture(scope="module")
def mn_check(tmp_path_factory):
    wl = MnCheck(3, str(tmp_path_factory.mktemp("mn_check")))
    return wl, wl.job(0)


@pytest.fixture(scope="module")
def u1u2(tmp_path_factory):
    wl = U1U2Cli(3, str(tmp_path_factory.mktemp("u1u2")))
    return wl, wl.job(0)


def test_mn_check_output_passes(mn_check):
    wl, out = mn_check
    assert wl.verify(out) == []


@pytest.mark.parametrize("edit", [
    lambda d: d.update(first_order=0.0),
    lambda d: d.update(order_zero=1e-6),
    lambda d: d.update(failures=["regularity"]),
    lambda d: d["real"].update(epsilon_prime=-1),
])
def test_mn_check_planted_wrong_answer_fails(mn_check, edit):
    wl, out = mn_check
    assert wl.verify(_retouch(out, 0, edit))


def test_mn_check_nonzero_exit_fails(mn_check):
    wl, [(rc, stdout, err)] = mn_check
    assert wl.verify([(1, stdout, err)])


def test_u1u2_session_passes(u1u2):
    wl, out = u1u2
    assert [rc for rc, _, _ in out] == [0] * 8
    assert wl.verify(out) == []


@pytest.mark.parametrize("index, edit", [
    (0, lambda d: d.update(formula_max_defect=1e-6)),
    (1, lambda d: d["real"].update(ko_dimension=2)),
    (2, lambda d: d.update(mu_action_defect=1e-9)),
    (3, lambda d: d.update(covariance_defect=1e-3)),
    (4, lambda d: d.update(pairs=3)),
    (5, lambda d: d.update(d_r_equals_d_plus_omega=1e-6)),
    (7, lambda d: d.update(real_triple_passes=False)),
    (7, lambda d: d.pop("left_triple_passes")),
    (7, lambda d: d.update(real_ko_dimension=4)),
])
def test_u1u2_planted_wrong_answer_fails(u1u2, index, edit):
    wl, out = u1u2
    assert wl.verify(_retouch(out, index, edit))


def test_u1u2_nonzero_exit_fails(u1u2):
    wl, out = u1u2
    rc, stdout, err = out[3]
    assert wl.verify(out[:3] + [(2, stdout, err)] + out[4:])


def test_mn_fluctuate_planted_wrong_answers_fail(tmp_path):
    wl = MnFluctuate(3, str(tmp_path))
    d_omega, mu, g = wl.job(1)
    assert wl.verify((d_omega, mu, g)) == []
    assert wl.verify((d_omega, mu + 1e-6, g))
    assert wl.verify((d_omega, mu, dataclasses.replace(g, defect=1e-3)))
    assert wl.verify((d_omega, mu, dataclasses.replace(g, bare_defect=1e-3)))


class _Broken:
    def __init__(self, job_raises):
        self.job_raises = job_raises

    def job(self, i):
        if self.job_raises:
            raise ValueError("planted")
        return [(0, "not json", "")]

    verify = MnCheck.verify
    digest = MnCheck.digest


def test_raising_job_and_malformed_output_count_as_failed():
    for job_raises in (True, False):
        _, problems, _ = run_job(_Broken(job_raises), 0)
        assert problems
