"""Consistency suites: aggregation, determinism, serialization."""

import json
import math

import pytest

from seifertsum import crosscheck
from seifertsum.crosscheck import run_crosschecks
from seifertsum.errors import PreconditionError


def test_quick_suite_passes():
    report = run_crosschecks("quick", seed=0)
    assert report.passed
    assert report.mode == "quick"
    assert len(report.checks) >= 6
    names = [c.name for c in report.checks]
    assert "degree-zero-reduction" in names
    assert "kirillov-product-vs-sum" in names
    assert "modular-certificates" in names


def test_reports_serialize_without_wall_time():
    report = run_crosschecks("quick", seed=0)
    doc = report.to_json_dict()
    assert doc["schema"] == 1
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert set(check) == {"name", "passed", "residual", "threshold",
                              "detail"}
    # byte-stable across repeat runs with the same seed
    again = run_crosschecks("quick", seed=0).to_json_dict()
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_seed_changes_points_not_outcomes():
    assert run_crosschecks("quick", seed=7).passed


def test_unknown_mode_is_refused():
    with pytest.raises(PreconditionError):
        run_crosschecks("exhaustive")


def test_every_check_reports_a_residual():
    report = run_crosschecks("quick", seed=0)
    for check in report.checks:
        assert check.residual >= 0
        assert check.elapsed >= 0


def test_degree_zero_reduction_compares_with_the_exact_dimension(monkeypatch):
    exact = crosscheck.verlinde_dimension
    monkeypatch.setattr(crosscheck, "verlinde_dimension", lambda *args: exact(*args) + 1)
    (check,) = [c for c in run_crosschecks("quick").checks
                if c.name == "degree-zero-reduction"]
    assert not check.passed and check.residual > 0.5


def test_epsilon_profile_check_holds_each_row_to_its_bound(monkeypatch):
    # the rows agree with pi^2/6 and theta(eps); a row moved by twice its
    # allowance, its bound plus the reference's rounding of about 6 ulps, fails
    profile = crosscheck.ym2_epsilon_profile

    def moved(*args, **kwargs):
        prof = profile(*args, **kwargs)
        eps, z, bound = prof.rows[2]
        shift = 2 * (bound + 6 * 2.0 ** -53 * z)
        rows = prof.rows[:2] + ((eps, z + shift, bound),) + prof.rows[3:]
        return prof._replace(rows=rows)

    for patch, passed in ((profile, True), (moved, False)):
        monkeypatch.setattr(crosscheck, "ym2_epsilon_profile", patch)
        (check,) = [c for c in run_crosschecks("full").checks
                    if c.name == "epsilon-profile-monotone"]
        assert check.passed is passed and check.threshold == 1.0
        # a check that raised would read inf here, not a measured deviation
        assert math.isfinite(check.residual) and (check.residual > 1.5) is not passed


def test_witten_volume_identity_holds_each_sum_to_its_bound(monkeypatch):
    # the exact Verlinde leading coefficients meet every flat sum within its
    # bound; a sum moved by ten times its bound fails, and by a tenth passes
    partition = crosscheck.ym2_partition

    def moved(factor):
        def shifted(*args, **kwargs):
            res = partition(*args, **kwargs)
            return res._replace(value=res.value + factor * res.tail_bound)
        return shifted

    for patch, passed in ((partition, True), (moved(0.1), True), (moved(10.0), False)):
        monkeypatch.setattr(crosscheck, "ym2_partition", patch)
        (check,) = [c for c in run_crosschecks("full").checks
                    if c.name == "witten-volume-identity"]
        assert check.passed is passed and check.threshold == 1.0
        # a check that raised would read inf here, not a measured deviation
        assert math.isfinite(check.residual) and (check.residual > 1.5) is not passed
