from dataclasses import replace

import pytest

from nclp.algebra import DEFAULT_CONFIG, DomainError
from nclp.suite import PROPERTIES, run_suite


def test_reduced_budget_overall_pass():
    report = run_suite(budget_scale=0.08)
    failing = [r.property_id for r in report.records if r.failed]
    assert report.overall_pass, failing
    assert len(report.records) == len(PROPERTIES)


def test_filter_runs_single_property():
    report = run_suite(only="dinq", budget_scale=0.1)
    assert [r.property_id for r in report.records] == ["dinq-two-term-agreement"]


def test_filter_matching_nothing_raises():
    # a misspelt filter must not pass with an empty report
    with pytest.raises(DomainError, match="no-such-property"):
        run_suite(only="no-such-property")


def test_anchors_unique_and_nonempty():
    anchors = [p.anchor for p in PROPERTIES]
    ids = [p.property_id for p in PROPERTIES]
    assert len(set(anchors)) == len(anchors)
    assert len(set(ids)) == len(ids)
    assert all(a for a in anchors)


def test_deterministic_given_seed():
    cfg = replace(DEFAULT_CONFIG, seed=5)
    a = run_suite(cfg, only="positive-sequence", budget_scale=0.2).to_dict(timings=False)
    b = run_suite(cfg, only="positive-sequence", budget_scale=0.2).to_dict(timings=False)
    assert a == b


def test_undetermined_counts_surface_in_report():
    report = run_suite(only="dinq", budget_scale=0.3)
    rec = report.records[0]
    assert rec.instances == rec.passed + rec.failed + rec.undetermined
