"""Tests of the benchmark's span tracer.

    python3 -m pytest bench/test_tracer.py
"""

import sys

import numpy as np
import pytest

import georisk
import georisk.cli
from georisk import SpatialSample, fit_pipeline
from georisk.io import synth_dataset

from tracer import METHODS, Tracer, root_coverage, self_times, summarize


@pytest.fixture(scope="module")
def sample():
    locs, values = synth_dataset(n=80, seed=1)
    return SpatialSample(locs, np.sqrt(values))


def _bindings():
    """Every name bound in a georisk namespace or wrapped class."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "georisk" or name.startswith("georisk.")):
            out.update({(name, attr): obj for attr, obj in vars(mod).items()})
    for layer, cls_name, meth, _ in METHODS:
        cls = getattr(sys.modules[f"georisk.{layer}"], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def _fit_arrays(fit):
    return [
        fit.trend_fit.fitted, fit.bandwidth.entries, np.array(fit.lag_bandwidth),
        fit.pilot_uncorrected.estimates, fit.pilot_corrected.estimates,
        fit.residual_model.node_weights, fit.corrected_model.node_weights,
        np.array([fit.residual_model.nugget, fit.corrected_model.nugget]),
        fit.residual_factor.L, fit.corrected_factor.L,
    ]


def test_fit_is_bit_identical_with_tracer(sample):
    plain = fit_pipeline(sample)
    with Tracer(memory=True) as tracer:
        traced = georisk.fit_pipeline(sample)
    assert tracer.spans, "the traced fit recorded no spans"
    for a, b in zip(_fit_arrays(plain), _fit_arrays(traced)):
        assert np.array_equal(a, b)


def test_every_wrapper_is_removed(sample):
    before = _bindings()
    tracer = Tracer().install()
    try:
        assert georisk.bootstrap.fit_pipeline is not before[("georisk.bootstrap", "fit_pipeline")]
        assert georisk.fit_pipeline is georisk.bootstrap.fit_pipeline
        assert georisk.cli.fit_pipeline is georisk.bootstrap.fit_pipeline
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_spans_nest_and_account_for_the_root(sample):
    with Tracer() as tracer:
        georisk.fit_pipeline(sample)
    spans = tracer.spans
    root = spans[0]
    assert root.name == "bootstrap.fit_pipeline" and root.parent is None
    assert all(s.parent is not None for s in spans[1:])
    by_id = {s.id: s for s in spans}
    for s in spans[1:]:
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    # self times partition the root span exactly
    assert sum(self_times(spans)) == pytest.approx(root.end - root.start, rel=1e-9)
    assert root_coverage(spans) > 0.9
    stats = summarize(spans)
    assert stats["bootstrap.fit_pipeline"]["calls"] == 1
    assert stats["trend.select_bandwidth"]["calls"] >= 1
    assert tracer.counts["trend.candidates_offered"] >= tracer.counts["trend.candidates_scored"] > 0
    assert tracer.counts["variogram.loo_pairs"] > 0
