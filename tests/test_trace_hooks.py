"""The traced benchmark's hooks still exist and run on the request path.

``topk_bench/tracing.py`` patches named functions of the pipeline from
the outside; renaming one of them would otherwise only break traced
benchmark runs.
"""
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import spade

TRACING = Path(__file__).resolve().parents[1] / "topk_bench" / "tracing.py"

#: Spans every exact request opens, plus the early-stop ones.
EXACT_SPANS = {
    "core.spade.online",
    "core.cfs.select",
    "core.attributes.analyze",
    "core.enumeration.enumerate",
    "core.preagg.preaggregate",
    "core.mvdcube.translate",
    "core.mvdcube.evaluate",
    "core.arm.topk",
}
ES_SPANS = {"core.earlystop.sample", "core.earlystop.candidates", "core.earlystop.prune"}


@pytest.fixture
def tracer(spark):
    spec = importlib.util.spec_from_file_location("topk_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    client = spark.sparkContext._gateway._gateway_client
    send = client.send_command  # the tracer wraps it to count py4j calls
    tr = module.Tracer(spark)
    try:
        yield tr
    finally:
        tr.uninstall()
        client.send_command = send


def test_install_and_uninstall_restore_every_hook(tracer):
    before = {name: getattr(spade, name) for name in ("translate", "preaggregate")}
    tracer.install()
    assert spade.translate is not before["translate"]
    tracer.uninstall()
    assert {name: getattr(spade, name) for name in before} == before


def test_hooks_run_on_request_path(spark, ceos_offline, test_config, tracer):
    config = replace(test_config, max_cfss=1)
    tracer.install()
    spade.run_online(spark, ceos_offline, config, k=3)
    spade.run_online(spark, ceos_offline, config, early_stop=True, k=3)
    tracer.uninstall()
    names = {sp.name for sp in tracer.spans}
    assert EXACT_SPANS | ES_SPANS <= names
    (evaluate, *_) = [sp for sp in tracer.spans if sp.name == "core.mvdcube.evaluate"]
    assert evaluate.counts["nodes"] > 0


def test_one_evaluate_and_sample_span_per_request(
    spark, ceos_offline, test_config, tracer
):
    config = replace(test_config, max_cfss=2)
    tracer.install()
    for request, kwargs in enumerate([{}, {"early_stop": True}]):
        tracer.request = request
        result = spade.run_online(spark, ceos_offline, config, k=3, **kwargs)
        assert sum(bool(a.lattices) for a in result.analyses) == 2
    tracer.uninstall()
    for request, sample_spans in enumerate([0, 1]):
        names = [sp.name for sp in tracer.spans if sp.request == request]
        assert names.count("core.mvdcube.evaluate") == 1
        assert names.count("core.earlystop.sample") == sample_spans
