"""``core.flops.paper_graph``: the one memoised, weight-free source of
paper-size graphs must return exactly what an eagerly initialised network
traces to, and the cost models built on it exactly what they returned when
they built their own networks."""
import dataclasses

import pytest

from repro.core import flops
from repro.core.flops import PAPER_HW, paper_graph, paper_network
from repro.core.networks import (
    DeepLabV3Plus,
    Tiramisu,
    TiramisuConfig,
    deeplab_modified,
    tiramisu_modified,
)
from repro.perf import PAPER_SCALING_ANCHORS, scaling, singlegpu, step_time_model

#: How each cost model used to build its network, before the shared table.
EAGER_BUILDERS = {
    "deeplabv3+": (lambda: deeplab_modified(in_channels=16), 16),
    "tiramisu": (lambda: tiramisu_modified(in_channels=16), 16),
    "tiramisu_4ch": (lambda: Tiramisu(TiramisuConfig(in_channels=4)), 4),
}


@pytest.fixture(scope="module")
def eager_graph():
    """Uncached ``paper_graph`` over eagerly initialised networks (each built
    once per module: drawing the weights is the slow part)."""
    built = {}

    def graph(network, batch, precision, include_backward=True):
        build, channels = EAGER_BUILDERS[network]
        if network not in built:
            built[network] = build()
        model = built[network]
        analysis = model.analyze((channels, *PAPER_HW), batch=batch,
                                 precision=precision,
                                 include_backward=include_backward)
        return analysis, model.num_parameters()

    return graph


class TestDifferential:
    @pytest.mark.parametrize("include_backward", [True, False])
    @pytest.mark.parametrize("precision,batch", [("fp32", 1), ("fp16", 2)])
    @pytest.mark.parametrize("network", sorted(EAGER_BUILDERS))
    def test_matches_eager_network(self, eager_graph, network, precision, batch,
                                   include_backward):
        analysis, parameters = paper_graph(network, batch, precision, include_backward)
        ref, ref_parameters = eager_graph(network, batch, precision, include_backward)
        assert parameters == ref_parameters
        assert analysis.records == ref.records
        assert analysis.total_activation_bytes == ref.total_activation_bytes
        assert (analysis.batch, analysis.precision) == (ref.batch, ref.precision)

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("config", sorted(PAPER_SCALING_ANCHORS))
    def test_step_time_model_is_bit_identical(self, eager_graph, monkeypatch,
                                              config, lag):
        network, system, precision = config
        gpus = PAPER_SCALING_ANCHORS[config][0]
        cached = step_time_model(network, gpus, precision, lag, system)
        monkeypatch.setattr(singlegpu, "paper_graph", eager_graph)
        monkeypatch.setattr(scaling, "paper_graph", eager_graph)
        assert step_time_model(network, gpus, precision, lag, system) == cached


class TestMemo:
    def test_second_call_builds_no_network(self, monkeypatch):
        built = []
        for cls in (Tiramisu, DeepLabV3Plus):
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        flops._paper_graph.cache_clear()
        first = paper_graph("tiramisu", 1, "fp32")
        assert built == ["Tiramisu"]
        assert paper_graph("tiramisu", 1, "fp32", True) is first
        assert paper_graph("tiramisu", precision="fp32", batch=1) is first
        step_time_model("deeplabv3+", 6, "fp16", 1)
        count = len(built)
        step_time_model("deeplabv3+", 12, "fp16", 0)
        assert len(built) == count

    def test_analysis_is_immutable(self):
        analysis, _ = paper_graph("tiramisu_4ch", 1, "fp32")
        assert isinstance(analysis.records, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            analysis.batch = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            analysis.records[0].flops = 0
        assert paper_graph("tiramisu_4ch", 1, "fp32")[0] == analysis

    def test_unknown_network(self):
        with pytest.raises(ValueError, match="unknown network"):
            paper_graph("unet", 1, "fp32")
        with pytest.raises(ValueError, match="unknown network"):
            paper_network("unet")

    def test_paper_network_has_no_weights(self):
        model = paper_network("deeplabv3+")
        assert all(p.shape_only and not any(p.data.strides)
                   for p in model.parameters())
