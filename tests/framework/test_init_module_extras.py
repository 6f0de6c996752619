"""Initializers and remaining module-system edge cases."""
import numpy as np
import pytest

from repro.framework import init as initializers
from repro.framework.layers import Conv2D, Identity, Sequential
from repro.framework.module import Module
from repro.framework.parameter import Parameter


class TestInitializers:
    RNG = np.random.default_rng(0)

    def test_he_normal_std(self):
        w = initializers.he_normal(np.random.default_rng(0), (256, 128, 3, 3))
        fan_in = 128 * 9
        assert w.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.05)
        assert w.dtype == np.float32

    def test_dense_shape_fans(self):
        w = initializers.he_normal(np.random.default_rng(3), (10, 20))
        assert w.shape == (10, 20)

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            initializers.he_normal(np.random.default_rng(0), (3, 3, 3))

    def test_zeros_ones(self):
        assert initializers.zeros((2, 2)).sum() == 0
        assert initializers.ones((3,)).sum() == 3

    def test_deterministic(self):
        a = initializers.he_normal(np.random.default_rng(7), (8, 4, 3, 3))
        b = initializers.he_normal(np.random.default_rng(7), (8, 4, 3, 3))
        np.testing.assert_array_equal(a, b)


class TestModuleExtras:
    def test_modules_iterator_includes_self(self):
        seq = Sequential(Conv2D(2, 3, 3), Identity())
        mods = list(seq.modules())
        assert mods[0] is seq
        assert len(mods) == 3

    def test_add_module_registers(self):
        class Holder(Module):
            def forward(self, x):
                return self.inner(x)

        h = Holder()
        h.add_module("inner", Identity())
        assert "inner" in h._modules
        assert h(5) == 5

    def test_parameter_repr(self):
        p = Parameter(np.zeros((2, 3)), name="w")
        assert "w" in repr(p) and "(2, 3)" in repr(p)

    def test_load_state_dict_refreshes_masters(self):
        conv = Conv2D(2, 3, 3, bias=False, rng=np.random.default_rng(0))
        conv.weight.enable_master_copy()
        new = np.ones_like(conv.weight.data)
        Sequential(conv)  # just to exercise container paths
        conv.load_state_dict({"weight": new})
        np.testing.assert_array_equal(conv.weight.master, new.astype(np.float32))
