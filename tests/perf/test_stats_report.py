"""Throughput statistics (Section VI methodology) and table rendering."""
import numpy as np
import pytest

from repro.perf import (
    format_table,
    sustained_throughput,
)


class TestSustainedThroughput:
    def test_constant_rate(self):
        samples = np.full((50, 8), 2.0)     # 2 samples per rank per step
        times = np.full(50, 0.5)
        st = sustained_throughput(samples, times)
        assert st.median == pytest.approx(8 * 2 / 0.5)
        assert st.lo == st.hi == st.median
        assert st.err_plus == st.err_minus == 0.0

    def test_median_robust_to_outliers(self):
        samples = np.full((100, 4), 1.0)
        times = np.full(100, 1.0)
        times[:5] = 100.0  # straggler steps
        st = sustained_throughput(samples, times)
        assert st.median == pytest.approx(4.0)

    def test_central_68_ci(self):
        rng = np.random.default_rng(0)
        samples = np.full((1000, 2), 1.0)
        times = rng.lognormal(0.0, 0.2, size=1000)
        st = sustained_throughput(samples, times)
        assert st.lo < st.median < st.hi
        rates = 2.0 / times
        np.testing.assert_allclose(st.lo, np.quantile(rates, 0.16), rtol=1e-6)
        np.testing.assert_allclose(st.hi, np.quantile(rates, 0.84), rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            sustained_throughput(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            sustained_throughput(np.ones((5, 2)), np.ones(4))
        with pytest.raises(ValueError):
            sustained_throughput(np.ones((5, 2)), np.zeros(5))


class TestReport:
    def test_format_table_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 0.001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_float_formatting(self):
        out = format_table(["v"], [[1234.5678], [0.0001234], [1.5]])
        assert "1.23e+03" in out
        assert "0.000123" in out
        assert "1.5" in out

