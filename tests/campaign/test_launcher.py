"""Site launcher: node accounting, backfill packing, cost models."""
import pytest

from repro.campaign import Job, SiteConfig, SiteLauncher
from repro.campaign.launcher import LABEL_BYTES_PER_NODE_S, SERVE_RPS_PER_GPU
from repro.errors import CampaignError
from repro.hpc import SUMMIT


def make_job(i=0, kind="train", nodes=4, steps=1000, **kw):
    base = dict(job_id=f"job-{i:04d}", user="u", kind=kind, nodes=nodes,
                steps_total=steps, state="PREPROCESSED")
    base.update(kw)
    return Job(**base)


@pytest.fixture
def site():
    return SiteLauncher(SiteConfig(system=SUMMIT, nodes=8))


class TestConfig:
    def test_cap_must_fit_machine(self):
        with pytest.raises(ValueError):
            SiteConfig(system=SUMMIT, nodes=SUMMIT.nodes + 1)

    def test_default_cap_is_whole_machine(self):
        assert SiteConfig(system=SUMMIT).total_nodes == SUMMIT.nodes


class TestNodeAccounting:
    def test_allocate_release_cycle(self, site):
        job = make_job()
        site.allocate(job, 4)
        assert site.free_nodes == 4 and site.busy_nodes == 4
        assert site.release(job) == 4
        assert site.free_nodes == 8 and site.busy_nodes == 0

    def test_double_allocate_rejected(self, site):
        job = make_job()
        site.allocate(job, 2)
        with pytest.raises(CampaignError, match="already holds"):
            site.allocate(job, 2)

    def test_overcommit_rejected(self, site):
        with pytest.raises(CampaignError, match="cannot allocate"):
            site.allocate(make_job(), 9)

    def test_release_without_allocation_rejected(self, site):
        with pytest.raises(CampaignError, match="no allocation"):
            site.release(make_job())


class TestPacking:
    def test_first_fit_in_order(self, site):
        a, b = make_job(0, nodes=4), make_job(1, nodes=4)
        launched = site.pack([a, b])
        assert [(j.job_id, n) for j, n in launched] == [("job-0000", 4),
                                                        ("job-0001", 4)]
        assert site.free_nodes == 0

    def test_backfill_skips_wide_job(self, site):
        # 6 + 6 can't both fit; the 2-node job behind them backfills.
        wide1, wide2 = make_job(0, nodes=6), make_job(1, nodes=6)
        narrow = make_job(2, nodes=2)
        launched = site.pack([wide1, wide2, narrow])
        assert [(j.job_id, n) for j, n in launched] == [("job-0000", 6),
                                                        ("job-0002", 2)]

    def test_restarting_job_uses_shrunk_width(self, site):
        job = make_job(0, nodes=6, state="RESTARTING", nodes_allocated=3)
        assert site.width_for(job) == 3
        launched = site.pack([job])
        assert launched == [(job, 3)]

    def test_request_clamped_to_site(self):
        small = SiteLauncher(SiteConfig(system=SUMMIT, nodes=2))
        job = make_job(0, nodes=16)
        assert small.width_for(job) == 2


class TestCostModels:
    def test_stage_in_uses_effective_bandwidth(self, site):
        job = make_job(data_bytes=1e12)
        expect = 1e12 / SUMMIT.filesystem.effective_read_bandwidth
        assert site.stage_in_s(job) == pytest.approx(expect)
        assert site.stage_in_s(make_job(data_bytes=0.0)) == 0.0

    def test_preprocess_rate(self, site):
        job = make_job(data_bytes=8e9)
        assert site.preprocess_s(job) == pytest.approx(2.0)

    def test_train_time_shrinks_with_nodes(self, site):
        job = make_job(kind="train", steps=100_000)
        assert site.run_s(job, 8) < site.run_s(job, 2)
        assert site.run_s(job, 2) > 0

    def test_train_resume_reduces_remaining(self, site):
        job = make_job(kind="train", steps=100_000)
        full = site.run_s(job, 4)
        job.resume_step = 50_000
        half = site.run_s(job, 4)
        assert 0 < half < full

    def test_serve_rate_model(self, site):
        job = make_job(kind="serve", steps=12_000)
        gpus = 2 * SUMMIT.node.gpus
        assert site.run_s(job, 2) == pytest.approx(
            12_000 / (SERVE_RPS_PER_GPU * gpus))

    def test_label_rate_model(self, site):
        job = make_job(kind="label", steps=10, data_bytes=20e9)
        # 2 GB per shard, 2 nodes x 2 GB/s.
        assert site.run_s(job, 2) == pytest.approx(
            10 * 2e9 / (LABEL_BYTES_PER_NODE_S * 2))

    def test_completed_job_costs_nothing(self, site):
        job = make_job(steps=100)
        job.resume_step = 100
        assert site.run_s(job, 4) == 0.0

    def test_unknown_kind_rejected(self, site):
        job = make_job()
        job.kind = "mining"   # bypass constructor validation
        with pytest.raises(CampaignError, match="no cost model"):
            site.run_s(job, 2)
