"""Heuristic labelers: TECA-style TC detection and AR floodfill."""
import numpy as np
import pytest

from repro.climate import (
    CLASS_AR,
    CLASS_BG,
    CLASS_TC,
    Grid,
    SnapshotSynthesizer,
    TecaConfig,
    class_frequencies,
    connected_components_periodic,
    cyclone_mask,
    detect_cyclones,
    make_labels,
    river_mask,
)
from repro.climate.cyclones import TropicalCyclone, imprint_cyclone
from repro.climate.floodfill import EXCLUSION_LAT
from repro.climate.teca import MASK_RADIUS_DEG
from repro.climate.rivers import AtmosphericRiver, imprint_river
from repro.climate.grid import CHANNEL_NAMES

GRID = Grid(96, 144)


def snapshot_with(cyclones=(), rivers=(), noise=0.4, seed=0):
    synth = SnapshotSynthesizer(GRID, mean_cyclones=0, mean_rivers=0,
                                noise_scale=noise)
    snap = synth.generate(seed)
    for tc in cyclones:
        imprint_cyclone(snap.fields, GRID, tc)
    for ar in rivers:
        imprint_river(snap.fields, GRID, ar)
    snap.cyclones = list(cyclones)
    snap.rivers = list(rivers)
    return snap


STRONG_TC = TropicalCyclone(lat=18.0, lon=140.0, radius_deg=3.0,
                            depth_hpa=45.0, vmax=50.0, warm_core_k=3.5)


class TestTecaDetection:
    def test_detects_planted_storm(self):
        snap = snapshot_with(cyclones=[STRONG_TC])
        found = detect_cyclones(snap.fields, GRID)
        assert len(found) == 1
        c = found[0]
        assert abs(c.lat - 18.0) < 4.0
        dlon = abs(c.lon - 140.0)
        assert min(dlon, 360 - dlon) < 4.0

    def test_shallow_depression_rejected(self):
        weak = TropicalCyclone(18.0, 140.0, 3.0, depth_hpa=4.0, vmax=10.0,
                               warm_core_k=0.1)
        snap = snapshot_with(cyclones=[weak])
        assert detect_cyclones(snap.fields, GRID) == []

    def test_cold_core_rejected(self):
        # Deep low without a warm core (an extratropical cyclone) must fail
        # the warm-core criterion.
        snap = snapshot_with()
        cold = TropicalCyclone(20.0, 100.0, 3.0, 45.0, 50.0, warm_core_k=0.0)
        imprint_cyclone(snap.fields, GRID, cold)
        snap.fields["T500"] -= 0.0  # warm_core_k=0 adds nothing
        found = detect_cyclones(snap.fields, GRID,
                                TecaConfig(min_warm_core_k=1.0))
        assert found == []

    def test_high_latitude_rejected(self):
        snap = snapshot_with()
        polar = TropicalCyclone(60.0, 100.0, 3.0, 45.0, 50.0, 3.0)
        imprint_cyclone(snap.fields, GRID, polar)
        assert detect_cyclones(snap.fields, GRID) == []

    def test_two_storms_detected_separately(self):
        a = STRONG_TC
        b = TropicalCyclone(-15.0, 300.0, 3.0, 40.0, 45.0, 3.0)
        snap = snapshot_with(cyclones=[a, b])
        found = detect_cyclones(snap.fields, GRID)
        assert len(found) == 2

    def test_mask_covers_core_and_caps_radius(self):
        snap = snapshot_with(cyclones=[STRONG_TC])
        cands = detect_cyclones(snap.fields, GRID)
        mask = cyclone_mask(snap.fields, GRID, cands)
        i, j = GRID.lat_index(18.0), GRID.lon_index(140.0)
        assert mask[i, j]
        dist = GRID.angular_distance_deg(18.0, 140.0)
        assert not mask[dist > MASK_RADIUS_DEG + 1.0].any()

    def test_mask_empty_without_candidates(self):
        snap = snapshot_with()
        assert not cyclone_mask(snap.fields, GRID, []).any()


def straight_river(lat=20.0, lon=60.0, length=40.0, width=2.5, intensity=25.0):
    ar = AtmosphericRiver(lat, lon, length, width, intensity,
                          heading_deg=50.0, curvature=0.0)
    from repro.climate.rivers import _with_waypoints
    return _with_waypoints(ar)


class TestFloodfillAR:
    def test_detects_planted_river(self):
        ar = straight_river()
        snap = snapshot_with(rivers=[ar])
        mask = river_mask(snap.fields, GRID)
        assert mask.any()
        # Mask overlaps the actual track.
        hits = sum(mask[GRID.lat_index(lat), GRID.lon_index(lon)]
                   for lat, lon in ar.waypoints)
        assert hits > len(ar.waypoints) * 0.4

    def test_short_blob_rejected(self):
        # A round moist blob is not an AR (fails length/aspect filters).
        snap = snapshot_with()
        lat2d, _ = GRID.meshgrid()
        d = GRID.angular_distance_deg(35.0, 200.0)
        snap.fields["TMQ"] += 25.0 * np.exp(-0.5 * (d / 2.0) ** 2)
        mask = river_mask(snap.fields, GRID)
        assert not mask.any()

    def test_tropical_band_excluded(self):
        snap = snapshot_with()
        mask = river_mask(snap.fields, GRID)
        lat2d, _ = GRID.meshgrid()
        assert not mask[np.abs(lat2d) < EXCLUSION_LAT].any()

    def test_exclusion_mask_respected(self):
        ar = straight_river()
        snap = snapshot_with(rivers=[ar])
        everything = np.ones(GRID.shape, dtype=bool)
        mask = river_mask(snap.fields, GRID, exclude=everything)
        assert not mask.any()

    def test_weak_river_below_threshold(self):
        ar = straight_river(intensity=3.0)
        snap = snapshot_with(rivers=[ar], noise=0.1)
        mask = river_mask(snap.fields, GRID)
        assert not mask.any()


class TestPeriodicComponents:
    def test_wrap_merges_across_seam(self):
        mask = np.zeros((10, 20), dtype=bool)
        mask[5, :3] = True
        mask[5, -3:] = True
        labeled, count = connected_components_periodic(mask)
        assert count == 1
        assert labeled[5, 0] == labeled[5, -1]

    def test_disjoint_stay_separate(self):
        mask = np.zeros((10, 20), dtype=bool)
        mask[2, 5:8] = True
        mask[7, 12:15] = True
        _, count = connected_components_periodic(mask)
        assert count == 2

    def test_empty(self):
        labeled, count = connected_components_periodic(np.zeros((5, 5), dtype=bool))
        assert count == 0
        assert not labeled.any()

    def test_multiple_wraps(self):
        mask = np.zeros((10, 20), dtype=bool)
        mask[2, 0] = mask[2, -1] = True
        mask[7, 0] = mask[7, -1] = True
        _, count = connected_components_periodic(mask)
        assert count == 2


class TestLabels:
    def test_tc_precedence_over_ar(self):
        # A river running over a cyclone: TC pixels win.
        tc = STRONG_TC
        ar = straight_river(lat=16.0, lon=132.0)
        snap = snapshot_with(cyclones=[tc], rivers=[ar])
        labels = make_labels(snap)
        i, j = GRID.lat_index(18.0), GRID.lon_index(140.0)
        assert labels[i, j] == CLASS_TC

    def test_class_values(self):
        assert (CLASS_BG, CLASS_TC, CLASS_AR) == (0, 1, 2)

    def test_frequencies_sum_to_one(self):
        snap = snapshot_with(cyclones=[STRONG_TC], rivers=[straight_river()])
        freqs = class_frequencies(make_labels(snap))
        np.testing.assert_allclose(freqs.sum(), 1.0)
        assert freqs[CLASS_BG] > 0.8

    def test_background_dominates_like_paper(self):
        # The paper's imbalance: ~98.2% BG, AR ~1.7%, TC smallest.
        synth = SnapshotSynthesizer(GRID)
        freqs = np.zeros(3)
        n = 4
        for seed in range(n):
            freqs += class_frequencies(make_labels(synth.generate(seed)))
        freqs /= n
        assert freqs[CLASS_BG] > 0.95
        assert freqs[CLASS_TC] < freqs[CLASS_AR] < 0.05
