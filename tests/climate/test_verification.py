"""Object-based detection verification (POD/FAR)."""
import numpy as np
import pytest

from repro.climate import MatchResult, detection_scores, match_objects


def blob(shape, y, x, r=2):
    mask = np.zeros(shape, dtype=bool)
    yy, xx = np.ogrid[: shape[0], : shape[1]]
    mask[(yy - y) ** 2 + (xx - x) ** 2 <= r * r] = True
    return mask


class TestMatchObjects:
    def test_perfect_match(self):
        truth = blob((20, 30), 10, 10)
        res = match_objects(truth, truth)
        assert res.hits == 1 and res.misses == 0 and res.false_alarms == 0
        assert res.pod == 1.0 and res.far == 0.0
        assert res.pairs[0][2] == pytest.approx(1.0)

    def test_miss(self):
        truth = blob((20, 30), 10, 10)
        pred = np.zeros((20, 30), dtype=bool)
        res = match_objects(pred, truth)
        assert res.misses == 1 and res.hits == 0
        assert res.pod == 0.0

    def test_false_alarm(self):
        pred = blob((20, 30), 5, 25)
        truth = np.zeros((20, 30), dtype=bool)
        res = match_objects(pred, truth)
        assert res.false_alarms == 1
        assert res.far == 1.0

    def test_partial_overlap_counts_as_hit(self):
        truth = blob((20, 30), 10, 10, r=3)
        pred = blob((20, 30), 11, 11, r=3)
        res = match_objects(pred, truth, min_iou=0.1)
        assert res.hits == 1
        assert 0.1 <= res.pairs[0][2] < 1.0

    def test_below_min_iou_not_matched(self):
        truth = blob((20, 30), 10, 10, r=2)
        pred = blob((20, 30), 10, 13, r=2)  # barely touching
        res = match_objects(pred, truth, min_iou=0.5)
        assert res.hits == 0
        assert res.misses == 1 and res.false_alarms == 1

    def test_one_to_one_matching(self):
        # Two predictions over one truth: only one can be the hit.
        truth = blob((30, 40), 15, 15, r=4)
        pred = blob((30, 40), 14, 14, r=3) | blob((30, 40), 17, 18, r=3)
        # Make the two predicted blobs disconnected.
        pred[15:17, 16] = False
        res = match_objects(pred, truth, min_iou=0.05)
        assert res.hits <= 1

    def test_periodic_components_matched_across_seam(self):
        truth = np.zeros((10, 20), dtype=bool)
        truth[5, :2] = truth[5, -2:] = True
        res = match_objects(truth, truth)
        assert res.hits == 1  # one wrapped object, not two

    def test_empty_both(self):
        res = match_objects(np.zeros((5, 5), bool), np.zeros((5, 5), bool))
        assert res.hits == res.misses == res.false_alarms == 0
        assert np.isnan(res.pod)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            match_objects(np.zeros((5, 5), bool), np.zeros((5, 6), bool))

    def test_invalid_min_iou(self):
        with pytest.raises(ValueError):
            match_objects(np.zeros((5, 5), bool), np.zeros((5, 5), bool),
                          min_iou=0.0)


class TestDetectionScores:
    def test_batch_accumulation(self):
        truth = np.zeros((2, 20, 30), dtype=np.int8)
        truth[0][blob((20, 30), 10, 10)] = 1
        truth[1][blob((20, 30), 5, 20)] = 1
        pred = truth.copy()
        pred[1][:] = 0  # second frame missed entirely
        res = detection_scores(pred, truth, class_id=1)
        assert res.hits == 1 and res.misses == 1
        assert res.pod == pytest.approx(0.5)

    def test_2d_input_promoted(self):
        truth = np.zeros((20, 30), dtype=np.int8)
        truth[blob((20, 30), 10, 10)] = 2
        res = detection_scores(truth, truth, class_id=2)
        assert res.hits == 1

    def test_other_classes_ignored(self):
        truth = np.zeros((20, 30), dtype=np.int8)
        truth[blob((20, 30), 10, 10)] = 2
        pred = np.zeros_like(truth)
        pred[blob((20, 30), 10, 10)] = 1  # right place, wrong class
        res = detection_scores(pred, truth, class_id=2)
        assert res.hits == 0 and res.misses == 1

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            detection_scores(np.zeros(5), np.zeros(5), class_id=1)

    def test_pod_far_from_counts(self):
        r = MatchResult(hits=2, misses=1, false_alarms=1, pairs=())
        assert r.pod == pytest.approx(2 / 3)
        assert r.far == pytest.approx(1 / 3)
