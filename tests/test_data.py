"""Dataset container, CSV round trips, splits, and the synthetic benchmark."""

import numpy as np
import pytest

from hydent.data import (
    CLUSTER_CENTERS,
    Dataset,
    SplitSpec,
    UNLABELED,
    load_csv,
    save_csv,
    split,
    synth_noisy_gaussian,
)


def make_dataset():
    features = np.array([[0.0, 0.0], [1.0, 0.5], [2.5, 2.5], [3.0, 2.0]])
    labels = np.array([0, UNLABELED, 1, 1])
    return Dataset(features, labels, 2, ("a", "b"))


def test_dataset_index_helpers():
    ds = make_dataset()
    assert ds.n == 4 and ds.dim == 2


def test_dataset_rejects_bad_label():
    features = np.zeros((2, 2))
    with pytest.raises(ValueError):
        Dataset(features, np.array([0, 5]), 2, ("a", "b"))


def test_csv_round_trip_exact(tmp_path):
    # repr() serialization must survive a round trip bit for bit.
    rng = np.random.default_rng(11)
    features = rng.normal(size=(20, 3))
    labels = rng.integers(-1, 3, size=20)
    labels[:3] = [0, 1, 2]  # make sure every class appears
    names = tuple("c%d" % c for c in range(3))
    ds = Dataset(features, labels, 3, names)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.features, features)
    np.testing.assert_array_equal(back.labels, labels)
    assert back.class_count == 3


def test_csv_round_trip_with_header(tmp_path):
    ds = make_dataset()
    path = tmp_path / "head.csv"
    save_csv(ds, path, header=True)
    first = path.read_text().splitlines()[0]
    assert not first.lstrip("-").replace(",", "").replace(".", "").isdigit()
    back = load_csv(path, header=True)
    assert back.n == ds.n


def test_load_csv_question_mark_means_unlabeled(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("0.0,0.0,a\n1.0,1.0,?\n2.0,2.0,b\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.labels, [0, UNLABELED, 1])
    assert ds.class_names == ("a", "b")


def test_load_csv_class_order_is_first_appearance(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text("0,0,zebra\n1,1,ant\n2,2,zebra\n")
    ds = load_csv(path)
    assert ds.class_names == ("zebra", "ant")
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])


def test_load_csv_reports_bad_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,a\n1,oops,b\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)


def test_load_csv_needs_two_classes(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0,0,a\n1,1,a\n2,2,?\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_split_counts_and_partition():
    ds = synth_noisy_gaussian(30, 1.0, seed=4)
    labeled, unlabeled = split(ds, SplitSpec(3, seed=9))
    assert labeled.size == 6  # 3 per class, 2 classes
    assert np.intersect1d(labeled, unlabeled).size == 0
    together = np.sort(np.concatenate([labeled, unlabeled]))
    np.testing.assert_array_equal(together, np.arange(ds.n))
    # every class keeps its quota
    for c in range(ds.class_count):
        assert np.sum(ds.labels[labeled] == c) == 3


def test_split_is_deterministic():
    ds = synth_noisy_gaussian(25, 0.5, seed=1)
    a, _ = split(ds, SplitSpec(2, seed=7))
    b, _ = split(ds, SplitSpec(2, seed=7))
    np.testing.assert_array_equal(a, b)
    c, _ = split(ds, SplitSpec(2, seed=8))
    assert not np.array_equal(a, c)


def test_split_requires_fully_labeled_truth():
    ds = make_dataset()
    with pytest.raises(ValueError):
        split(ds, SplitSpec(1))


def test_split_quota_cannot_exceed_class_size():
    ds = synth_noisy_gaussian(5, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(ds, SplitSpec(6))


def test_synth_shapes_and_centers():
    ds = synth_noisy_gaussian(400, 0.5, seed=3)
    assert ds.n == 800 and ds.dim == 2 and ds.class_count == 2
    np.testing.assert_array_equal(ds.labels, np.repeat([0, 1], 400))
    for c, center in enumerate(CLUSTER_CENTERS):
        mean = ds.features[ds.labels == c].mean(axis=0)
        np.testing.assert_allclose(mean, center, atol=0.15)


def test_synth_noise_scales_with_covariance():
    tight = synth_noisy_gaussian(500, 0.5, seed=2)
    loose = synth_noisy_gaussian(500, 1.5, seed=2)
    spread = lambda ds: ds.features[ds.labels == 0].std(axis=0).mean()
    assert spread(loose) > 1.5 * spread(tight)


def test_synth_deterministic_per_seed():
    a = synth_noisy_gaussian(10, 1.0, seed=5)
    b = synth_noisy_gaussian(10, 1.0, seed=5)
    np.testing.assert_array_equal(a.features, b.features)
    c = synth_noisy_gaussian(10, 1.0, seed=6)
    assert not np.array_equal(a.features, c.features)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_noisy_gaussian(0, 1.0)
    with pytest.raises(ValueError):
        synth_noisy_gaussian(10, 0.0)
