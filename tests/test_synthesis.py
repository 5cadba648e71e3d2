import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvos import features, nn, synthesis
from lsvos.errors import InputError, NotReadyError, NumericalFailure
from lsvos.features import FeatureDataset, FeatureQueue, Label, make_records
from lsvos.models import ModelBundle
from lsvos.scoring import fit_gaussian_model
from lsvos.synthesis import NoiseSpec
from oracles import vos_reference


def _bundle(dim=3, num_classes=2, seed=0):
    return ModelBundle.build(
        dim, num_classes, np.random.default_rng(seed),
        latent_dim=4, encoder_hidden=(8,), decoder_hidden=(8,),
        uncertainty_hidden=(8,), classifier_hidden=(8,),
    )


def _reconstruct(bundle, u, cids):
    """d(e(concat(u, one_hot))): the plain auto-encoder round trip."""
    x = features.append_one_hot(u, cids, bundle.num_classes)
    return nn.forward(bundle.decoder, nn.forward(bundle.encoder, x))


def _filled_queue(dim=2, num_classes=2, per_class=400, seed=0, scale=1.0):
    q = FeatureQueue(dim=dim, num_classes=num_classes, capacity_per_class=per_class)
    rng = np.random.default_rng(seed)
    for cid in range(num_classes):
        center = np.full(dim, 3.0 * cid)
        q.push_many(center + scale * rng.normal(size=(per_class, dim)),
                    np.full(per_class, cid))
    return q


class TestSynthBatch:
    def test_non_finite_rows_rejected(self):
        with pytest.raises(NumericalFailure):
            synthesis.SynthBatch(np.array([[0.0, np.nan]]))

    def test_class_ids_must_cover_every_row(self):
        with pytest.raises(InputError):
            synthesis.SynthBatch(np.zeros((3, 2)), class_ids=[0, 1])


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec()
        assert spec.alpha == 0.25 and spec.beta == 1.0

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(InputError):
            NoiseSpec(alpha=-0.1)
        with pytest.raises(InputError):
            NoiseSpec(beta=-1.0)
        with pytest.raises(InputError):
            NoiseSpec(alpha=np.inf)

    def test_components_within_band(self):
        rng = np.random.default_rng(1)
        noise = synthesis.latent_noise((1000, 16), NoiseSpec(0.25, 1.0), rng)
        assert noise.min() >= 0.25
        assert noise.max() <= 1.25

    def test_band_scales_with_beta(self):
        rng = np.random.default_rng(2)
        noise = synthesis.latent_noise((1000, 8), NoiseSpec(0.5, 4.0), rng)
        assert noise.min() >= 2.0
        assert noise.max() <= 6.0

    def test_mean_norm_increases_with_beta(self):
        norms = []
        for beta in (0.1, 1.0, 10.0):
            rng = np.random.default_rng(3)
            noise = synthesis.latent_noise((1000, 32), NoiseSpec(0.25, beta), rng)
            norms.append(np.linalg.norm(noise, axis=1).mean())
        assert norms[0] < norms[1] < norms[2]

    def test_mean_norm_matches_theory(self):
        # E||o|| ~ beta * sqrt(D' * E(alpha + U)^2), E(alpha+U)^2 = a^2 + a + 1/3
        alpha, beta, dim = 0.25, 2.0, 64
        rng = np.random.default_rng(4)
        noise = synthesis.latent_noise((4000, dim), NoiseSpec(alpha, beta), rng)
        expected = beta * np.sqrt(dim * (alpha**2 + alpha + 1.0 / 3.0))
        assert np.linalg.norm(noise, axis=1).mean() == pytest.approx(expected, rel=0.02)


class TestLsvosSynthesize:
    def test_beta_zero_is_bitwise_reconstruction(self):
        bundle = _bundle()
        rng = np.random.default_rng(5)
        u = rng.normal(size=(10, 3))
        cids = rng.integers(0, 2, size=10)
        batch = synthesis.lsvos_synthesize(
            bundle, u, cids, NoiseSpec(alpha=0.25, beta=0.0), np.random.default_rng(6)
        )
        assert np.array_equal(batch.vectors, _reconstruct(bundle, u, cids))

    def test_output_shape_and_class_ids(self):
        bundle = _bundle()
        rng = np.random.default_rng(7)
        cids = rng.integers(0, 2, size=6)
        batch = synthesis.lsvos_synthesize(bundle, rng.normal(size=(6, 3)), cids, NoiseSpec(), rng)
        assert batch.vectors.shape == (6, 3)
        np.testing.assert_array_equal(batch.class_ids, cids)

    def test_deterministic_under_fixed_seed(self):
        bundle = _bundle()
        u = np.random.default_rng(8).normal(size=(5, 3))
        cids = [0, 1, 0, 1, 0]
        a = synthesis.lsvos_synthesize(bundle, u, cids, NoiseSpec(), np.random.default_rng(9))
        b = synthesis.lsvos_synthesize(bundle, u, cids, NoiseSpec(), np.random.default_rng(9))
        assert np.array_equal(a.vectors, b.vectors)

    def test_noise_pushes_codes_off_manifold(self):
        bundle = _bundle()
        rng = np.random.default_rng(10)
        u = rng.normal(size=(4, 3))
        cids = [0, 0, 1, 1]
        batch = synthesis.lsvos_synthesize(bundle, u, cids, NoiseSpec(0.25, 5.0), rng)
        assert not np.allclose(batch.vectors, _reconstruct(bundle, u, cids))

    def test_misaligned_classes_rejected(self):
        bundle = _bundle()
        with pytest.raises(InputError):
            synthesis.lsvos_synthesize(
                bundle, np.zeros((3, 3)), [0, 1], NoiseSpec(), np.random.default_rng(0)
            )


class TestVosSynthesize:
    def test_row_count_and_class_blocks(self):
        q = _filled_queue(num_classes=3)
        batch = synthesis.vos_synthesize(q, 50, None, 400, np.random.default_rng(1))
        assert batch.vectors.shape == (150, 2)
        np.testing.assert_array_equal(
            batch.class_ids, np.repeat(np.arange(3), 50)
        )

    def test_kept_are_lowest_likelihood_prefix(self):
        # same rng stream: keeping everything sorts candidates by rising
        # likelihood, and a smaller keep must be exactly its prefix
        q = _filled_queue()
        small = synthesis.vos_synthesize(q, 10, None, 300, np.random.default_rng(2))
        full = synthesis.vos_synthesize(q, 300, None, 300, np.random.default_rng(2))
        for cid in range(2):
            kept = small.vectors[small.class_ids == cid]
            ranked = full.vectors[full.class_ids == cid]
            np.testing.assert_array_equal(kept, ranked[:10])

    def test_kept_rows_are_the_largest_distances_in_descending_order(self):
        # oracle: refit the Gaussian from the queue snapshots, redraw the
        # candidates from the same stream and rank them by d^T P d
        dim, k, n_keep, n_cand = 4, 3, 25, 500
        q = _filled_queue(dim=dim, num_classes=k, per_class=300, seed=7)
        batch = synthesis.vos_synthesize(q, n_keep, None, n_cand, np.random.default_rng(8))
        snaps = [q.snapshot(cid)[:, :dim] for cid in range(k)]
        model = fit_gaussian_model(
            np.vstack(snaps), np.repeat(np.arange(k), [len(s) for s in snaps]), k
        )
        rng = np.random.default_rng(8)
        for cid in range(k):
            cands = rng.standard_normal((n_cand, dim)) @ model.cholesky.T + model.means[cid]
            dist = np.array([d @ model.precision @ d for d in cands - model.means[cid]])
            kept = batch.vectors[batch.class_ids == cid]
            kept_dist = np.array([d @ model.precision @ d for d in kept - model.means[cid]])
            for row in kept:
                assert np.any(np.all(cands == row, axis=1))
            assert np.all(np.diff(kept_dist) <= 1e-9 * kept_dist[:-1])
            np.testing.assert_allclose(
                kept_dist, np.sort(dist)[::-1][:n_keep], rtol=1e-9
            )

    def test_one_class_of_candidates_is_alive_at_a_time(self):
        # one candidate block z, refilled by every class, plus small ranked,
        # mapped and kept rows: no class allocates a block of its own
        dim, k, n_cand = 64, 3, 10_000
        q = _filled_queue(dim=dim, num_classes=k, per_class=500)
        tracemalloc.start()
        try:
            synthesis.vos_synthesize(q, 512, None, n_cand, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n_cand * dim * 8

    @staticmethod
    def _assert_matches_reference(q, n_keep, quantile, n_cand, seed):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = synthesis.vos_synthesize(q, n_keep, quantile, n_cand, rng_new)
        vectors, class_ids = vos_reference(q, n_keep, n_cand, rng_ref)
        assert batch.vectors.shape == vectors.shape
        assert batch.vectors.tobytes() == vectors.tobytes()
        np.testing.assert_array_equal(batch.class_ids, class_ids)
        np.testing.assert_array_equal(rng_new.random(4), rng_ref.random(4))

    @settings(max_examples=120, deadline=None)
    @given(
        dim=st.integers(1, 64),
        k=st.integers(1, 4),
        n_cand=st.integers(1, 4000),
        data=st.data(),
    )
    def test_bitwise_equal_to_mapping_every_candidate(self, dim, k, n_cand, data):
        # small products and single rows run on other BLAS kernels than the
        # blocked one, so both the map-all and the mapped-subset paths are hit
        n_keep = data.draw(st.integers(1, n_cand), label="n_per_class")
        quantile = data.draw(
            st.none()
            | st.floats(n_keep / n_cand, 1.0).filter(lambda q: n_keep <= q * n_cand),
            label="quantile",
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        q = _filled_queue(dim=dim, num_classes=k, per_class=dim + 3, seed=seed)
        self._assert_matches_reference(q, n_keep, quantile, n_cand, seed)

    @pytest.mark.parametrize(
        "dim, n_cand, n_keep",
        [
            (64, 10_000, 171),  # the desk shape
            (64, 10_000, 1),  # one kept row: gemv, if mapped alone
            (32, 3000, 20),  # a kept block small enough for a small-matrix kernel
            (58, 13, 13),  # products small enough for it even over
            (46, 22, 13),  # every candidate, which then go in drawn order
            (51, 6, 3),
            (2, 2, 1),  # one kept row of two
        ],
    )
    def test_bitwise_equal_to_mapping_every_candidate_at_fixed_shapes(
        self, dim, n_cand, n_keep
    ):
        q = _filled_queue(dim=dim, num_classes=3, per_class=dim + 100, seed=3)
        self._assert_matches_reference(q, n_keep, None, n_cand, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_top_n_is_the_head_of_a_stable_descending_argsort(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 120))
        keys = rng.integers(-2, 3, size=size).astype(np.float64)
        if seed == 0:
            keys[:] = 1.0
        for n in range(1, size + 1):
            np.testing.assert_array_equal(
                synthesis._top_n(keys, n), np.argsort(-keys, kind="stable")[:n]
            )

    def test_one_dimensional_tail_cutoff(self):
        # keeping the lowest-likelihood 5% of a unit Gaussian leaves only
        # samples beyond roughly the central 95% band (|x| > ~1.96)
        q = FeatureQueue(dim=1, num_classes=1, capacity_per_class=3000)
        rng = np.random.default_rng(3)
        q.push_many(rng.normal(size=(3000, 1)), np.zeros(3000, dtype=int))
        batch = synthesis.vos_synthesize(q, 5000, 0.05, 100_000, np.random.default_rng(4))
        kept = np.abs(batch.vectors[:, 0])
        assert kept.min() > 1.8
        assert kept.max() > 3.0

    def test_quantile_guard(self):
        q = _filled_queue()
        with pytest.raises(InputError):
            synthesis.vos_synthesize(q, 100, 0.05, 1000, np.random.default_rng(0))
        with pytest.raises(InputError):
            synthesis.vos_synthesize(q, 200, None, 100, np.random.default_rng(0))

    def test_empty_class_not_ready(self):
        q = FeatureQueue(dim=2, num_classes=2)
        q.push_many(np.zeros((1, 2)), [0])
        with pytest.raises(NotReadyError):
            synthesis.vos_synthesize(q, 5, None, 50, np.random.default_rng(0))

    def test_singular_covariance_regularized_with_warning(self):
        q = FeatureQueue(dim=2, num_classes=1, capacity_per_class=50)
        q.push_many(np.ones((30, 2)), np.zeros(30, dtype=int))
        with pytest.warns(UserWarning, match="regulariz"):
            batch = synthesis.vos_synthesize(q, 5, None, 100, np.random.default_rng(5))
        assert np.all(np.isfinite(batch.vectors))

    def test_deterministic_under_fixed_seed(self):
        q = _filled_queue()
        a = synthesis.vos_synthesize(q, 20, None, 200, np.random.default_rng(6))
        b = synthesis.vos_synthesize(q, 20, None, 200, np.random.default_rng(6))
        assert np.array_equal(a.vectors, b.vectors)


class TestLinearMix:
    def test_midpoint_example(self):
        batch = synthesis.linear_mix(
            np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]), np.random.default_rng(0)
        )
        np.testing.assert_array_equal(batch.vectors, [[1.0, 1.0]])

    def test_bits_of_the_weighted_form_at_one_half(self):
        rng = np.random.default_rng(3)
        u_id, u_fp = rng.normal(size=(50, 4)), rng.normal(size=(9, 4))
        batch = synthesis.linear_mix(u_id, u_fp, np.random.default_rng(4))
        picks = np.random.default_rng(4).integers(0, 9, size=50)
        w = 0.5
        assert batch.vectors.tobytes() == (w * u_id + (1.0 - w) * u_fp[picks]).tobytes()

    def test_row_count_follows_inliers(self):
        rng = np.random.default_rng(2)
        batch = synthesis.linear_mix(
            rng.normal(size=(7, 2)), rng.normal(size=(3, 2)), rng
        )
        assert batch.vectors.shape == (7, 2)

    def test_empty_fp_not_ready(self):
        with pytest.raises(NotReadyError):
            synthesis.linear_mix(np.ones((2, 2)), np.zeros((0, 2)), np.random.default_rng(0))


class TestRandomNoise:
    def test_clt_moments(self):
        batch = synthesis.random_noise(1000, 1000, np.random.default_rng(3))
        tol = 4.0 / np.sqrt(1_000_000)
        assert abs(batch.vectors.mean()) < tol
        assert abs(batch.vectors.var() - 1.0) < tol

    def test_fixed_seed_bit_exact(self):
        a = synthesis.random_noise(10, 4, np.random.default_rng(4))
        b = synthesis.random_noise(10, 4, np.random.default_rng(4))
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError):
            synthesis.random_noise(0, 4, np.random.default_rng(0))


class TestNoisyId:
    def test_shift_bounds_and_mean(self):
        rng = np.random.default_rng(5)
        u_id = rng.normal(size=(200, 50))
        batch = synthesis.noisy_id(u_id, rng)
        diff = batch.vectors - u_id
        assert np.all(diff >= 0.0)
        assert np.all(diff < 1.0)
        assert diff.mean() == pytest.approx(0.5, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            synthesis.noisy_id(np.zeros((0, 3)), np.random.default_rng(0))


class TestPersistence:
    def test_synth_batch_saved_as_outlier_records(self, tmp_path):
        rng = np.random.default_rng(6)
        batch = synthesis.random_noise(8, 3, rng)
        records = make_records(batch.vectors, np.zeros(8, dtype=int), Label.SYNTH_OUTLIER)
        ds = FeatureDataset(3, 2, records)
        assert ds.counts()["SYNTH_OUTLIER"] == 8
        path = tmp_path / "synth.vosf"
        features.save_features(path, ds)
        back = features.load_features(path)
        assert back.counts() == {"ID": 0, "FP": 0, "SYNTH_OUTLIER": 8}
        assert len(back.records) == 8
