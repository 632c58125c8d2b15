"""Kernel-layer benchmark shared by the CLI and the benchmark harness.

Measures the hot paths the ``repro.kernels`` refactor moved into one
place, each against the implementation the seed repository shipped:

* **encode** — the grouped-GEMM Eq. 1 accumulation behind
  ``RecordEncoder.encode`` vs the seed's per-feature gather+multiply loop
  (re-implemented here verbatim as the reference), over the whole test
  split at the encoder's usual batch;
* **encode-single** — the same two encoders one row per call, the shape a
  server sees under light load;
* **encode-ngram** — the vectorised rolled-window kernel behind
  ``NGramEncoder.encode`` vs the seed's per-window Python loop;
* **predict** — batched packed XOR+popcount classification vs the dense
  int64 dot-product rule, from the same encoded queries (the packed side
  pays for its own bit-packing, so the speedup is end-to-end honest);
* **train-epoch** — one BNN training epoch under the float32 dtype policy
  vs the seed's forced-float64 behaviour.

Every section reports its wall time, a rate, and the speedup; the result
dictionary is JSON-ready.  The acceptance bar from the kernels issue —
packed batch predict >= 5x dense at D=4000, fused encode >= 2x the seed
encoder — is checked by ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.classifiers.baseline import BaselineHDC
from repro.core.bnn_model import BNNTrainer, SingleLayerBNN
from repro.core.configs import DEFAULT_CONFIG
from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import NGramEncoder, RecordEncoder
from repro.hdc.hypervector import dot_similarity
from repro.kernels.dispatch import use_float_dtype
from repro.kernels.packed import pack_bits


def _best_time(run, repeats: int = 3) -> float:
    """Best-of-*repeats* wall seconds for callable *run*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


# ------------------------------------------------------- seed reference paths
class SeedRecordEncoder(RecordEncoder):
    """A :class:`RecordEncoder` that accumulates with the seed per-feature loop.

    Same item memories, quantiser and RNG use as ``RecordEncoder`` for the
    same seed, so it encodes bit-identically; it is the naive dense baseline
    the kernel and serving benchmarks measure against.
    """

    def _accumulate(self, levels: np.ndarray) -> np.ndarray:
        """The seed ``RecordEncoder._accumulate``: one vectorised gather +
        multiply per feature (the dense Eq. 1 loop)."""
        positions = self.position_memory.vectors.astype(np.int32)
        level_vectors = self.level_memory.vectors.astype(np.int32)
        batch, num_features = levels.shape
        accumulated = np.zeros((batch, self.dimension), dtype=np.int32)
        for feature_index in range(num_features):
            value_vectors = level_vectors[levels[:, feature_index]]
            accumulated += positions[feature_index] * value_vectors
        return accumulated


def _seed_ngram_accumulate(encoder: NGramEncoder, levels: np.ndarray) -> np.ndarray:
    """The seed repository's ``NGramEncoder._accumulate``: a Python loop over
    binding windows."""
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    batch, num_features = levels.shape
    permuted_codebooks = [
        np.roll(level_vectors, offset, axis=1) for offset in range(encoder.ngram)
    ]
    accumulated = np.zeros((batch, encoder.dimension), dtype=np.int32)
    for start in range(num_features - encoder.ngram + 1):
        gram = permuted_codebooks[0][levels[:, start]].copy()
        for offset in range(1, encoder.ngram):
            gram *= permuted_codebooks[offset][levels[:, start + offset]]
        accumulated += gram
    return accumulated


# ------------------------------------------------------------------ benchmark
def run_kernel_benchmark(
    dimension: int = 4000,
    num_features: int = 64,
    num_levels: int = 32,
    num_classes: int = 10,
    num_samples: int = 512,
    ngram: int = 3,
    seed: int = 0,
    repeats: int = 3,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark the kernel layer against the seed implementations.

    ``quick=True`` shrinks every size for CI smoke runs (a couple of seconds
    end to end); the defaults match the acceptance setting ``D=4000``.
    """
    if quick:
        dimension = min(dimension, 1024)
        num_samples = min(num_samples, 128)
        repeats = 1

    train_features, train_labels, test_features, _ = make_gaussian_classes(
        num_classes=num_classes,
        num_features=num_features,
        train_size=max(20 * num_classes, 100),
        test_size=num_samples,
        class_sep=2.5,
        seed=seed,
    )

    results: Dict[str, object] = {
        "config": {
            "dimension": dimension,
            "num_features": num_features,
            "num_levels": num_levels,
            "num_classes": num_classes,
            "num_samples": num_samples,
            "ngram": ngram,
            "seed": seed,
            "quick": quick,
        }
    }

    # ---- encode: grouped-GEMM kernel vs seed per-feature loop -------------
    encoder = RecordEncoder(
        dimension=dimension, num_levels=num_levels, tie_break="positive", seed=seed
    )
    encoder.fit(train_features)
    seed_encoder = SeedRecordEncoder(
        dimension=dimension, num_levels=num_levels, tie_break="positive", seed=seed
    )
    seed_encoder.fit(train_features)
    fused_out = encoder.encode(test_features)
    assert np.array_equal(
        fused_out, seed_encoder.encode(test_features)
    ), "fused encode diverged from seed"
    fused_time = _best_time(lambda: encoder.encode(test_features), repeats)
    seed_time = _best_time(lambda: seed_encoder.encode(test_features), repeats)
    results["encode"] = {
        "seed_seconds": seed_time,
        "fused_seconds": fused_time,
        "fused_samples_per_s": num_samples / fused_time,
        "speedup": seed_time / fused_time,
    }

    # ---- encode-single: the same encoders at batch 1 ------------------------
    single_rows = test_features[: min(num_samples, 64)]
    for row in single_rows:
        assert np.array_equal(
            encoder.encode(row[None]), seed_encoder.encode(row[None])
        ), "fused single-row encode diverged from seed"

    def encode_rows(target):
        for row in single_rows:
            target.encode(row[None])

    single_fused = _best_time(lambda: encode_rows(encoder), repeats)
    single_seed = _best_time(lambda: encode_rows(seed_encoder), repeats)
    results["encode_single"] = {
        "rows": len(single_rows),
        "seed_seconds": single_seed,
        "fused_seconds": single_fused,
        "fused_us_per_row": single_fused / len(single_rows) * 1e6,
        "speedup": single_seed / single_fused,
    }

    # ---- encode-ngram: rolled-window kernel vs seed window loop ------------
    ngram_encoder = NGramEncoder(
        dimension=dimension,
        num_levels=num_levels,
        ngram=ngram,
        tie_break="positive",
        seed=seed,
    )
    ngram_encoder.fit(train_features)
    ngram_levels = ngram_encoder._quantizer.transform(test_features)
    assert np.array_equal(
        ngram_encoder._accumulate(ngram_levels),
        _seed_ngram_accumulate(ngram_encoder, ngram_levels),
    ), "vectorised n-gram accumulation diverged from seed"
    ngram_fused = _best_time(lambda: ngram_encoder._accumulate(ngram_levels), repeats)
    ngram_seed = _best_time(
        lambda: _seed_ngram_accumulate(ngram_encoder, ngram_levels), repeats
    )
    results["encode_ngram"] = {
        "seed_seconds": ngram_seed,
        "fused_seconds": ngram_fused,
        "speedup": ngram_seed / ngram_fused,
    }

    # ---- predict: packed XOR+popcount vs dense int64 dot -------------------
    classifier = BaselineHDC(seed=seed)
    classifier.fit(encoder.encode(train_features), train_labels)
    queries = fused_out  # the encoded test split
    packed_classes = classifier.packed_class_hypervectors()

    def dense_predict():
        return np.argmax(dot_similarity(queries, classifier.class_hypervectors_), axis=1)

    def packed_predict():
        packed_queries = pack_bits(queries > 0, dimension)
        scores = packed_queries.dot_scores(packed_classes)
        return np.argmax(scores, axis=1)

    assert np.array_equal(dense_predict(), packed_predict())
    dense_time = _best_time(dense_predict, repeats)
    packed_time = _best_time(packed_predict, repeats)
    results["predict"] = {
        "dense_seconds": dense_time,
        "packed_seconds": packed_time,
        "packed_samples_per_s": num_samples / packed_time,
        "speedup": dense_time / packed_time,
    }

    # ---- train-epoch: float32 policy vs forced float64 ---------------------
    train_encoded = encoder.encode(train_features)
    config = DEFAULT_CONFIG.with_overrides(
        epochs=1, batch_size=64, validation_fraction=0.0
    )

    def one_epoch(dtype):
        with use_float_dtype(dtype):
            model = SingleLayerBNN(
                dimension=dimension,
                num_classes=num_classes,
                dropout_rate=config.dropout_rate,
                seed=seed,
            )
            trainer = BNNTrainer(model, config, seed=seed)
            trainer.train(train_encoded, train_labels)

    time_f32 = _best_time(lambda: one_epoch("float32"), repeats)
    time_f64 = _best_time(lambda: one_epoch("float64"), repeats)
    results["train_epoch"] = {
        "float64_seconds": time_f64,
        "float32_seconds": time_f32,
        "speedup": time_f64 / time_f32,
    }

    return results


def format_report(results: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_kernel_benchmark` output."""
    config = results["config"]
    lines = [
        f"kernel benchmark  D={config['dimension']}  "
        f"N={config['num_features']}  samples={config['num_samples']}",
        "",
        f"{'section':<14} {'seed/dense (s)':>15} {'kernels (s)':>12} {'speedup':>8}",
    ]
    rows = (
        ("encode", "seed_seconds", "fused_seconds"),
        ("encode_single", "seed_seconds", "fused_seconds"),
        ("encode_ngram", "seed_seconds", "fused_seconds"),
        ("predict", "dense_seconds", "packed_seconds"),
        ("train_epoch", "float64_seconds", "float32_seconds"),
    )
    for section, before_key, after_key in rows:
        entry = results[section]
        lines.append(
            f"{section:<14} {entry[before_key]:>15.5f} "
            f"{entry[after_key]:>12.5f} {entry['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


__all__ = ["SeedRecordEncoder", "format_report", "run_kernel_benchmark"]
