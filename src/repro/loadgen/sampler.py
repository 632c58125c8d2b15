"""Deterministic request sampling from registered datasets.

A soak test is only debuggable if the traffic is reproducible: the same seed
must produce the same request sequence on every machine, every run.
:class:`RequestSampler` guarantees that by deriving the whole index stream
from the seed *statelessly* — ``indices(n)`` is a pure function of
``(seed, n, rows)``, not of how many requests were drawn before — and by
riding the dataset registry's own seeded generators for the feature rows.
``digest()`` condenses stream + payload bytes into one hex string so reports
can prove (and tests can assert) seed stability.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


class RequestSampler:
    """A seed-stable stream of single-request feature rows.

    Parameters
    ----------
    dataset:
        A registered dataset name (see ``repro.datasets.registry``); the
        requests are drawn from its *test* split by default, which is the
        split a deployed model would actually see.
    profile:
        Dataset size profile (``tiny`` / ``small`` / ``full``).
    split:
        ``"test"`` (default) or ``"train"``.
    seed:
        Seeds both the synthetic dataset generator and the index stream.
    models:
        Optional tenant (model-name) list for multi-tenant soaks: each
        request is additionally assigned a tenant, Zipf-distributed so the
        first names are hot and the tail is cold, the traffic shape that
        exercises a model registry's LRU residency cap.  ``None`` (default)
        leaves requests tenant-less.
    zipf_s:
        Zipf exponent for the tenant distribution; larger is more skewed
        (weight of rank ``r`` is proportional to ``r**-s``).
    """

    def __init__(
        self,
        dataset: str = "ucihar",
        profile: str = "tiny",
        split: str = "test",
        seed: int = 0,
        models: Optional[Sequence[str]] = None,
        zipf_s: float = 1.1,
    ):
        if split not in ("test", "train"):
            raise ValueError(f"split must be 'test' or 'train', got {split!r}")
        from repro.datasets.registry import get_dataset

        data = get_dataset(dataset, profile=profile, seed=seed)
        features = data.test_features if split == "test" else data.train_features
        self.dataset = data.name
        self.profile = profile
        self.split = split
        self.seed = int(seed)
        self._init_models(models, zipf_s)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.train_features = np.ascontiguousarray(
            data.train_features, dtype=np.float64
        )
        self.train_labels = np.asarray(data.train_labels)

    @classmethod
    def from_arrays(
        cls,
        features: np.ndarray,
        seed: int = 0,
        models: Optional[Sequence[str]] = None,
        zipf_s: float = 1.1,
    ) -> "RequestSampler":
        """Build a sampler over explicit feature rows (tests, custom corpora)."""
        sampler = cls.__new__(cls)
        sampler.dataset = "arrays"
        sampler.profile = "custom"
        sampler.split = "custom"
        sampler.seed = int(seed)
        sampler._init_models(models, zipf_s)
        sampler.features = np.ascontiguousarray(
            np.atleast_2d(features), dtype=np.float64
        )
        sampler.train_features = sampler.features
        sampler.train_labels = np.zeros(len(sampler.features), dtype=np.int64)
        return sampler

    def _init_models(
        self, models: Optional[Sequence[str]], zipf_s: float
    ) -> None:
        if models is not None and not models:
            raise ValueError("models must be a non-empty sequence or None")
        if zipf_s <= 0:
            raise ValueError(f"zipf_s must be > 0, got {zipf_s}")
        self.models: Optional[List[str]] = (
            None if models is None else [str(name) for name in models]
        )
        self.zipf_s = float(zipf_s)

    # ----------------------------------------------------------------- stream
    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    def indices(self, num_requests: int) -> np.ndarray:
        """The first *num_requests* sampled row indices (pure in the seed)."""
        if num_requests < 0:
            raise ValueError(f"num_requests must be >= 0, got {num_requests}")
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, self.features.shape[0], size=int(num_requests))

    def stream(self, num_requests: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(request_index, feature_row)`` pairs, seed-stably."""
        for position, row_index in enumerate(self.indices(num_requests)):
            yield position, self.features[row_index]

    def model_indices(self, num_requests: int) -> Optional[np.ndarray]:
        """Zipf-distributed tenant index per request, pure in the seed.

        A separate generator (derived from ``seed`` but independent of the
        row stream) assigns each request a tenant rank, so adding ``models``
        to an existing soak configuration changes *which tenant* each
        request hits without perturbing *what* it sends.  ``None`` when the
        sampler has no tenant list.
        """
        if self.models is None:
            return None
        if num_requests < 0:
            raise ValueError(f"num_requests must be >= 0, got {num_requests}")
        ranks = np.arange(1, len(self.models) + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        weights /= weights.sum()
        rng = np.random.default_rng([self.seed, 0x21F])
        return rng.choice(len(self.models), size=int(num_requests), p=weights)

    def model_names(self, num_requests: int) -> Optional[List[str]]:
        """The tenant name per request (``None`` without a tenant list)."""
        indices = self.model_indices(num_requests)
        if indices is None:
            return None
        return [self.models[index] for index in indices]

    def digest(self, num_requests: Optional[int] = None) -> str:
        """Hex digest of the request stream (indices + payload bytes).

        Two samplers with the same configuration produce the same digest on
        any platform; reports embed it so a regressed or non-deterministic
        stream is caught by comparing strings.  A tenant list folds the
        per-request tenant assignment in too.
        """
        hasher = hashlib.sha256()
        hasher.update(
            f"{self.dataset}/{self.profile}/{self.split}/{self.seed}".encode()
        )
        if self.models is not None:
            hasher.update(f"|{','.join(self.models)}|{self.zipf_s}".encode())
        if num_requests is not None:
            indices = self.indices(num_requests)
            hasher.update(indices.tobytes())
            hasher.update(np.ascontiguousarray(self.features[indices]).tobytes())
            model_indices = self.model_indices(num_requests)
            if model_indices is not None:
                hasher.update(model_indices.tobytes())
        else:
            hasher.update(self.features.tobytes())
        return hasher.hexdigest()


__all__ = ["RequestSampler"]
