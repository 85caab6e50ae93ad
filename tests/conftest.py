import tempfile

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.config import RunConfig
from mvreport.data import Study, load_manifest
from mvreport.encoders import TextFeatures
from mvreport.rng import Rng
from mvreport.synthetic import build_vocabulary, generate_records, write_corpus
from mvreport.text import PAD_ID, fallback_serialize


def tiny_config(**overrides):
    """Small dims that keep forward passes and gradient checks fast."""
    values = dict(
        seed=0,
        image_size=8,
        d1=8,
        d=4,
        n_b=2,
        memory_rows=2,
        bridge_blocks=1,
        text_layers=1,
        dec_layers=1,
        ffn_mult=1,
        k_t=8,
        max_tokens=10,
        batch_size=4,
        epochs=1,
    )
    values.update(overrides)
    config = RunConfig(**values)
    config.validate()
    return config


def synth_studies(spec):
    """The studies of a synthetic corpus in generation order, and their
    vocabulary, as the program gets them: the corpus is written to a
    temporary directory and its train, val and test manifests are read
    back in that order."""
    with tempfile.TemporaryDirectory() as corpus:
        write_corpus(generate_records(spec), corpus)
        studies = [s for split in ("train", "val", "test") for s in load_manifest(f"{corpus}/{split}.jsonl")]
    return studies, build_vocabulary(studies)


def make_study(study_id, num_views, rng, image_size=8, report="patchy opacity seen",
               indication=None, anchor_index=0):
    views = [np.asarray(rng.normal((image_size, image_size)), dtype=np.float32)
             for _ in range(num_views)]
    return Study(
        study_id=study_id,
        views=views,
        anchor_index=anchor_index,
        indication=indication,
        report=report,
        factual_serialization=fallback_serialize(report),
    )


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bytes."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def padded_indications(rows):
    """Indication features for ``bridge_forward`` from per-study [L_i, d]
    token arrays (None where a study has no indication), padded to the
    longest under a mask."""
    d = next(np.shape(r)[1] for r in rows if r is not None)
    width = max(len(r) for r in rows if r is not None)
    tokens = np.zeros((len(rows), width, d), dtype=np.float32)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        if r is not None:
            tokens[i, :len(r)] = r
            mask[i, :len(r)] = True
    return TextFeatures(tokens=ad.constant(tokens), pad_mask=mask, ids=np.where(mask, PAD_ID + 1, PAD_ID))


@pytest.fixture
def rng():
    return Rng(1234)
