import tracemalloc

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.data import Batch, stack_views
from mvreport.encoders import (
    conv_channels,
    encode_text,
    encode_views,
    init_stage1_params,
    masked_mean,
    per_view_globals,
    project_and_pool,
)
from mvreport.errors import DataError
from mvreport.rng import Rng
from mvreport.text import PAD_ID, Vocabulary

from conftest import make_study, tiny_config
from conv_reference import reference_encode_views
from gradcheck import check_grads, to_f64_params

F64 = np.float64


@pytest.fixture
def setup():
    config = tiny_config()
    vocab = Vocabulary.build([["patchy", "opacity", "seen", "heart", "enlarged"]])
    params = init_stage1_params(config, len(vocab), Rng(0))
    return config, vocab, params


def test_conv_channels_scale_with_width():
    assert conv_channels(tiny_config(d1=64)) == [1, 16, 32, 64]
    assert conv_channels(tiny_config()) == [1, 2, 4, 8]


def test_encode_views_shape(setup):
    config, _, params = setup
    views = np.asarray(Rng(1).normal((6, 1, 8, 8)), dtype=np.float32)
    feats = encode_views(views, params, config)
    assert feats.per_view.shape == (6, config.p, config.d1)


def test_encode_views_deterministic_per_image(setup):
    config, _, params = setup
    one = np.asarray(Rng(2).normal((1, 1, 8, 8)), dtype=np.float32)
    views = np.concatenate([one, one], axis=0)
    feats = encode_views(views, params, config)
    np.testing.assert_array_equal(feats.per_view.data[0], feats.per_view.data[1])


def test_encode_views_input_validation(setup):
    config, _, params = setup
    with pytest.raises(DataError):
        encode_views(np.zeros((2, 8, 8), dtype=np.float32), params, config)
    with pytest.raises(DataError):
        encode_views(np.zeros((2, 1, 16, 16), dtype=np.float32), params, config)
    with pytest.raises(DataError):
        encode_views(np.zeros((2, 3, 8, 8), dtype=np.float32), params, config)


def test_encode_views_gradient(setup):
    config, _, params = setup
    params64 = to_f64_params(params)
    views = np.asarray(Rng(3).normal((2, 1, 8, 8)), dtype=np.float32)
    w = ad.constant(Rng(4).normal((2, config.p, config.d1)), dtype=F64)
    conv_params = [params64[f"stage1.vis.conv{i}.{n}"] for i in range(3) for n in ("w", "b")]

    def loss_fn():
        return ad.tsum(encode_views(views, params64, config).per_view * w)

    check_grads(loss_fn, conv_params, rtol=1e-3, atol=1e-6)


def test_encode_views_graph_holds_only_columns_and_post_relu_outputs():
    """After a grad-recording forward on 64 views at image 32, d1 64, the
    graph holds each block's im2col columns (4.13 MB in all) and its
    post-ReLU output (1.84 MB), plus 64 KiB for everything else. A second
    array per block before the ReLU would add another 1.84 MB."""
    config = tiny_config(image_size=32, d1=64)
    params = init_stage1_params(config, 8, Rng(7))
    views = np.asarray(Rng(8).normal((64, 1, 32, 32)), dtype=np.float32)
    channels, side = conv_channels(config), config.image_size
    columns = outputs = 0
    for cin, cout in zip(channels, channels[1:]):
        side //= 2
        rows = len(views) * side * side
        columns += rows * 9 * cin * 4
        outputs += rows * cout * 4
    assert (columns, outputs) == (4_128_768, 1_835_008)
    tracemalloc.start()
    try:
        feats = encode_views(views, params, config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert feats.per_view._backward_fn is not None
    assert columns + outputs <= held <= columns + outputs + 64 * 1024


@pytest.mark.parametrize("views_per_study", [[1], [2], [3], [1, 3, 2]])
def test_encode_views_matches_nchw_reference(setup, views_per_study):
    """Channels-last encode_views equals the NCHW reference encoder on
    studies of 1-3 views: per_view features and every conv gradient, in
    float64."""
    config, _, params = setup
    rng = Rng(5)
    studies = [make_study(f"s{i}", m, rng, image_size=config.image_size) for i, m in enumerate(views_per_study)]
    views = stack_views(Batch(studies=studies))
    conv_names = [f"stage1.vis.conv{i}.{n}" for i in range(3) for n in ("w", "b")]
    results = []
    for encode in (lambda p: encode_views(views, p, config).per_view,
                   lambda p: reference_encode_views(views, p)):
        params64 = to_f64_params({name: params[name] for name in conv_names})
        per_view = encode(params64)
        upstream = ad.constant(Rng(6).normal(per_view.shape), dtype=F64)
        ad.tsum(per_view * upstream).backward()
        results.append((per_view.data, [params64[name].grad for name in conv_names]))
    (feats, grads), (ref_feats, ref_grads) = results
    assert feats.shape == (len(views), config.p, config.d1)
    np.testing.assert_allclose(feats, ref_feats, rtol=0, atol=1e-10)
    for name, g, ref_g in zip(conv_names, grads, ref_grads):
        np.testing.assert_allclose(g, ref_g, rtol=0, atol=1e-10, err_msg=name)


def test_encode_text_empty_tokens(setup):
    config, vocab, params = setup
    feats = encode_text([[]], params, vocab, config)
    assert feats.ids.shape == (1, 2)
    assert list(feats.ids[0]) == [1, 2]  # BOS, EOS
    assert feats.pad_mask.all()
    assert np.isfinite(feats.tokens.data).all()


def test_encode_text_batch_permutation(setup):
    config, vocab, params = setup
    seqs = [["patchy", "opacity"], ["heart", "enlarged", "seen"], []]
    fwd = encode_text(seqs, params, vocab, config)
    rev = encode_text(seqs[::-1], params, vocab, config)
    np.testing.assert_allclose(fwd.tokens.data[0], rev.tokens.data[2], atol=1e-6)
    np.testing.assert_allclose(fwd.tokens.data[2], rev.tokens.data[0], atol=1e-6)


def test_encode_text_identical_rows(setup):
    config, vocab, params = setup
    feats = encode_text([["patchy", "seen"], ["patchy", "seen"]], params, vocab, config)
    np.testing.assert_array_equal(feats.tokens.data[0], feats.tokens.data[1])


def test_encode_text_truncates_to_k_t(setup):
    config, vocab, params = setup
    feats = encode_text([["patchy"] * 50], params, vocab, config)
    assert feats.ids.shape[1] == config.k_t


def test_encode_text_ids_equal_the_padding_loop(setup):
    config, vocab, params = setup
    token_lists = [["patchy", "opacity"], [], ["heart", "unknown", "<pad>"], ["seen"] * 50]
    encoded = [vocab.encode(toks, add_bos_eos=True, max_len=config.k_t) for toks in token_lists]
    # the padding loop encode_text ran before text.pad_ids
    want = np.full((len(encoded), max(len(ids) for ids in encoded)), PAD_ID, dtype=np.int64)
    for i, ids in enumerate(encoded):
        want[i, : len(ids)] = ids
    feats = encode_text(token_lists, params, vocab, config)
    assert feats.ids.dtype == want.dtype
    np.testing.assert_array_equal(feats.ids, want)
    np.testing.assert_array_equal(feats.pad_mask, want != PAD_ID)


def test_masked_mean_matches_loop(setup):
    data = np.asarray(Rng(5).normal((3, 4, 6)), dtype=np.float32)
    mask = np.array([
        [True, True, False, False],
        [True, True, True, True],
        [True, False, False, False],
    ])
    out = masked_mean(ad.constant(data), mask).data
    for i in range(3):
        expected = data[i][mask[i]].mean(axis=0)
        np.testing.assert_allclose(out[i], expected, atol=1e-6)


def test_masked_mean_all_masked_falls_back_to_first(setup):
    data = np.asarray(Rng(6).normal((1, 3, 4)), dtype=np.float32)
    mask = np.zeros((1, 3), dtype=bool)
    out = masked_mean(ad.constant(data), mask).data
    np.testing.assert_allclose(out[0], data[0, 0], atol=1e-6)


def test_project_and_pool_unit_norm(setup):
    config, vocab, params = setup
    views = np.asarray(Rng(7).normal((2, 1, 8, 8)), dtype=np.float32)
    feats = encode_views(views, params, config)
    text = encode_text([["patchy", "opacity"], ["heart"]], params, vocab, config)
    pp = project_and_pool(feats.per_view, text, params)
    np.testing.assert_allclose(np.linalg.norm(pp.vis_global.data, axis=-1), 1.0, atol=1e-5)
    np.testing.assert_allclose(np.linalg.norm(pp.txt_global.data, axis=-1), 1.0, atol=1e-5)
    assert pp.vis.shape == (2, config.p, config.d)
    assert pp.txt.shape[2] == config.d


def test_per_view_globals_unit_norm(setup):
    config, _, params = setup
    views = np.asarray(Rng(8).normal((4, 1, 8, 8)), dtype=np.float32)
    globals_ = per_view_globals(encode_views(views, params, config))
    np.testing.assert_allclose(np.linalg.norm(globals_.data, axis=-1), 1.0, atol=1e-5)


def test_param_names_all_stage1_prefixed(setup):
    _, _, params = setup
    assert all(name.startswith("stage1.") for name in params)
