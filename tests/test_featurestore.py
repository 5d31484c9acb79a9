import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groundedqa.featurestore import (CONV_CELLS, CONV_CHANNELS, GLOBAL_DIM,
                                     FeaturePack, FormatError, pack_path,
                                     read_feature_pack, synth_feature_pack,
                                     write_feature_pack)


def _zero_pack(image_id="img0", n_regions=0):
    return FeaturePack(
        image_id=image_id,
        global_feature=np.zeros(GLOBAL_DIM),
        conv_map=np.zeros((CONV_CELLS, CONV_CHANNELS)),
        region_features={f"r{k}": np.zeros(GLOBAL_DIM)
                         for k in range(n_regions)})


def _random_pack(seed, n_regions=2):
    rng = np.random.default_rng(seed)
    # draw in float32 so the f32 file format round-trips bitwise
    f32 = lambda shape: rng.normal(size=shape).astype(np.float32) \
        .astype(np.float64)
    return FeaturePack(
        image_id=f"rand{seed}",
        global_feature=f32(GLOBAL_DIM),
        conv_map=f32((CONV_CELLS, CONV_CHANNELS)),
        region_features={f"r{k}": f32(GLOBAL_DIM) for k in range(n_regions)})


def _assert_packs_equal(a, b):
    assert a.image_id == b.image_id
    assert np.array_equal(a.global_feature, b.global_feature)
    assert np.array_equal(a.conv_map, b.conv_map)
    assert set(a.region_features) == set(b.region_features)
    for rid in a.region_features:
        assert np.array_equal(a.region_features[rid], b.region_features[rid])


class TestRoundTrip:
    def test_zero_pack(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(), path)
        _assert_packs_equal(read_feature_pack(path), _zero_pack())

    def test_random_packs_bitwise(self, tmp_path):
        for seed in range(3):
            pack = _random_pack(seed)
            path = tmp_path / f"p{seed}.fpk"
            write_feature_pack(pack, path)
            _assert_packs_equal(read_feature_pack(path), pack)

    def test_file_size_no_regions(self, tmp_path):
        pack = _zero_pack(image_id="abc")
        path = tmp_path / "p.fpk"
        write_feature_pack(pack, path)
        header = 4 + 2 + 4 + len("abc")
        payload = (GLOBAL_DIM + CONV_CELLS * CONV_CHANNELS) * 4
        region_count = 4
        assert os.path.getsize(path) == header + payload + region_count


class TestRejection:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_feature_pack(path)

    def test_truncated_mid_conv_map(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(), path)
        data = path.read_bytes()
        cut = 4 + 2 + 4 + len("img0") + GLOBAL_DIM * 4 + 1000
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError, match=rf"{cut}"):
            read_feature_pack(path)

    def test_every_header_byte_corruption_rejected(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(), path)
        clean = path.read_bytes()
        # header = magic (4) + version (2)
        for offset in range(6):
            for flip in (0x01, 0x80, 0xFF):
                data = bytearray(clean)
                if data[offset] ^ flip == data[offset]:
                    continue
                data[offset] ^= flip
                path.write_bytes(bytes(data))
                with pytest.raises(FormatError):
                    read_feature_pack(path)


    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            read_feature_pack(path)

    def test_prefix_at_and_inside_every_field_rejected(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(n_regions=2), path)
        clean = path.read_bytes()
        region = [4, len("r0"), GLOBAL_DIM * 4]
        fields = [4, 2, 4, len("img0"), GLOBAL_DIM * 4,
                  CONV_CELLS * CONV_CHANNELS * 4, 4] + region + region
        assert sum(fields) == len(clean)
        start = 0
        for size in fields:
            for cut in (start, start + size // 2):
                path.write_bytes(clean[:cut])
                with pytest.raises(FormatError, match="truncated"):
                    read_feature_pack(path)
            start += size

    _IDS = st.text(max_size=12)  # any text, multi-byte UTF-8 included

    @settings(max_examples=40, deadline=None)
    @given(image_id=_IDS, region_ids=st.lists(_IDS, max_size=3, unique=True),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_every_strict_prefix_rejected(self, image_id, region_ids, seed,
                                          data):
        # every array in a file has a fixed shape, so the region count and
        # the lengths of the ids are what vary the layout
        rng = np.random.default_rng(seed)
        pack = FeaturePack(
            image_id=image_id,
            global_feature=rng.normal(size=GLOBAL_DIM),
            conv_map=rng.normal(size=(CONV_CELLS, CONV_CHANNELS)),
            region_features={rid: rng.normal(size=GLOBAL_DIM)
                             for rid in region_ids})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.fpk")
            write_feature_pack(pack, path)
            size = os.path.getsize(path)
            cut = data.draw(st.integers(0, size - 1), label="cut")
            os.truncate(path, cut)
            with pytest.raises(FormatError, match="truncated"):
                read_feature_pack(path)

    def test_duplicate_region_id_rejected(self, tmp_path):
        path = tmp_path / "p.fpk"
        write_feature_pack(_zero_pack(n_regions=2), path)
        data = path.read_bytes()
        assert data.count(b"r1") == 1  # zero features hold no such bytes
        path.write_bytes(data.replace(b"r1", b"r0"))
        with pytest.raises(FormatError, match="duplicate region id 'r0'"):
            read_feature_pack(path)


class TestPackPath:
    def test_named_by_image_id(self):
        assert pack_path("feats", "img 7.b") == os.path.join("feats",
                                                            "img 7.b.fpk")

    @pytest.mark.parametrize("image_id",
                             ["", ".", "..", "../x", "a/b", "a\\b", "a\0b"])
    def test_not_a_plain_file_name(self, image_id):
        with pytest.raises(ValueError, match="not a plain file name"):
            pack_path("feats", image_id)


class TestSynth:
    def test_deterministic(self):
        a = synth_feature_pack("img7", seed=3, global_dim=16, conv_cells=4,
                               conv_channels=6)
        b = synth_feature_pack("img7", seed=3, global_dim=16, conv_cells=4,
                               conv_channels=6)
        assert np.array_equal(a.global_feature, b.global_feature)
        assert np.array_equal(a.conv_map, b.conv_map)

    def test_seeds_differ(self):
        a = synth_feature_pack("img7", seed=3, global_dim=16, conv_cells=4,
                               conv_channels=6)
        b = synth_feature_pack("img7", seed=4, global_dim=16, conv_cells=4,
                               conv_channels=6)
        assert not np.array_equal(a.global_feature, b.global_feature)

    def test_planted_signal_linearly_separable(self):
        # least-squares one-vs-all probe on the planted block
        X, y = [], []
        for i in range(64):
            cls = i % 4
            pack = synth_feature_pack(f"img{i}", seed=9, planted_signal=cls,
                                      global_dim=16, conv_cells=4,
                                      conv_channels=6)
            X.append(pack.global_feature)
            y.append(cls)
        X = np.array(X)
        onehot = np.eye(4)[y]
        W, *_ = np.linalg.lstsq(X, onehot, rcond=None)
        pred = (X @ W).argmax(axis=1)
        assert np.array_equal(pred, y)

    def test_region_marker(self):
        pack = synth_feature_pack(
            "img1", seed=5, planted_signal=1,
            region_ids=["a", "b", "c"], correct_region="b",
            global_dim=16, conv_cells=4, conv_channels=6)
        assert np.all(pack.region_features["b"][:2] == 5.0)
        for rid in ("a", "c"):
            assert np.all(pack.region_features[rid][:2] == 0.0)
            assert np.all(pack.region_features[rid][2:4] == 5.0)
