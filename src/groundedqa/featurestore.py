"""
Binary feature packs: per-image global descriptor (4096-d), 14x14x512 conv
map (stored 196x512), and per-region 4096-d descriptors.

File format v1, in the `binfmt` container: magic b"V7WF", u16 version 1,
image_id (u32-length-prefixed UTF-8), 4096 <f4 global feature, 196*512 <f4
conv map (row-major), u32 region count, then per region its id string and
4096 <f4. Region ids are unique. Files always carry full-scale dims;
in-memory packs may be smaller for desk-scale experiments. A pack read from
a file stays float32 in memory: its arrays are read-only views of the
file's bytes, and the model casts them to its params' dtype as it reads
them (a no-op for a float32 model). A features
directory holds one pack per image, `<image_id>.fpk` (see `pack_path`); a
run reads only the packs of the records it selects, through `PackFiles`,
which reads and checks a pack at each lookup and keeps none. A run reads
each pack once when it opens; then every pass of records, in training and
in prediction, copies its records' features and drops each pack. A record
keeps its copies, and its pack is read once, when a pass's worth of them
fit in the room of the pack (a micro model on full-scale packs).
"""

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import binfmt
from .binfmt import FormatError
from .datamodel import check_file_name

MAGIC = b"V7WF"
VERSION = 1
GLOBAL_DIM = 4096
CONV_CELLS = 196
CONV_CHANNELS = 512
PLANTED_CLASSES = 4  # a planted class code clears the blocks of this many


@dataclass
class FeaturePack:
    image_id: str
    global_feature: np.ndarray  # (global_dim,)
    conv_map: np.ndarray  # (cells, channels)
    region_features: dict = field(default_factory=dict)  # grounding_id -> (global_dim,)

    def validate(self):
        if self.global_feature.shape != (GLOBAL_DIM,):
            raise ValueError(
                f"global feature must be ({GLOBAL_DIM},), "
                f"got {self.global_feature.shape}")
        if self.conv_map.shape != (CONV_CELLS, CONV_CHANNELS):
            raise ValueError(
                f"conv map must be ({CONV_CELLS}, {CONV_CHANNELS}), "
                f"got {self.conv_map.shape}")
        for rid, feat in self.region_features.items():
            if feat.shape != (GLOBAL_DIM,):
                raise ValueError(f"region {rid}: bad shape {feat.shape}")
        for arr in [self.global_feature, self.conv_map,
                    *self.region_features.values()]:
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite features in pack {self.image_id}")


def pack_path(features_dir, image_id: str) -> str:
    """The file of an image's pack; the id must be a plain file name."""
    check_file_name(image_id, "image id")
    return os.path.join(features_dir, f"{image_id}.fpk")


class PackFiles:
    """
    Image id -> its pack, read from its file (`pack_path`) at each lookup
    and checked at each: it must hold that image and the region of every
    pointing candidate of `records` on it. Nothing is kept: a run holds
    only the packs it is using.
    """

    def __init__(self, features_dir, records):
        self.paths, self.regions = {}, {}
        for rec in records:
            self.paths[rec.image_id] = pack_path(features_dir, rec.image_id)
            self.regions.setdefault(rec.image_id, []).extend(
                (rid, rec.qa_id) for rid in (rec.answer, *rec.distractors)
                if rec.kind == "pointing")

    def __getitem__(self, image_id) -> FeaturePack:
        path = self.paths[image_id]
        pack = read_feature_pack(path)
        if pack.image_id != image_id:
            raise FormatError(f"{path}: holds the pack of image "
                              f"{pack.image_id!r}")
        for rid, qa_id in self.regions[image_id]:
            if rid not in pack.region_features:
                raise FormatError(f"{path}: no region feature for {rid!r}, "
                                  f"a candidate of record {qa_id}")
        return pack


def write_feature_pack(pack: FeaturePack, path) -> None:
    """Serialize a full-scale pack; write-then-read is the identity."""
    pack.validate()
    with binfmt.create(path, MAGIC, VERSION) as f:
        f.write(binfmt.string(pack.image_id))
        f.write(binfmt.array(pack.global_feature, "<f4"))
        f.write(binfmt.array(pack.conv_map, "<f4"))
        f.write(binfmt.u32(len(pack.region_features)))
        for rid, feat in pack.region_features.items():
            f.write(binfmt.string(rid))
            f.write(binfmt.array(feat, "<f4"))


def read_feature_pack(path) -> FeaturePack:
    """The pack in `path`, as read-only float32 views of its bytes."""
    r = binfmt.Reader(path, MAGIC, VERSION, "pack")
    image_id = r.string("image_id")
    global_feature = r.array("<f4", (GLOBAL_DIM,), "global feature")
    conv_map = r.array("<f4", (CONV_CELLS, CONV_CHANNELS), "conv map")
    regions = {}
    for _ in range(r.u32("region count")):
        rid = r.string("region id")
        if rid in regions:
            raise FormatError(f"pack {image_id}: duplicate region id {rid!r}")
        regions[rid] = r.array("<f4", (GLOBAL_DIM,), f"region {rid}")
    r.end()
    pack = FeaturePack(image_id=image_id, global_feature=global_feature,
                       conv_map=conv_map, region_features=regions)
    pack.validate()
    return pack


def synth_feature_pack(image_id: str, seed: int, planted_signal=None,
                       region_ids=(), correct_region=None,
                       global_dim: int = GLOBAL_DIM,
                       conv_cells: int = CONV_CELLS,
                       conv_channels: int = CONV_CHANNELS) -> FeaturePack:
    """
    Deterministic pseudo-random pack. With planted_signal set to a class
    index, a leading block of the global feature carries a strong one-hot
    class code, and the correct region (if named) carries a marker block the
    distractor regions lack, so the label is linearly recoverable.
    """
    # crc32, unlike hash(), gives an id the same seed in every process
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(image_id.encode())]))
    global_feature = rng.normal(0.0, 1.0, size=global_dim)
    conv_map = rng.normal(0.0, 1.0, size=(conv_cells, conv_channels))
    block = 2  # scalars per class in the planted code
    if planted_signal is not None:
        lo = planted_signal * block
        global_feature[:PLANTED_CLASSES * block] = 0.0
        global_feature[lo:lo + block] = 5.0
    regions = {}
    for rid in region_ids:
        feat = rng.normal(0.0, 1.0, size=global_dim)
        feat[:2 * block] = 0.0
        if planted_signal is not None:
            marker = slice(0, block) if rid == correct_region \
                else slice(block, 2 * block)
            feat[marker] = 5.0
        regions[rid] = feat
    return FeaturePack(image_id=image_id, global_feature=global_feature,
                       conv_map=conv_map, region_features=regions)
