"""Every shipped config, run at a reduced size, reproduces pinned outputs.

The sha256 of each CSV/JSON output is pinned, so a refactor that changes a
single draw, a chunk boundary or a printed digit of any experiment fails
here.  Sizes are cut so that each run still spans several chunks.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cluster_tails.cli import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# size fields replaced in each config before it runs
REDUCED = {
    "cluster-tails.json": {"clusters": 300_000},
    "hill.json": {"clusters": 300_000},
    "ldp-max.json": {"ldp": {"replications": 20_000, "pilot_windows": 2_000}},
    "ldp-sum.json": {"ldp": {"replications": 20_000, "pilot_windows": 2_000}},
    "leftover.json": {"leftover": {"windows": 10_000}},
    "oracle-compare.json": {"clusters": 300_000},
    "tail-ratio-hawkes-sum.json": {"clusters": 600_000},
    "tail-ratio-renewal-max.json": {"clusters": 600_000},
    "tail-ratio-tail-equivalent-mc.json": {"clusters": 600_000, "oracle": {"size": 1_100_000}},
    "tauberian.json": {"clusters": 300_000},
}

# (csv, json) sha256 of each reduced run
PINNED = {
    "cluster-tails.json": (
        "9a76c5820117b9f080d4dafb13e7d52ca1816b4567d0ddf7f3eb11336e80ec34",
        "9a58b8d704f1c9a6430dd295183d0bac4c39b8d3ad3ea140ab9f35712fc35d00",
    ),
    "hill.json": (
        "111f711890bc1f30177cb32e53678b16c8968c157849e5b0297f9683cc86af83",
        "c50e3a56c7af679b1641332c09de2f3083191eb583167e39f53649a19b733fd9",
    ),
    "ldp-max.json": (
        "af250e0a97811403213a7742fdfeca85b4eba0c56bcf459fe668791674e67380",
        "0de711f50e94dde2fe6da1481c419c7e4cce706b20394438cd95cf354b108bce",
    ),
    "ldp-sum.json": (
        "80c1997a956b4dfbd11287ceb18f61ebd18ebfe92b98d2e2bd4f354dc1664772",
        "cd951717fb557ceb127b9cd260911891237ffae6cbc079b1415d56377b6ca84d",
    ),
    "leftover.json": (
        "157178131c7f95cb9bc6bed43cc27b507845c2acf8da33fe4f4ca6ffb2fb93fe",
        "4edd45f4af24aec11831ac087208eed49d7268af7253a3a4a1268e186ee6424f",
    ),
    "oracle-compare.json": (
        "59ef0d260de7e401062b9d0fed8488b8ea657a72956b3abcf5d5732431aa928b",
        "7355956766ddb5fdb9be900460391f2e16a2100d5e51c3141c198be8c7b9629f",
    ),
    "tail-ratio-hawkes-sum.json": (
        "1a48fd0e75405f3fbe09d2b8d64e9cffacc4a7421dace7f4494b6ae170e91be9",
        "b250c630ecafa24bb5cae87b8bd27cc06247c41b167e2aae7dd738a70fb98c56",
    ),
    "tail-ratio-renewal-max.json": (
        "e43a4e8b3c0df256afbc91d47bc1b592912cdef7915725aa72abe6a5651f7cf2",
        "26edb596202b185eeb6f2b94f5e4df54bb951475b708fb74857d4be197cf0321",
    ),
    "tail-ratio-tail-equivalent-mc.json": (
        "64d7289b654fff7a9443611877d6dce958858c3789f7a269a6dbfa5f519dfaa4",
        "ca8cbd93f46d6f04a976707620c0050a71f791fbe834fa7a6ea75da632d27a01",
    ),
    "tauberian.json": (
        "46737f1596b1739509d930bfb8d90630f1d842260f6c59c8dbac1c6a54e442ff",
        "2c14924424bdef3a152cf8fbfbe4e5cd4c9c0ff4fe5ff243bfe5d539ce9b9a09",
    ),
}


def _merge(base: dict, override: dict) -> None:
    for key, value in override.items():
        if isinstance(value, dict):
            _merge(base.setdefault(key, {}), value)
        else:
            base[key] = value


def test_every_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(PINNED) == sorted(REDUCED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reduced_config_outputs_pinned(name, tmp_path):
    raw = json.loads((CONFIGS / name).read_text())
    _merge(raw, REDUCED[name])
    raw["output_dir"] = str(tmp_path)
    config = tmp_path / name
    config.write_text(json.dumps(raw))
    csv_path, json_path, _ = run(config)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path))
    assert digests == PINNED[name]
