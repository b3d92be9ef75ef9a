"""Every shipped config, run at a reduced size, reproduces pinned outputs.

The sha256 of each CSV/JSON output is pinned, so a refactor that changes a
single draw, a chunk boundary or a printed digit of any experiment fails
here.  Sizes are cut so that each run still spans several chunks.

``PYTHONPATH=src python tests/test_configs.py`` prints each reduced run's
current (csv, json) sha256 beside its pin, flags the runs whose outputs
moved, and exits 1 if any did.
"""

import hashlib
import json
import sys
import tempfile
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
        "66bcc53d10276182c4c2570605577a8edd06e4c9591ba59fd46826c22a0eb777",
        "c2ede7df6120da47756ac380f83a8fa9f570027090a76ff7f0bc5fb99a3c2a06",
    ),
    "hill.json": (
        "111f711890bc1f30177cb32e53678b16c8968c157849e5b0297f9683cc86af83",
        "c50e3a56c7af679b1641332c09de2f3083191eb583167e39f53649a19b733fd9",
    ),
    "ldp-max.json": (
        "16918da84f814e59421413e0e76ed8dc1ba1f02bc33f203790281fb32ab56b86",
        "9aca5be91e9bf9df65faa9fd7bdcea1ce95a525a95d04bed8578941b7831142b",
    ),
    "ldp-sum.json": (
        "c8f8acea07bd88b14d9c3d198afe81463088aa87fae4db17131b5d5b12797f1c",
        "42861663d38ced80e4cf2810024f0b3f9c554664ea1e313ceb39c72cdc0ceaf0",
    ),
    "leftover.json": (
        "2e6c50d922722f6bdf1e76b9d0e1f597170dd3a770fed1a09c3662d417ef6954",
        "3b7e9add52a2e701b991f3b6662dedee1840c02ff13b0e7b5ee84f46d9cb4ed4",
    ),
    "oracle-compare.json": (
        "638cf6f07617ef93e4dc48e6fa77f8f8fa20fdc961a52472c63a801d7eb98109",
        "784c6c738ee6ac084d54a1f85443c0a505590ab429e15a1c5738431baf236957",
    ),
    "tail-ratio-hawkes-sum.json": (
        "1a48fd0e75405f3fbe09d2b8d64e9cffacc4a7421dace7f4494b6ae170e91be9",
        "b250c630ecafa24bb5cae87b8bd27cc06247c41b167e2aae7dd738a70fb98c56",
    ),
    "tail-ratio-renewal-max.json": (
        "2a3f474cebb7249d6ed99329a42f5b9b59959aca7d5a2fb015a1d8b6609b3b46",
        "554d70de2fb945e3dd125b52cc48140d588945a7cd444793e079214115343e89",
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


def reduced_digests(name: str, tmp_path: Path) -> tuple[str, str]:
    """The (csv, json) sha256 of the shipped config ``name`` run at its reduced size in ``tmp_path``."""
    raw = json.loads((CONFIGS / name).read_text())
    _merge(raw, REDUCED[name])
    raw["output_dir"] = str(tmp_path)
    config = tmp_path / name
    config.write_text(json.dumps(raw))
    csv_path, json_path, _ = run(config)
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reduced_config_outputs_pinned(name, tmp_path):
    assert reduced_digests(name, tmp_path) == PINNED[name]


def main() -> int:
    moved = []
    for name in sorted(PINNED):
        with tempfile.TemporaryDirectory() as tmp:
            digests = reduced_digests(name, Path(tmp))
        flag = "ok   " if digests == PINNED[name] else "MOVED"
        if digests != PINNED[name]:
            moved.append(name)
        print(f"{flag} {name}")
        for kind, now, pin in zip(("csv ", "json"), digests, PINNED[name]):
            print(f"      {kind} now {now}\n           pin {pin}")
    print(f"{len(moved)} of {len(PINNED)} pins moved: {', '.join(moved) or 'none'}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
