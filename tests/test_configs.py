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
        "3e505b09db33aaa7ce81a4b3c185ba9e850b2e13a274588d41adbe115b77674f",
        "bf2ebb8c55ca722b3b1b9598bfc1aa9de19cd20b720c41586431dedd5138de03",
    ),
    "hill.json": (
        "427889d7cd93932368e65ce194f96e8c303d158c1c0f38908a4f4b94e9397120",
        "e32ae59bfc47260a1be069994354f33927037e1abdea59d3f1e16e5a8921a560",
    ),
    "ldp-max.json": (
        "0951e1d35946a59ccb247d6f7700f699ec51352d2b8c2fe48549d1f5a9e5e61f",
        "652e626f8dcba0df533d4fbd3eea6421c02cf3e7e5c33594d44dc4224b53be40",
    ),
    "ldp-sum.json": (
        "27843085e8a790a14b88c19db9d7853e88a91289aae4f30d9c0e3c9f79b48ba0",
        "af5524781700c10bf02bbe7037b542b961a9f1e31fe6be9c49a2f4f2759e58c3",
    ),
    "leftover.json": (
        "2e6c50d922722f6bdf1e76b9d0e1f597170dd3a770fed1a09c3662d417ef6954",
        "3b7e9add52a2e701b991f3b6662dedee1840c02ff13b0e7b5ee84f46d9cb4ed4",
    ),
    "oracle-compare.json": (
        "e627028c7b8a08f3f5e1d1910d9e06f0a1d89203d6b38ea999a3254a5f95a5f2",
        "0ae3913703184fd6c35769cbd80a1343add5fb075b7b91fe3111dbd2ae1d3e7b",
    ),
    "tail-ratio-hawkes-sum.json": (
        "c589b6e2b716cd07c2de4c0b97e76bb5d75a53c25475a41d67951d7f296f9ce2",
        "fc6b63f3e512e46c6ff2cb1bd7acf762d89c63fc132d2ee036d18ea4009ae808",
    ),
    "tail-ratio-renewal-max.json": (
        "c3daa454bd206bd5be621f4bd9b7a292642584f74124d8a101c470049bb49a9b",
        "065c7859e18637d2ea54d731d6c7a22cda4f095a9bc56713d00379b5ed87f0ea",
    ),
    "tail-ratio-tail-equivalent-mc.json": (
        "0a0d3d22bbd9d063208d10ddb0258cfa9ccd4d04753cc95acc1a5dfa13a0ebcf",
        "ab73f831035dc3efdb0f4bc0458dece80788bd077d1c0333aa94d64e941cb2d9",
    ),
    "tauberian.json": (
        "051eb39ca0aa751c8212db31430eaf6643936abc1f9220281e74c0b0d1f2861e",
        "08585688c6b4782ada266dd9a601864b9150af08303fdeb2d3e746f3dfc0d50a",
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
