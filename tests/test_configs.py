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
    "tail-ratio-tail-equivalent.json": {"clusters": 600_000},
    "tauberian.json": {"clusters": 300_000},
}

# (csv, json) sha256 of each reduced run
PINNED = {
    "cluster-tails.json": (
        "3e505b09db33aaa7ce81a4b3c185ba9e850b2e13a274588d41adbe115b77674f",
        "bf2ebb8c55ca722b3b1b9598bfc1aa9de19cd20b720c41586431dedd5138de03",
    ),
    "hill.json": (
        "83ff6d67c243363d7897052411ba0069126ed388455a9d7390c9a605bee7348f",
        "6a68ed484bc9c9aa4bc2bcf111b1e5724e8be1ff1ebb96939cf34059695533cf",
    ),
    "ldp-max.json": (
        "df03abb8bddfcaead0f1b6129e0b62bef2592b77c74a62806b467c028d65ad27",
        "587b47986adcded79e0c98b09ffb414625d91a6722b80a0682f8f605211f23f9",
    ),
    "ldp-sum.json": (
        "031f620e931c97cc8fb83246058e39e6194c94f68cf98db1fe95e09d48befbdc",
        "f78cf7632e78c2ff267be3eca597b07ab4ae2340c8eb54150c444c282a978cfe",
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
        "09bcb4d0f5fae013f0e02791ba56caed781505dae2d9801b9bc07bf5bdf71a27",
        "139e927b16236f15177463a6736f27a2f241f23824ba852f0d7ace94c83ba90e",
    ),
    "tail-ratio-renewal-max.json": (
        "c3daa454bd206bd5be621f4bd9b7a292642584f74124d8a101c470049bb49a9b",
        "065c7859e18637d2ea54d731d6c7a22cda4f095a9bc56713d00379b5ed87f0ea",
    ),
    "tail-ratio-tail-equivalent.json": (
        "84f547e8932537f44ef085a125ec2cfaf9814c751ab1468d2efa86ca348443f8",
        "9923e9fd19a8266efebfc75a1001ec3de38c263644a734984b06e85f0be03e3a",
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
