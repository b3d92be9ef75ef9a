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
        "9531361edbfea635c740330a32fea5f1faf10f3953ce97556779d1ed63e2511b",
        "0f592bffc81c6d8fcffaf201e1c4b72f5cbe219b125a912ee50a6eab61a49cee",
    ),
    "hill.json": (
        "df7d4a7d5a74f7d7e9647950c8b05fde30c7f292ad638515bf9931fd7a530111",
        "6c6251d7453b33480b80d37d9eb3d47b7a706f3f8ccffe4110d0f1e83a3c1a11",
    ),
    "ldp-max.json": (
        "714d259f145a4b44c525aa680c10f4dc56a5209e80f2344fcf94ef6502411fa9",
        "3ec055a7713e990da214dcd9c69c572cab6bae8a045c090225bfbec15e7293cc",
    ),
    "ldp-sum.json": (
        "ba1e3e58be0ade603b9ba445c2c87782908550076a5d07848861e54e8a1ddd96",
        "69f2382419ec72319ad45faa69374b1e864fd8f1ad800382560ee91add5fcdc2",
    ),
    "leftover.json": (
        "3741c4aab6e09a215fc5a774c4fa74bad412c6deb325f5ae5e576b5261116dba",
        "d12c697fff4f9eb9c9e9a570aab0b1dde81c28a1f5872b11be23ac29aeffafaa",
    ),
    "oracle-compare.json": (
        "dd6b13d131b49972ed54a5abf64d0e36c365f45f2b36689740d73ea2db2b5f08",
        "265611565903b32a5c9376fe67fab359395781bf243148312e117ae90eb9ecfd",
    ),
    "tail-ratio-hawkes-sum.json": (
        "c74dc335b94dba2c4da6a19a23dc19e1aee50ffaa55d864ea7e34d959d52f408",
        "572e53cf98832a956f59f298d000659070baf4f75272cd93262e35d4e5b8ad6d",
    ),
    "tail-ratio-renewal-max.json": (
        "dd74acac97590659041e638767f0cbddb1fb44b0d1f40b9c36a828152a97a310",
        "61e814af160502cb96cae9484545aa348f8ef1a72d6c65cee396626269242b05",
    ),
    "tail-ratio-tail-equivalent-mc.json": (
        "6dd7af97f435bdaf7c611d08a04c792f8fe64d7928c8bcc375c8eec64294c13a",
        "7c74e50713ea1f245780bebc0c510566ce51aba80aa2294bc65ab9c4f492bd14",
    ),
    "tauberian.json": (
        "14944544ed999e43e53f685f8643bc9cbb2a5a0a45a1b15baa43ee90d4fc0fad",
        "41ee63aaeef874be3e363b46f4ea8f1c17d85f56c2f8be993f26c9b032b16ff8",
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
