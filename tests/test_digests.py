"""Byte-level guard: SHA-256 digests of generated streams, pinned.

Each case pins the stream CSV, the serialized final concept and every
concept snapshot of one run.  A change that keeps the RNG layout must leave
all of them untouched; a change that alters it on purpose updates the table
once and says so in CHANGES.md.

The table was updated once since it was pinned, for the segment engine
(ROADMAP item 2): its row-independent ``predict`` rounds continuous node
values differently in the last bits, so every ``csv`` entry moved except
dataset4's, whose stream has no node where the rounding differs.  No
``concept`` or ``snapshots`` entry moved, and the RNG layout is unchanged.

The ``sidecar`` column was added later, before the JSON codec replaced the
hand-written ``config_to_document``: it pins the config document that
``generate`` writes into the metadata sidecar (``json.dumps`` with
``indent=2, sort_keys=True``, as ``write_sidecar`` does), so a change to
how configs serialize cannot move the regeneration document unnoticed.

``PYTHONPATH=src python tests/test_digests.py`` prints the current table,
so an update is a paste that can be reviewed line by line.
"""

import copy
import hashlib
import json
from dataclasses import replace

import pytest

from conftest import COVERAGE_DOC
from causalstream.config import config_to_document, parse_config
from causalstream.drift import DriftSchedule
from causalstream.generator import build_stream
from causalstream.presets import preset_config
from causalstream.stream_io import write_stream_csv


def _prefix(name: str, rows: int, seed: int = 0):
    """The first ``rows`` rows of a preset, with its schedule cut to them."""
    cfg = preset_config(name, seed)
    events = tuple(e for e in cfg.schedule if e.t_end <= rows)
    return replace(cfg, dataset_size=rows, schedule=DriftSchedule(events))


CASES = {
    "dataset1": lambda: preset_config("dataset1", 0),
    "dataset2": lambda: preset_config("dataset2", 0),
    "dataset3": lambda: preset_config("dataset3", 0),
    "regression1": lambda: preset_config("regression1", 0),
    "dataset4[:1100]": lambda: _prefix("dataset4", 1100),
    "dataset5[:1100]": lambda: _prefix("dataset5", 1100),
    "dataset6[:600]": lambda: _prefix("dataset6", 600),
    "coverage": lambda: parse_config(copy.deepcopy(COVERAGE_DOC)).generator,
}

DIGESTS = {
    "dataset1": {
        "csv": "87c4b499bb1ac2e7088ee639ab717efb4bd97da3ed67aa759bc6e02f0e62c7aa",
        "concept": "224ba9588df39d46f51aa69a25eab29db954c452edb25befc4b37957d839fb15",
        "snapshots": "cf0fd405b294610dc6386b99543997c9bb6f123c676e72a6b2579bbc142d2ef5",
        "sidecar": "e319b7d3d468fbabc33997f3921d7b93b71c3af2e6cf4a633196312b7dbb7ed9",
    },
    "dataset2": {
        "csv": "bb4c67c0eab51c4aadad1a59a36432061359a6264e30f1d04d1030dfbe0e8bfe",
        "concept": "c38f0f37296792e9e0e5b681f9dece09ea1736ff3cf9c5919a33782903c1026a",
        "snapshots": "6a439cd8c4a7d6efb9c240edd329a1a1f74fda14b2d91535af649a98120422ec",
        "sidecar": "c2d86cea358ace9ceaf45e7d765409117ccb9a409b04f86660852d5d46744af1",
    },
    "dataset3": {
        "csv": "e59d44e0a030eb4345abbc3e51dcb65ef8aa3fec9f3ebd38f40e49fb7f57b5ee",
        "concept": "b6b116968d61056dcec9a2fbc399ca5ae5e720dfadee129798996d1491217e74",
        "snapshots": "a12e01e9f1d4494d249df4d08ec5245d9003c4e34d76ac840afd5f2e953ab2cd",
        "sidecar": "b698d7f3aff1b8e2d898e1e6966e0a30ee4fff64da5d3d398165702ef8782667",
    },
    "regression1": {
        "csv": "9a7d3d4a4f05b25a1dd3f19630af08ac30a7e510cbb3246ed98138bff8ff8e13",
        "concept": "ce8805abf00b36549e114242e21aea09620e13eee7d457630c3ff27bfda48d06",
        "snapshots": "ac632172283c3ecb5389a8b57219be867c1f4a5354bd703d838d3bc522bb6cd1",
        "sidecar": "18472918eb7c10991863a6448a1ae90a4e8122a3ba2a3316a8c0ef2cab1d7d38",
    },
    "dataset4[:1100]": {
        "csv": "9328c69f48755aaeb32412575532a4aee62136dd6097d10f89d0192de44b0ec9",
        "concept": "704ebe3a46f4d2a2f473444ebfc4796d808a09968a9e477d941962f1862bfc06",
        "snapshots": "037e52047028c8b7686499d5c76033d4f3be560b18c36919c1d7bac4fc63560b",
        "sidecar": "eee4d68fb505e7a525a790634383961e512bf608e690a3fcc360e53a2aadb24e",
    },
    "dataset5[:1100]": {
        "csv": "28f9a81ab1a5243e28c4f4835d4b5731400907ca3bbba8ac26bd831d5b256497",
        "concept": "90821bf1cbd5ee4728d17a8e95b29870ac959ff3e7f64198fa66eb2788d2c6c2",
        "snapshots": "345c6d8e5394dba1f00fb2da2a61da8826359fcddd4314dbea3c00960854b883",
        "sidecar": "65250994759aa16db987e641276f3a06946b167670c270a33c8116113a29f8b0",
    },
    "dataset6[:600]": {
        "csv": "0d62ab0a70f03ae1ad23b0ca54e806d04f33b7aa92e60d8f3d9dff612092fa2a",
        "concept": "5c8fcc22c9f4c1af126a903da410ae50b13424988aacf17ed8e2bbf150b2df68",
        "snapshots": "0c25abc7fb43482c1bfca6de507e5016318cf333f170b40a335dbea8de6936f5",
        "sidecar": "5f3655ac7dfa4cba66353853afc24b0358fd0ff7650b0ed6bc8334b9cf076c70",
    },
    "coverage": {
        "csv": "9a00c9dd097f68143dccb77b88919f671644b4cb6bc949cca1038b38af3d3628",
        "concept": "7c7a973db2a9183ee77c86f9523bacdee31183e45c943f385c72c2f088d4acbe",
        "snapshots": "9254357845f62ec69214158f5bae2fba88bad58c8f0fa4c3e4864f8ff8d8e73a",
        "sidecar": "b8376ede3a5a48944d5bbe950d26d33238ee0c18a6fb939fb8180f2d22307761",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stream_digests(cfg, path) -> dict[str, str]:
    gen = build_stream(cfg)
    write_stream_csv(path, (gen.step() for _ in range(cfg.dataset_size)), gen.feature_names)
    snapshots = "\n".join(f"{sid} {snap.to_json()}" for sid, snap in gen.snapshots.items())
    return {
        "csv": _sha(path.read_bytes()),
        "concept": _sha(json.dumps(gen.concept.to_dict()).encode()),
        "snapshots": _sha(snapshots.encode()),
        "sidecar": _sha(json.dumps(config_to_document(cfg), indent=2, sort_keys=True).encode()),
    }


@pytest.mark.parametrize("case", list(CASES))
def test_stream_digests_are_pinned(case, tmp_path):
    assert stream_digests(CASES[case](), tmp_path / "s.csv") == DIGESTS[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for case, make in CASES.items():
            print(f"    {json.dumps(case)}: {{")
            for kind, digest in stream_digests(make(), Path(tmp) / "s.csv").items():
                print(f'        "{kind}": "{digest}",')
            print("    },")
        print("}")
