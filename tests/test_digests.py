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

It moved a second time when fitting took the streaming arithmetic (ROADMAP
item 3): ``calibrate``, the ancestor walks, the linear target function and
the SGD step sum their products in the fixed order of ``predict``, not by
BLAS.  Every ``concept`` and ``snapshots`` entry and every ``csv`` entry but
the coverage config's moved; no ``sidecar`` entry moved, and the RNG layout
is unchanged.

Batched segment draws (ROADMAP item 2, in part) left every entry in place:
a segment draws each run of normal or uniform values in one call, in the
row-by-row order, and the temporal recursion keeps the float operations of
the one-row steps.  The CSV write by ``repr`` and the ``np.loadtxt`` read
moved no entry either.

It moved a third time when each drift mechanism got one endpoint: an
incremental plan's last step puts the endpoint itself, where
``s + 1.0 * (e - s)`` had left some coordinates up to 8.9e-16 off, and an
abrupt event runs the same plan to its end.  Only runs with an incremental
window moved: dataset2's ``snapshots`` (its ``concept2`` and ``concept3`` carry
the endpoint centroids), and the coverage config's ``csv`` and
``snapshots`` (28 of rows 359-399, from the last step of its second
incremental window to the restore at t=400, follow the exact endpoint).  Both
runs' final concepts are rebuilt by later events, so no ``concept`` entry
moved; nor did any abrupt-only case, any ``sidecar`` entry or the RNG
layout.

The ``sidecar`` column was added later, before the JSON codec replaced the
hand-written ``config_to_document``: it pins the config document that
``generate`` writes into the metadata sidecar (``json.dumps`` with
``indent=2, sort_keys=True``, as ``write_sidecar`` does), so a change to
how configs serialize cannot move the regeneration document unnoticed.

The ``wide-refit`` case was pinned before drift re-simulation began to
compute only the ancestors of the nodes it reads.  Until then only
``dataset6[:600]`` re-simulated a wide graph, and it has no refit; this case
refits a continuous node late in topological order and moves the target's
prototypes, so a pruned walk that dropped or reordered a draw would move it.

``PYTHONPATH=src python tests/test_digests.py`` prints the current table,
so an update is a paste that can be reviewed line by line.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from conftest import COVERAGE_DOC, preset_prefix
from causalstream.concept import ConceptParams
from causalstream.config import config_to_document, parse_config
from causalstream.drift import DriftSchedule, ShiftAction, ShiftSpec
from causalstream.generator import GeneratorConfig, build_stream
from causalstream.graph import build_dag
from causalstream.presets import preset_config
from causalstream.stream_io import write_stream_csv
from causalstream.temporal import TemporalParams


def _wide_refit() -> GeneratorConfig:
    """d=30, 600 rows, two abrupt events that re-simulate a wide graph.

    Node 17 is a learned-mlp feature, 26th of 31 nodes in topological
    order, and the last parent of the target 22.  The event at t=200 refits
    it; the event at t=400 moves the target's prototypes, then refits node
    17 again.  Each re-simulation walks 25 or 26 nodes and reads 8 or 11 of
    them.
    """
    refit = ShiftAction("refit-new-target-fn", 17)
    move = ShiftAction("move-prototypes", 22)
    return GeneratorConfig(
        dataset_size=600,
        seed=0,
        d=30,
        graph=build_dag(30, 6, 1, 3, np.random.default_rng(3)),
        p_i=0.1,
        p_m=0.1,
        temporal=TemporalParams(alpha=0.05, rho=0.5, sigma=0.4),
        concept=ConceptParams(
            n_classes=3, nodes={17: {"mapper": "learned-mlp"}, 22: {"mapper": "prototype"}}
        ),
        schedule=DriftSchedule((
            ShiftSpec("distributional", "abrupt", 200, 1, (refit,)),
            ShiftSpec("distributional", "abrupt", 400, 1, (move, refit)),
        )),
    )


CASES = {
    "dataset1": lambda: preset_config("dataset1", 0),
    "dataset2": lambda: preset_config("dataset2", 0),
    "dataset3": lambda: preset_config("dataset3", 0),
    "regression1": lambda: preset_config("regression1", 0),
    "dataset4[:1100]": lambda: preset_prefix("dataset4", 1100),
    "dataset5[:1100]": lambda: preset_prefix("dataset5", 1100),
    "dataset6[:600]": lambda: preset_prefix("dataset6", 600),
    "coverage": lambda: parse_config(copy.deepcopy(COVERAGE_DOC)).generator,
    "wide-refit": _wide_refit,
}

DIGESTS = {
    "dataset1": {
        "csv": "6027a32f79d74436e18cbede906f053da6086b5725f9b7ebd903cadc4662cf85",
        "concept": "38a62b81b61299015774a7d041bf003962231c4eaf3e4742f1861b001281ef0e",
        "snapshots": "48a94a2dc2edb994376654a61a72f568d2fc23d4b818923deb1a5f48a0e4e653",
        "sidecar": "e319b7d3d468fbabc33997f3921d7b93b71c3af2e6cf4a633196312b7dbb7ed9",
    },
    "dataset2": {
        "csv": "c3a4b9bd09db156e9a2e1453aaa4aa6af6c775bf833fad0adf56dc830bf8b097",
        "concept": "d166502765214a515a5d9404ae8175057f73ad71c68056a21280fd5464585561",
        "snapshots": "dccf3b8d80c27947fa556c22a504a785db84bbebc65aab324d65e75aabff8cea",
        "sidecar": "c2d86cea358ace9ceaf45e7d765409117ccb9a409b04f86660852d5d46744af1",
    },
    "dataset3": {
        "csv": "108c35f03bebb6c4abca4467f1d856980de5b8feb9e2ed02ba9a0b829ce3fef7",
        "concept": "3975f10e277bb60eb2eab5d33ecfa0212dd974cb543d98e36ef2356d1654480a",
        "snapshots": "fc0beaf0b3fd254af822ada87f20195b816673cd0945fe3cc76f24d6466ffe11",
        "sidecar": "b698d7f3aff1b8e2d898e1e6966e0a30ee4fff64da5d3d398165702ef8782667",
    },
    "regression1": {
        "csv": "4e8c6d61ab91d4f179091408e431549122b2a94a0e89d2114e501a191e63e1ae",
        "concept": "1f1ac4992bcb4dab32c3324d3e6b3dc3a84fc52596edb79576c3c3402bc2f49c",
        "snapshots": "19cb12bfef1c40ed541bc1dc97fe7a5c0e6bde601dc385119e110eb36aa0f45b",
        "sidecar": "18472918eb7c10991863a6448a1ae90a4e8122a3ba2a3316a8c0ef2cab1d7d38",
    },
    "dataset4[:1100]": {
        "csv": "8a9271a97a1f9fbbc9d1a2e38e1f1f25d9258b032a90dcc3134685c8b13e43dd",
        "concept": "2bc21084b2c1ff9d142d7795b898ae95f671ec15a070f18faf0cd03d87102afd",
        "snapshots": "00139bb63992d12e884819e6f707f9b1b7ddc65a22d6e242f3dbf0c2a3667109",
        "sidecar": "eee4d68fb505e7a525a790634383961e512bf608e690a3fcc360e53a2aadb24e",
    },
    "dataset5[:1100]": {
        "csv": "9aceafe4690dc52b83b2a00526eaf354ee002b11d4c6683023760e2d0321e8f5",
        "concept": "b86674361fc718e687d56652dcc7b9608d3039a7d83488984c603916e7b69de9",
        "snapshots": "cc00c6b6e9004420ecf7a5358ace7366a81835b329206bca3bab7beb3008880f",
        "sidecar": "65250994759aa16db987e641276f3a06946b167670c270a33c8116113a29f8b0",
    },
    "dataset6[:600]": {
        "csv": "ae1854dfe8454bba5681254020f620e7c71a55ba822610cb4b5bea308328817d",
        "concept": "4c35efb4641fa99eed9a0759ba7ffdc05709f8c1fb1e0c99571e9f2f10cbc646",
        "snapshots": "fdde8a4c6b40689fc556226499ed08fa07173d322172ecd045fa46946426c3fa",
        "sidecar": "5f3655ac7dfa4cba66353853afc24b0358fd0ff7650b0ed6bc8334b9cf076c70",
    },
    "coverage": {
        "csv": "5c75c2e4c1b3337b8e52489bf629518d6a658f27e02d6d57b0d242d6276cbb13",
        "concept": "5687981576da6250c1e6b2b27c22f52011950ded53722a4e866177f40d4ee4c3",
        "snapshots": "8fcf48fde452d978a083c11a48661d2c0bf4f98b0d79a70e46d5f6cb1d5e6bb0",
        "sidecar": "b8376ede3a5a48944d5bbe950d26d33238ee0c18a6fb939fb8180f2d22307761",
    },
    "wide-refit": {
        "csv": "694af94eef875d67e9795d712ccd48fdd46ca3407f608fb4b1e5d0b6867cbc2c",
        "concept": "0136a209da2ddb81998a5f9f5a759af3543a8fa0e6f709c5bc6e8a6f40625a97",
        "snapshots": "5a5d36a2e5c6c503c1ca41331772234faf019cba57fd2ce2aec84dcb9681719a",
        "sidecar": "2be7ca1467939fddcdc2de2044df39efb7e58df7b390088839aa12dbb4d33777",
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
