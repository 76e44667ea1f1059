"""Golden sha256 digests of planner traces and generated maps.

The constants below were computed from the reference implementation. Each
digest covers what a planner's contract fixes bit for bit: the expansion
order, the path, repr(cost) (so the cost's type and every bit of its value
count), the closed matrix and jump_pops; for a seeded random bias, the
lists of a SelectionTape. A digest that differs is a behaviour change of
the program: fix the program, never the constant.

To print the digests of the code under test:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from gridplan.classical import (
    SelectionTape,
    _biased_search,
    astar,
    dijkstra,
    jps,
    octile_matrix,
)
from gridplan.grid import GENERATOR_KINDS, generate_map, sample_instance

from .helpers import per_step_view

# (height, width): one non-square size with odd dimensions, two squares.
SIZES = ((17, 23), (64, 64), (128, 128))
CASES = [(kind, h, w) for h, w in SIZES for kind in GENERATOR_KINDS]

PLANNERS = {
    "astar": astar,
    "wastar2": lambda inst: astar(inst, weight=2.0),
    "dijkstra": dijkstra,
    "jps": jps,
}


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _case_seed(kind: str, h: int, w: int) -> int:
    return 7001 + 97 * GENERATOR_KINDS.index(kind) + h + 3 * w


def case_digests(kind: str, h: int, w: int) -> dict[str, str]:
    """Digests of the map, each planner's results and random-bias tapes.

    Each planner digest covers three start-goal pairs on the one map.
    """
    seed = _case_seed(kind, h, w)
    grid = generate_map(kind, w, h, seed=seed)
    out = {"map": _sha(grid.occupancy.shape, grid.occupancy.dtype.str,
                       grid.occupancy.tobytes())}
    instances = [sample_instance(grid, seed=seed + 1 + j) for j in range(3)]
    for name, planner in PLANNERS.items():
        parts = []
        for inst in instances:
            res = planner(inst)
            parts += [res.expansion_order, res.path, repr(res.cost), res.jump_pops,
                      res.closed_matrix.dtype.str, res.closed_matrix.tobytes()]
        out[name] = _sha(*parts)
    rng = np.random.default_rng(seed + 4)
    parts = []
    for inst in instances:
        tape = SelectionTape()
        res = _biased_search(inst, octile_matrix(grid.shape, inst.goal),
                             rng.random(grid.shape) * 3.0, tape)
        selected, starts, cells, scores = per_step_view(tape)
        parts += [selected, starts, cells,
                  np.asarray(scores, dtype=np.float64).tobytes(),
                  res.expansion_order, res.path, repr(res.cost)]
    out["tape"] = _sha(*parts)
    return out


GOLDEN = {
    "random-blocks-17x23": {
        "map": "98a7bf919627c2a24fc33756c7f6c9622f9cd24eca23cd3db6a3d6ddc14c5018",
        "astar": "79aa8c65b4a808d6df816ca2f4218cd10c25573188d2f6ccb69407c10bae1d40",
        "wastar2": "41f1fe18ced995b143d754ab5f97b73dac7e138c88784bc6749fc0f8b4cdc688",
        "dijkstra": "5e46c7e8ed6dfa8b044cf6d1247d38cb4118a2d1cba619ec45be9d2183c5b6af",
        "jps": "9c6a62910329e5525c84370875d86e357f1d56f561dbc3cdc06b7615731c7e68",
        "tape": "7dfdbfa89ae44e74e6da0008f567b24a91da6a3809ef39da85e58da8832c3794",
    },
    "maze-17x23": {
        "map": "323414ef2130d412c916a30dc1107d8221063f4c29bf8e5c3475c2972f893e3b",
        "astar": "9343a02ee829336e9cb7170db1e6ed3fa02c2585d9a32bbd28982dd7bf6d0179",
        "wastar2": "99bd4fbae0a1cf2625ec77cb2445ed7c865ea15b49b93e57c834c2647ce71414",
        "dijkstra": "221089f799acfa774adf54fdb0a81634d1ce4174c36544a1cecd3aa9c0434a76",
        "jps": "92841d0e67a1177813c1ae742dee19cfe9cb277136e958af1a7033f66c6ecd15",
        "tape": "d833a58c502a0d21bf20981cf267e8252a8e4b1a0507bb2fe98fdcd74fcb08fa",
    },
    "rooms-17x23": {
        "map": "3a9c3f201fa17a6d1380d093b8acc4c7ea0495eeb371c22a0cf0bc3849444c5f",
        "astar": "4e73bccb2ebf54cd6301ae8fb82850c6c6c42543819f1f31d63bc2897a67285a",
        "wastar2": "52d6b7fd1ce2096f06c44a2b9796078aecc58f280f54f9901abe85201cd45d28",
        "dijkstra": "ee54819cdcb78774523909cdc2b329f63add5a6553348aaf2286897c5ae78e2b",
        "jps": "7240325a7c397d9075df10855fa1e177e662b4fec76780d9f0898a4adb42db28",
        "tape": "2dd84f6f76af90ab879c3dbd575547a0fa4f014e1bffcf113a8c8ee9bac2bd62",
    },
    "random-blocks-64x64": {
        "map": "f8ccca038079d32cfe7b3c59988e8a5c67a375e1c155572826030f1fbfce38ff",
        "astar": "ad50d6452c0b30ea25174175776e53f52c4eb93d2b359768d45074b52e84cec8",
        "wastar2": "c2ebfa356a0b80304775302a2176a7ea96adf780b5bcc8e683a50aedabf718bb",
        "dijkstra": "fc8e31c61ac135eea13b631bc7209b726d48c94400734844f7271bf1414677ab",
        "jps": "4b0cbd3bb32cbb7ef3e57e2651c4db7afd005f5b28c78e17b4b88359ab6b428e",
        "tape": "e86852170bd9415a2b95c63a54b7cdc4d600b195e917f002962c535f830fc35f",
    },
    "maze-64x64": {
        "map": "94bfc365a5c90183ac719aab45590ef06261c6e809d3861a8438ca0dbfe165c1",
        "astar": "d9204ef8197e08715c95ee02268e10914ddef1d30233bb2a507e01c9b0f47f37",
        "wastar2": "5f76f8e964b991999fd2d803819d87425d78e187882abc25ce63a2ce637057a9",
        "dijkstra": "99fb242fd45da06ba926a76b8c0ce6553d7622b0490b1b11ab28f8626f77f7ba",
        "jps": "80326aa69fdf4ad624f8ce5c4645a64d22d3c2d4e8cd384cb4fdd83bbbbd4443",
        "tape": "4bc1b32f018ad2f7eb8e124480dd26867b7c4eb9070869eb4f6febc138845f1d",
    },
    "rooms-64x64": {
        "map": "cfbc8c51146a8e965ecce2b321784b5009f39074dd2040b79838b4749c63d93a",
        "astar": "89d316e7c5e939771ac1567785faa46e5a3010109dd90a87a3763e2d5f103895",
        "wastar2": "21d4db43e802b762d01015aa13d69e6cd076a03947a516eb5fc5565eea1272d1",
        "dijkstra": "904321d534510ed8b3a2ed18bf86a16d467719c73adde3886dc9f4596346110f",
        "jps": "c8eb9df1fac806637345af879afa84d8dcedc6a299b068e1ded654812d0ab3a4",
        "tape": "1219187d86298ab7a4aafb6881f2fc064645e78135f8c09cf374ee64948f5ad2",
    },
    "random-blocks-128x128": {
        "map": "3472002970b627aab48120c08b33749528fd267cd0ef5f3eb31fd0f8d2707b05",
        "astar": "75bac01a3bfd30d791d33f0a7d82fd59ff582e05dc94fcbdb5ac6c957cf341b3",
        "wastar2": "49680798fcbfcaa2a0f1bce5779504400a4b6e23c8ea47a50b81949847bde8e0",
        "dijkstra": "7b60cca9794d31103e8d37d2711c0cb488d9a31d4e412a7cb808ffe20bdd554d",
        "jps": "41de8a1e1d8cae1b3e5d5059155c449ae58c6a34b1c5db8fc6bed3aa753d1d3d",
        "tape": "f5e9f8cd65a79dbc19bcda3b90a9e469122ee9d7cdbba2e835c0fd3b6f51b4f8",
    },
    "maze-128x128": {
        "map": "4cb73f6242a87d982c8622d7df2e686ce55fc874a8ceae2dc5878d285cf0788f",
        "astar": "0b3632c48729daa49fb1444fdc025500412fd93fb9d0743b40fff8e52f195f3b",
        "wastar2": "f70253ac39b6f15eb93323f5ad9a8507809fd301a939c8a4085636f27c3630dc",
        "dijkstra": "68579d7767e6aaa667d3d5b04bae71223d59dec0ec0e6956fbbddebf02005045",
        "jps": "4c72b99acaf1c51950d80209df6940c263faf7db0c895436e9ce9dc8b53b1977",
        "tape": "920c0698ec58c29cf474115cd0109b844e8f67b7e9bdd26a5721df5cff801339",
    },
    "rooms-128x128": {
        "map": "6ee2d47ceaf97a35ef2222b25ae408b8f57dbf1a4cfd6ecebbdec8f2d918f7a0",
        "astar": "1a09fc188b9ef61f47dbf0cef0d4519922aa0b8d1e3b16748e0ee2ff8ae38d1f",
        "wastar2": "5b60eb130a2088321c3beb7b34234b5d17e0da8e1f773aa3abac6d0a324e59c4",
        "dijkstra": "5b049dfefeb1459eb3eee47edc33d0b0c7a4f045adf14457733bf7ffd70fc37f",
        "jps": "3ee161c17557e3c1a418a6acfb30fb99deea47b121027b2e0c269b5b22eb4bc9",
        "tape": "c977dcd468215d9caa5673d4b03f2b24deb1efcdf8aa3a5eb55e54e1ea1877d3",
    },
}


@pytest.mark.parametrize("kind,h,w", CASES, ids=[f"{k}-{h}x{w}" for k, h, w in CASES])
def test_digests_match_reference(kind, h, w):
    assert case_digests(kind, h, w) == GOLDEN[f"{kind}-{h}x{w}"]


if __name__ == "__main__":
    for kind, h, w in CASES:
        print(f'    "{kind}-{h}x{w}": {{')
        for name, value in case_digests(kind, h, w).items():
            print(f'        "{name}": "{value}",')
        print("    },")
