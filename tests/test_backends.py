import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympb
from sympb import (
    CnfModel,
    action_volume_mc,
    builtin_cnf,
    kernels,
)
from sympb import bottleneck
from sympb.bottleneck import BRACKET_CAP, MC_BLOCK, MC_CHUNK

from oracles import linear_cnf


SNIPPET = """
import json
from sympb import action_volume_mc, builtin_cnf
rep = action_volume_mc(builtin_cnf(3), 0.5, samples=40000, seed=17)
print(json.dumps({
    "volume": rep.volume.hex(),
    "std": rep.std_error.hex(),
    "flux": rep.flux.hex(),
}))
"""


def test_action_volume_mc_bits_frozen_across_processes():
    # recorded with the former term-table kernel
    frozen = {
        "volume": "0x1.e85b62aab1d1ap-2",
        "std": "0x1.39fd506ddd7f4p-9",
        "flux": "0x1.2d3e3e06488b6p+4",
    }
    rep = action_volume_mc(builtin_cnf(3), 0.5, samples=40000, seed=17)
    assert {"volume": rep.volume.hex(), "std": rep.std_error.hex(),
            "flux": rep.flux.hex()} == frozen
    # a fresh interpreter that imports the sympb under test
    env = dict(os.environ)
    src = str(Path(sympb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SNIPPET], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == frozen


# Recorded with per-chunk ``Generator.uniform(0.0, box)`` draws and a count
# over every term of K(0, J).  2 * MC_CHUNK + 4097 samples: two full chunks
# and a partial last one.  builtin_cnf(3) has one I*J term; I_MODEL has I,
# I^2, I*J, I^2*J and I*J*J terms.
I_MODEL = CnfModel(e0=-0.5, terms=(
    (0, (0, 0), -0.5), (1, (0, 0), 0.7), (0, (1, 0), 1.3), (0, (0, 1), 0.9),
    (0, (2, 0), 0.2), (0, (1, 1), 0.15), (1, (1, 0), -0.3), (2, (0, 1), 0.4),
    (1, (1, 1), 0.25), (2, (0, 0), -0.1)))
MULTI_CHUNK_FROZEN = [
    (builtin_cnf(3), 0.5, 23, {
        "volume": "0x1.ed8afc3a6ae2bp-2",
        "std": "0x1.559cbc3f5167cp-10",
        "flux": "0x1.30712c30890a8p+4",
    }),
    (I_MODEL, 0.8, 29, {
        "volume": "0x1.4296912ff9ffcp-1",
        "std": "0x1.c57e1135d828cp-10",
        "flux": "0x1.8dfa28941fc94p+4",
    }),
]


@pytest.mark.parametrize("model,e,seed,frozen", MULTI_CHUNK_FROZEN, ids=["builtin3", "i_terms"])
def test_action_volume_mc_multi_chunk_bits_frozen(model, e, seed, frozen):
    rep = action_volume_mc(model, e, samples=2 * MC_CHUNK + 4097, seed=seed)
    assert {"volume": rep.volume.hex(), "std": rep.std_error.hex(),
            "flux": rep.flux.hex()} == frozen


def test_mc_chunk_draws_equal_generator_uniform(monkeypatch):
    drawn = []

    def capture(model, js, e):
        drawn.append(js.copy())
        return 0

    monkeypatch.setattr(kernels, "count_box_hits", capture)
    rng = np.random.default_rng(31)
    for nb in (1, 2, 3):
        model = linear_cnf(0.5, [1.0] * nb, -1.0)
        boxes = [(1e-300,) * nb, (BRACKET_CAP,) * nb,
                 tuple(10.0 ** rng.uniform(-300.0, 12.0, size=nb)),
                 tuple(rng.uniform(0.1, 5.0, size=nb))]
        for box in boxes:
            # chunk layouts [1], [4097], [MC_BLOCK + 1], [MC_CHUNK],
            # [MC_CHUNK, MC_CHUNK, 4097] and [MC_CHUNK, MC_CHUNK, MC_BLOCK + 4097];
            # a chunk is drawn in blocks of at most MC_BLOCK rows, concatenated
            # here per chunk
            for samples in (1, 4097, MC_BLOCK + 1, MC_CHUNK, 2 * MC_CHUNK + 4097,
                            2 * MC_CHUNK + MC_BLOCK + 4097):
                drawn.clear()
                bottleneck._count_volume(model, 0.0, box, samples, 5)
                n_chunks = -(-samples // MC_CHUNK)
                children = np.random.SeedSequence(5).spawn(n_chunks)
                sizes = [min(MC_CHUNK, samples - MC_CHUNK * i) for i in range(n_chunks)]
                assert [len(js) for js in drawn] == [
                    min(MC_BLOCK, m - start) for m in sizes for start in range(0, m, MC_BLOCK)]
                blocks = iter(drawn)
                for child, m in zip(children, sizes):
                    js = np.concatenate([next(blocks) for _ in range(0, m, MC_BLOCK)])
                    want = np.random.default_rng(child).uniform(0.0, np.array(box), size=(m, nb))
                    assert js.shape == want.shape
                    assert js.tobytes() == want.tobytes()
