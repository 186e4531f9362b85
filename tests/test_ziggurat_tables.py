"""The committed exponential ziggurat tables are the installed numpy's own.

The sampler decodes its wakeup draws from raw ``PCG64`` words with
:mod:`repro.kgsl.ziggurat`; a numpy whose ziggurat differs would move
every read time, so this guard re-probes numpy and names the version
that disagrees.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kgsl.ziggurat import KE, WE
from tests.oracles import pcg64_emitting, ziggurat_tool


def test_tables_are_numpys_own():
    we, ke = ziggurat_tool().probe_tables()
    assert len(we) == len(ke) == len(WE) == len(KE) == 256
    wrong = [f"WE[{i}]" for i in range(256) if we[i] != WE[i]]
    wrong += [f"KE[{i}]" for i in range(256) if ke[i] != KE[i]]
    assert not wrong, (
        f"numpy {np.__version__}'s exponential ziggurat differs from "
        f"src/repro/kgsl/ziggurat.py at {', '.join(wrong[:8])}"
        f"{' ...' if len(wrong) > 8 else ''} ({len(wrong)} entries); "
        "regenerate it with python tools/gen_ziggurat_tables.py"
    )


@given(st.integers(0, 2**64 - 1), st.integers(1, 2**20))
@settings(max_examples=200, deadline=None)
def test_a_word_decodes_to_numpys_draws(word, high):
    ri, idx = word >> 11, (word >> 3) & 0xFF
    assert pcg64_emitting(word, high=high).random() == ri * 2.0**-53
    if ri < KE[idx]:
        assert pcg64_emitting(word, high=high).standard_exponential() == ri * WE[idx]
