"""The padded embed family of ``sdlabel bench``."""

import pytest

from sdlabel import check_witness
from sdlabel.bench import padded_embed


@pytest.mark.parametrize("n", [2, 3, 17, 64, 100])
def test_padded_embed_has_n_vertices_and_a_level_one_witness(n):
    g, w = padded_embed(n, 5)
    assert g.n == n and w.d == 1
    assert check_witness(g, w)

