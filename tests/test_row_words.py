"""The matrix row words and their whole-matrix decoder.

A matrix model keeps every row's forced and free entries as one integer
each (``row_words``): row ``i``'s candidate mask at bit ``i * B``, with
``B`` the width ``m`` rounded up to whole halfwords.  ``_row_sets``
turns such a word into the tuple of every row's approval set by halfword
tables, with no loop over the rows in Python; the first profile and the
matrix JR witnesses are decoded by it.  These tests compare the words
with the row masks of ``oracles.reference_matrix_views``, the decoder
with the one-mask-at-a-time byte-table decoder
(``oracles.reference_row_sets``) and the JR witnesses with the
entry-by-entry references, at widths on both sides of every halfword
boundary up to three halfwords, single rows, and all-zero, all-forced
and all-free rows.
"""

import random
from fractions import Fraction

import pytest

from abcu import (
    CandidateProbModel,
    Instance,
    cp_model,
    is_nec_jr,
    is_poss_jr,
    profile_probability,
    tva_model,
)
from abcu.io import document_for, emit_document, parse_document
from abcu.uncertainty import _row_sets
from oracles import (
    reference_matrix_views,
    reference_nec_jr_matrix,
    reference_poss_jr_matrix,
    reference_row_sets,
    reference_row_width,
)

WIDTHS = (1, 8, 15, 16, 17, 31, 32, 33, 40)
CP_VALUES = ("0", "1", 0, 1, "1/2", "1/3", "3/4", "0.2")
TVA_VALUES = ("0", "1", 0, 1, "1/2")
SHAPES = ("mixed", "zero", "forced", "free")


def _rows(rng, n, m, kind, shape):
    values = CP_VALUES if kind == "cp" else TVA_VALUES
    if shape == "zero":
        return [[rng.choice((0, "0"))] * m for _ in range(n)]
    if shape == "forced":
        return [[rng.choice((1, "1"))] * m for _ in range(n)]
    if shape == "free":
        return [[rng.choice(values[4:]) for _ in range(m)] for _ in range(n)]
    rows = [[rng.choice(values) for _ in range(m)] for _ in range(n)]
    if n > 3:
        # An all-zero, an all-forced and an all-free row among mixed ones.
        rows[0] = [0] * m
        rows[1] = [1] * m
        rows[2] = [rng.choice(values[4:]) for _ in range(m)]
    return rows


def _model(rng, kind, n, m, shape):
    build = cp_model if kind == "cp" else tva_model
    return build(Instance(n, m, rng.randint(1, m)), _rows(rng, n, m, kind, shape))


def _random_word(rng, n, m, density):
    width = reference_row_width(m)
    masks = [sum(1 << c for c in range(m) if rng.random() < density) for _ in range(n)]
    return sum(mask << i * width for i, mask in enumerate(masks))


class TestDecoder:
    @pytest.mark.parametrize("m", WIDTHS)
    def test_random_words(self, m):
        rng = random.Random(3000 + m)
        for n in (1, 2, 7, 64, 300):
            for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                word = _random_word(rng, n, m, density)
                assert _row_sets(word, n, m) == reference_row_sets(word, n, m)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_edges(self, m):
        width = reference_row_width(m)
        full = (1 << m) - 1
        for n in (1, 3):
            assert _row_sets(0, n, m) == ((),) * n
            every = sum(full << i * width for i in range(n))
            assert _row_sets(every, n, m) == (tuple(range(m)),) * n
        # Only the last row's last candidate, then only the first row's
        # first: the halfwords at both ends of the word.
        assert _row_sets(1 << (4 * width + m - 1), 5, m) == ((),) * 4 + ((m - 1,),)
        assert _row_sets(1, 5, m) == ((0,),) + ((),) * 4

    def test_halfword_boundaries(self):
        # Each candidate alone in its row, one row per candidate.
        for m in WIDTHS:
            width = reference_row_width(m)
            word = sum(1 << (c * width + c) for c in range(m))
            assert _row_sets(word, m, m) == tuple((c,) for c in range(m))


class TestRowWords:
    @pytest.mark.parametrize("kind", ["cp", "3va"])
    @pytest.mark.parametrize("m", WIDTHS)
    def test_parsed_matrices(self, kind, m):
        rng = random.Random(f"row-words-{kind}-{m}")
        for shape in SHAPES:
            for n in (1, 5, 40):
                model = _model(rng, kind, n, m, shape)
                want = reference_matrix_views(model)
                assert model.row_words == want["row_words"]
                assert model.first == want["first"]
                parsed = parse_document(emit_document(document_for(model))).model
                assert parsed.row_words == want["row_words"]
                assert parsed.first == want["first"]

    @pytest.mark.parametrize("m", WIDTHS)
    def test_hand_built_matrices(self, m):
        rng = random.Random(3100 + m)
        pool = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), 0, 1)
        for n in (1, 4, 33):
            rows = tuple(tuple(rng.choice(pool) for _ in range(m)) for _ in range(n))
            for three_valued in (False, True):
                model = CandidateProbModel(Instance(n, m, 1), rows, three_valued)
                want = reference_matrix_views(model)
                assert model.row_words == want["row_words"]
                assert model.first == want["first"]


class TestWitnesses:
    def test_random_models(self):
        """The matrix JR answers and witnesses equal the entry-by-entry
        references on 300 random models, cp and three-valued."""
        rng = random.Random(3200)
        answers = set()
        for _ in range(300):
            kind = rng.choice(("cp", "3va"))
            m = rng.choice(WIDTHS)
            n = rng.choice((1, 2, 6, 25, 60))
            model = _model(rng, kind, n, m, rng.choice(SHAPES + ("mixed", "mixed")))
            k = model.instance.k
            w = tuple(sorted(rng.sample(range(m), k)))
            poss, nec = is_poss_jr(model, w), is_nec_jr(model, w)
            assert poss == reference_poss_jr_matrix(model, w)
            assert nec == reference_nec_jr_matrix(model, w)
            for result in (poss, nec):
                answers.add((result is poss, result.answer))
                if result.witness_profile is not None:
                    pp = result.witness_profile
                    assert pp.prob == profile_probability(model, pp.profile)
        # Every answer of both questions occurs.
        assert answers == {(True, True), (True, False), (False, True), (False, False)}
