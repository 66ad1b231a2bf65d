"""Mode theory engine tests: word normal forms, 2-cells, search."""

import itertools

import pytest

from trikernel.modality import (
    BASE_RULES,
    GENERATORS,
    RULES,
    ModeError,
    Step,
    TwoCell,
    cell_eq,
    cell_normalize,
    cell_search,
    cell_vcomp,
    cell_whisker,
    compose,
    format_word,
    generator_cell,
    identity_cell,
    normalize,
    parse_word,
)


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product(GENERATORS, repeat=n)


def one_step_rewrites(word):
    out = []
    for i in range(len(word) - 1):
        rhs = RULES.get(word[i : i + 2])
        if rhs is not None:
            out.append(word[:i] + rhs + word[i + 2 :])
    return out


def test_base_equations_hold():
    for lhs, rhs in BASE_RULES.items():
        assert normalize(lhs) == normalize(rhs)


def test_normalize_examples():
    assert normalize(("g", "a")) == ("g",)
    assert normalize(()) == ()
    # s.g.g exhaustively rewrites to s whatever the order
    word = ("s", "g", "g")
    assert normalize(word) == ("s",)
    for step in one_step_rewrites(word):
        assert normalize(step) == ("s",)


def test_normalize_idempotent_small_words():
    for word in all_words(4):
        nf = normalize(word)
        assert normalize(nf) == nf


def test_no_redex_in_normal_forms():
    for word in all_words(5):
        nf = normalize(word)
        for i in range(len(nf) - 1):
            assert nf[i : i + 2] not in RULES


def test_compose_examples():
    assert compose(("g",), ("s",)) == ("g", "s")
    assert compose(("s",), ("g",)) == ("s",)
    assert compose(("o", "o"), ("p",)) == ("p",)


def test_compose_respects_normalization_length_6():
    # normalize(compose(w1,w2)) == normalize(compose(nf(w1), nf(w2)))
    # exhaustively over every split with combined length up to 6
    for n1 in range(7):
        for w1 in itertools.product(GENERATORS, repeat=n1):
            for n2 in range(7 - n1):
                for w2 in itertools.product(GENERATORS, repeat=n2):
                    assert compose(w1, w2) == compose(normalize(w1), normalize(w2))


def test_local_confluence_exhaustive_length_6():
    for word in all_words(6):
        steps = one_step_rewrites(word)
        if len(steps) > 1:
            forms = {normalize(s) for s in steps}
            assert len(forms) == 1, word


def test_parse_and_format_words():
    assert parse_word("g.a") == ("g", "a")
    assert parse_word("g∘a") == ("g", "a")
    assert parse_word("1") == ()
    assert parse_word("ga") == ("g", "a")
    assert format_word(()) == "1"
    assert format_word(("s", "g")) == "s.g"
    with pytest.raises(ModeError):
        parse_word("q")


def test_identity_vcomp():
    idg = identity_cell(("g",))
    assert cell_vcomp(idg, idg) == idg


def test_whisker_left_unit_cell():
    # s * eta_gs is an endo-cell on s once boundaries normalize
    cell = cell_whisker(("s",), generator_cell("eta_gs"))
    assert cell.src == ("s",)
    assert cell.dst == ("s",)
    cell.validate()
    # and it is erased by the idempotence rules
    assert cell_normalize(cell).is_identity()


def test_triangle_identity_p_adjunction():
    # (a * eps_pa) . (eta_pa * a) = id_a
    first = cell_whisker(("a",), generator_cell("eta_pa"), side="right")
    second = cell_whisker(("a",), generator_cell("eps_pa"), side="left")
    comp = cell_vcomp(first, second)
    assert comp.src == ("a",) and comp.dst == ("a",)
    assert cell_normalize(comp).is_identity()


def test_triangle_identity_g_adjunction():
    # (eps_gs * g) . (g * eta_gs) = id_g
    first = cell_whisker(("g",), generator_cell("eta_gs"), side="left")
    second = cell_whisker(("g",), generator_cell("eps_gs"), side="right")
    comp = cell_vcomp(first, second)
    assert comp.src == ("g",) and comp.dst == ("g",)
    assert cell_normalize(comp).is_identity()


def test_cojoin_pasting_squared_is_identity():
    # g * eta_gs * s is the cojoin of the g -| s comonad; composing it with
    # itself still normalizes to the identity cell on g.s.
    delta = cell_whisker(("g",), cell_whisker(("s",), generator_cell("eta_gs"), "right"), "left")
    assert delta.src == ("g", "s")
    assert delta.dst == ("g", "s")
    squared = cell_vcomp(delta, delta)
    assert cell_normalize(squared).is_identity()


def test_cell_eq_requires_matching_boundaries():
    with pytest.raises(ModeError):
        cell_eq(identity_cell(("g",)), identity_cell(("s",)))
    assert cell_eq(identity_cell(("g",)), identity_cell(("g",)))


def test_cell_eq_equivalence_on_samples():
    cells = [
        identity_cell(("a",)),
        cell_vcomp(
            cell_whisker(("a",), generator_cell("eta_pa"), side="right"),
            cell_whisker(("a",), generator_cell("eps_pa"), side="left"),
        ),
    ]
    # reflexive / symmetric / transitive on same-boundary cells
    for c in cells:
        assert cell_eq(c, c)
    assert cell_eq(cells[0], cells[1])
    assert cell_eq(cells[1], cells[0])


def test_cell_eq_equivalence_on_random_cells():
    import random

    rng = random.Random(314)
    generated = []
    for _ in range(120):
        cell = identity_cell(tuple(rng.choice(GENERATORS) for _ in range(rng.randrange(3))))
        for _ in range(rng.randrange(3)):
            gen = rng.choice(list(("eps_gs", "eta_gs", "eps_pa", "eta_pa", "eps0")))
            grown = None
            for _ in range(8):
                left = tuple(rng.choice(GENERATORS) for _ in range(rng.randrange(2)))
                right = tuple(rng.choice(GENERATORS) for _ in range(rng.randrange(2)))
                try:
                    grown = cell_vcomp(cell, generator_cell(gen, left, right))
                    break
                except ModeError:
                    continue
            if grown is not None:
                cell = grown
        generated.append(cell)
    # normalization is idempotent and boundary-preserving on the sample
    for c in generated:
        once = cell_normalize(c)
        twice = cell_normalize(once)
        assert once == twice
        assert (once.src, once.dst) == (normalize(c.src), normalize(c.dst))
    # reflexivity everywhere; symmetry and transitivity across the sample
    for c in generated:
        assert cell_eq(c, c)
    buckets = {}
    for c in generated:
        n = cell_normalize(c)
        buckets.setdefault((n.src, n.dst), []).append(c)
    for _, group in buckets.items():
        for a in group:
            for b in group:
                assert cell_eq(a, b) == cell_eq(b, a)
        for a in group:
            for b in group:
                for c in group:
                    if cell_eq(a, b) and cell_eq(b, c):
                        assert cell_eq(a, c)


def test_cell_normalize_preserves_boundaries():
    cell = cell_vcomp(
        generator_cell("eta_pa"),
        cell_whisker(("a", "p"), generator_cell("eta_gs"), side="left"),
    )
    norm = cell_normalize(cell)
    assert (norm.src, norm.dst) == (cell.src, cell.dst)
    norm.validate()


def test_search_g_to_identity_finds_eps0():
    cell = cell_search(("g",), ())
    assert cell is not None
    assert [s.gen for s in cell.steps] == ["eps0"]
    cell.validate()


def test_search_identity_to_sg_finds_eta():
    cell = cell_search((), ("s", "g"))
    assert cell is not None
    assert [s.gen for s in cell.steps] == ["eta_gs"]
    assert cell.dst == ("s",)  # s.g normalizes to s
    cell.validate()


def test_search_s_to_identity_fails_depth_6():
    assert cell_search(("s",), (), depth=6) is None


def test_search_soundness_random_pairs():
    words = [w for w in all_words(2)]
    for src in words:
        for dst in words:
            cell = cell_search(src, dst, depth=4)
            if cell is not None:
                cell.validate()
                assert cell.src == normalize(src)
                assert cell.dst == normalize(dst)


def test_cell_from_steps_boundary_mismatch():
    with pytest.raises(ModeError):
        TwoCell(("g",), ("a", "p"), (Step((), "eta_pa", ()),)).validate()
