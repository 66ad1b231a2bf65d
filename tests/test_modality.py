"""Mode theory engine tests: word normal forms, 2-cells, search."""

import functools
import itertools
import random

import pytest

from trikernel import modality
from trikernel.modality import (
    _SEARCH_SLACK,
    BASE_RULES,
    GENERATORS,
    RULES,
    SEARCH_DEPTH,
    ModeError,
    Step,
    TwoCell,
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
    _expansions,
    _unreachable,
)

from support import cell_eq, fixpoint_normalize, validate


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
    validate(cell)
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
    validate(norm)


def _raw_whisker(word, cell, side):
    """`cell_whisker` without the normal form: every step whiskered."""
    w = normalize(word)
    if side == "left":
        steps = tuple(Step(normalize(w + s.left), s.gen, s.right) for s in cell.steps)
        return TwoCell(compose(w, cell.src), compose(w, cell.dst), steps)
    steps = tuple(Step(s.left, s.gen, normalize(s.right + w)) for s in cell.steps)
    return TwoCell(compose(cell.src, w), compose(cell.dst, w), steps)


def test_cells_built_piecewise_are_the_normal_form_of_their_raw_composite():
    """A cell composed one step at a time by `cell_vcomp`, or whiskered after
    it was made normal, is `cell_normalize` of the raw composite: so the
    builders' normal forms compare syntactically (random walks of
    `_expansions` from normal words of length at most 3)."""
    rng = random.Random(33)
    expansions = functools.cache(lambda word: list(_expansions(word)))
    renormalized = 0
    for _ in range(40_000):
        word = normalize(tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 3))))
        built, steps, cur = identity_cell(word), [], word
        for _ in range(rng.randint(1, 4)):
            if not expansions(cur):
                break
            step, cur = rng.choice(expansions(cur))
            steps.append(step)
            built = cell_vcomp(built, generator_cell(step.gen, step.left, step.right))
        raw = TwoCell(word, cur, tuple(steps))
        want = cell_normalize(raw)
        assert built == want, raw
        renormalized += want != raw
        whisker = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(1, 2)))
        side = rng.choice(("left", "right"))
        assert cell_whisker(whisker, built, side) == cell_normalize(_raw_whisker(whisker, raw, side))
    assert renormalized > 10_000, renormalized


def test_one_pass_normal_form_matches_the_fixpoint_loop():
    """`cell_normalize` against the round-after-round reference, on random
    step lists over a small alphabet of whiskers (boundaries unchecked:
    both read only the steps)."""
    rng = random.Random(27)
    whiskers = [(), ("g",), ("s",), ("p",), ("a",), ("g", "s")]
    gens = list(modality.GENERATOR_CELLS)
    cancelled = 0
    for _ in range(40_000):
        steps = tuple(Step(rng.choice(whiskers), rng.choice(gens), rng.choice(whiskers))
                      for _ in range(rng.randint(0, 8)))
        cell = TwoCell(("g", "s"), ("g", "s"), steps)
        want = fixpoint_normalize(cell)
        assert cell_normalize(cell) == want
        kept = [st for st in steps if not modality._step_is_identity(st)]
        cancelled += len(want.steps) < len(kept)
    assert cancelled > 20


def test_counit_right_whiskered_by_its_own_pair_is_an_identity():
    # eps_gs * g.s : g.s.g.s => g.s undoes the comultiplication of the
    # idempotent comonad g.s, so the rule for a right whisker g.s erases it
    cell = TwoCell(("g", "s", "g", "s"), ("g", "s"), (Step((), "eps_gs", ("g", "s")),))
    assert cell_normalize(cell).steps == ()


def test_search_g_to_identity_finds_eps0():
    cell = cell_search(("g",), ())
    assert cell is not None
    assert [s.gen for s in cell.steps] == ["eps0"]
    validate(cell)


def test_search_identity_to_sg_finds_eta():
    cell = cell_search((), ("s", "g"))
    assert cell is not None
    assert [s.gen for s in cell.steps] == ["eta_gs"]
    assert cell.dst == ("s",)  # s.g normalizes to s
    validate(cell)


def test_search_s_to_identity_fails_depth_6():
    assert cell_search(("s",), ()) is None


def test_search_soundness_random_pairs(monkeypatch):
    # a shallow search keeps the test fast
    monkeypatch.setattr(modality, "SEARCH_DEPTH", 4)
    words = [w for w in all_words(2)]
    for src in words:
        for dst in words:
            cell = cell_search(src, dst)
            if cell is not None:
                validate(cell)
                assert cell.src == normalize(src)
                assert cell.dst == normalize(dst)


def test_refuted_pairs_are_beyond_the_bounded_search():
    # Every word within cell_search's bounds of a source: depth 8, and words
    # no longer than the cap that a pair of words of length <= 4 allows.  A
    # word the search can reach is one the refutation must let it look for.
    sources = sorted({normalize(w) for w in all_words(4)})
    assert len(sources) == 281
    cap = 4 + _SEARCH_SLACK
    successors = {}
    for src in sources:
        seen, frontier = {src}, [src]
        for _ in range(SEARCH_DEPTH):
            reached = []
            for word in frontier:
                if word not in successors:
                    successors[word] = [nxt for _, nxt in _expansions(word)]
                for nxt in successors[word]:
                    if len(nxt) <= cap and nxt not in seen:
                        seen.add(nxt)
                        reached.append(nxt)
            frontier = reached
        assert [w for w in seen if w != src and _unreachable(src, w)] == [], src
    refuted = [(s, d) for s in sources for d in sources if s != d and _unreachable(s, d)]
    assert len(refuted) > 10_000
    assert cell_search(("s",), ("g",)) is None and cell_search((), ("p",)) is None


def test_cell_from_steps_boundary_mismatch():
    with pytest.raises(ModeError):
        validate(TwoCell(("g",), ("a", "p"), (Step((), "eta_pa", ()),)))
