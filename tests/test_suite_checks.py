"""Cross-cutting checks: suite plumbing, memory-enrichment scan and the
sampled converse of the word-to-tree transfer."""

import random

from qualtree.acceptance import qualitative_membership
from qualtree.automata import (
    Alphabet,
    cobuchi,
    universal_to_alternating,
)
from qualtree.emptiness import (
    _named_beliefs,
    build_emptiness_game,
    solve_by_enumeration,
    solve_imperfect_buchi,
)
from qualtree.markov import lasso_membership_word, prob_tree_membership
from qualtree.reductions import lift_swap, universalize
from qualtree.suite import (
    emptiness_crosscheck,
    random_alternating_buchi,
    random_regular_tree,
    random_simple_pwa,
    with_memory_bit,
)
from qualtree.trees import lasso
from branches import branch_word
from draws import random_imperfect_arena, random_tree_automaton
from search_oracles import enumerate_bit_enriched

AB = Alphabet(("a", "b"))


def test_bit_enrichment_never_flips_on_micro_instances():
    """One extra memory bit must not change any verdict here: the blunt
    enumeration decides 30 micro automaton games with knowledge-set memory,
    and again on their `with_memory_bit` products.  A flip would be a
    finding to investigate, never something to paper over."""
    rng = random.Random(5)
    flips = []
    for i in range(30):
        game, target = build_emptiness_game(
            *random_alternating_buchi(rng, max_states=2, max_symbols=2))
        plain, _ = solve_by_enumeration(game, target)
        enriched, _ = solve_by_enumeration(*with_memory_bit(game, target))
        if plain != enriched:
            flips.append(f"draw {i}: {plain} with knowledge sets, {enriched} with the bit")
    assert not flips, "memory enrichment flipped a verdict: " + "; ".join(flips)


def _memory_bit_draws():
    """The 30 automaton games of the enrichment test above, then the
    seeded arenas with at most two observation classes and three knowledge
    sets, on which every blunt enumeration finishes in milliseconds."""
    rng = random.Random(5)
    for _ in range(30):
        yield build_emptiness_game(*random_alternating_buchi(rng, max_states=2, max_symbols=2))
    rng = random.Random(7)
    for _ in range(60):
        game, target = random_imperfect_arena(rng, max_vertices=4, max_actions=3)
        if len(set(game.obs.values())) <= 2 and len(_named_beliefs(game, 16)[0]) <= 3:
            yield game, target


def test_memory_bit_product_knowledge_sets_carry_one_bit():
    """A knowledge set of the product is one of the game's, paired with one
    bit: the product's knowledge-set memory is (knowledge set, bit)."""
    for game, target in _memory_bit_draws():
        plain = set(_named_beliefs(game, 16)[0])
        product, product_target = with_memory_bit(game, target)
        assert product.initial == (game.initial, 0)
        assert product_target == {(v, bit) for v in target for bit in (0, 1)}
        for b in _named_beliefs(product, 32)[0]:
            assert len({bit for _, bit in b}) == 1
            assert frozenset(v for v, _ in b) in plain


def test_memory_bit_product_ties_the_bit_enriched_enumeration():
    """One extra bit three ways: the enumeration over (knowledge set, bit)
    memories with its own loop, the blunt enumeration on the
    `with_memory_bit` product, and the pruned solver on the product."""
    verdicts = []
    for game, target in _memory_bit_draws():
        reference, _ = enumerate_bit_enriched(game, target)
        product = with_memory_bit(game, target)
        assert solve_by_enumeration(*product)[0] == reference
        assert solve_imperfect_buchi(*product)[0] == reference
        verdicts.append(reference)
    assert len(verdicts) > 60 and set(verdicts) == {False, True}


def test_alternating_draws_use_up_to_max_symbols():
    rng = random.Random(3)
    sizes = {len(list(random_alternating_buchi(rng, 2, 3)[0].alphabet)) for _ in range(40)}
    assert sizes == {1, 2, 3}


def test_embedding_is_injective_and_preserves_counts():
    rng = random.Random(83)
    seen = {}
    for _ in range(30):
        aut, _ = random_tree_automaton(rng, 3, AB)
        alt = universal_to_alternating(aut)
        assert len(alt.states) == len(aut.states)
        assert len(alt.transitions) == len(aut.transitions)
        key = (aut.states, aut.initial, aut.transitions)
        if key in seen:
            assert seen[key] == alt
        else:
            for other_key, other_alt in seen.items():
                if other_key != key:
                    assert other_alt != alt
            seen[key] = alt


def test_crosscheck_records_are_reproducible():
    a = emptiness_crosscheck(seed=3, count=10, max_states=3)
    b = emptiness_crosscheck(seed=3, count=10, max_states=3)
    assert [r.line() for r in a] == [r.line() for r in b]


def test_accepted_trees_transfer_back_to_words_sampled():
    """Converse transfer, sampled: an accepted tree is almost-surely branch-wise
    accepted, so lasso-shaped branches overwhelmingly check out.

    Lasso branches are themselves a measure-zero family, so a small
    exceptional fraction is possible (an always-left branch may read a
    rejected word even when almost all branches are accepted); the
    tolerance absorbs exactly that.
    """
    rng = random.Random(301)
    accepted_trees = checked = passed = tries = 0
    while accepted_trees < 25 and tries < 1200:
        tries += 1
        a = random_simple_pwa(rng, 3, AB)
        final = frozenset(q for q in sorted(a.states) if rng.random() < 0.4)
        if not final:
            continue
        t = random_regular_tree(rng, 3, AB)
        au = universalize(a)
        if not qualitative_membership(universal_to_alternating(au), cobuchi(final), t):
            continue
        accepted_trees += 1
        # the exact half of the converse: almost-sure acceptance of the tree
        assert prob_tree_membership(lift_swap(a), final, t)
        for _ in range(40):
            prefix = [str(rng.getrandbits(1)) for _ in range(rng.randint(0, 3))]
            period = [str(rng.getrandbits(1)) for _ in range(rng.randint(1, 4))]
            w = branch_word(t, lasso(prefix, period))
            checked += 1
            passed += lasso_membership_word(a, final, w, "cobuchi")
    assert accepted_trees == 25
    assert passed / checked >= 0.97, f"branch acceptance frequency {passed/checked:.4f}"
