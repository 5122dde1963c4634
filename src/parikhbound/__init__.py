"""Bounded underapproximations of context-free languages.

Construct, for a context-free L, an elementary bounded language
B = w1*...wk* with Parikh(L intersect B) = Parikh(L), decide intersection
emptiness relative to such a B, and run the derived semi-decision procedures
for context-free intersection and pushdown-network reachability.
"""

from .errors import (BudgetError, InputError, ProgressNotReached,  # noqa: F401,E402
                     SoundnessError)
from .symbols import (Alphabet, ElementaryBounded, Nfa, Word,  # noqa: F401,E402
                      alphabet, eb, eb_concat, eb_complement_dfa, eb_from_text,
                      eb_to_nfa, eb_to_text, determinize, nfa_to_regex,
                      parikh_of_word, word)
from .grammar import (Cfg, LinearGrammar, block_projection,  # noqa
                      cyk_membership, enumerate_words, format_grammar,
                      parse_grammar, product_with_dfa, simplify,
                      concat_grammars, trim)
from .semilinear import (LinearSet, SemilinearSet, WitnessedSemilinear,  # noqa
                         linear_set, parikh_image, parikh_semilinear,
                         sl_intersect, sl_intersection_witness, sl_membership,
                         witness_for_vector, sl_to_text)
from .newton import (KFoldComposition, build_kfold,  # noqa,E402
                     differential_grammar, materialize_iterate,
                     suggested_depth)
from .boundedgen import (algorithm1_bounded_sequence, bounded_for_linear,  # noqa
                         bounded_for_powers, bounded_for_regex,
                         bounded_for_substitution, bounded_subset,
                         decompose_linear, parikh_equivalent_bounded,
                         verify_parikh_property)
from .intersect import (IntersectionInstance, IntersectionResult,  # noqa,E402
                        IterationState, intersect_modulo, progress_trace,
                        refine, semi_algorithm)
from .pdn import (GlobalConfiguration, PushdownAcceptor, PushdownNetwork,  # noqa
                  acceptor_to_cfg, encode_to_acceptors, family_instance,
                  pdn_from_json, pdn_reach_bounded, pdn_to_json, reach)
