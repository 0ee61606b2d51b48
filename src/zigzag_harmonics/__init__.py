"""Exact arithmetic on the zigzag graph and its harmonic functions."""

from .paintbox import (IntervalTuple, Paintbox, eval_F, eval_F_coproduct,
                       eval_F_coproduct_levels, eval_F_levels, eval_F_numerator,
                       phi_w, template_of_intervals, template_of_paintbox)
from .qsym import pieri_check, product_F, shuffle_counts
from .semifinite import (INFINITY, ApproxReport, Automaton, GrowthModel,
                         LimitReport, automaton, automaton_numerator,
                         automaton_step, build_w_eps, check_approx_sequence,
                         check_limit_formula, model_paintbox, phi_tw,
                         ring_identity_failures, section_interval_tuples)
from .templates import (Cluster, Template, compile_placement, inject, inject_all,
                        is_finite_template, member, member_J,
                        minimal_maxblock_word, on_locus, parse_template, place,
                        placement)
from .words import (EMPTY, MINUS, PLUS, ROOT, BinaryWord, Explorer, FormalCombination,
                    composition_of_word, cover_sums, dim, dominates_search,
                    is_subword, key_str, level, lower_covers, parse_vertex, subword_step,
                    upper_cover_bits, upper_covers, walk, walk_levels, words_below)

__version__ = "0.1.0"
