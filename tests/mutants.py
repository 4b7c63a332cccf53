"""Faults planted in the package, each kept with the tests that catch it.

Each entry of ``MUTANTS`` is ``(file, old, new, killers)``: ``file`` is a
path from the repository root, ``old`` a text that occurs exactly once in
it, ``new`` the faulty text put in its place, and ``killers`` the test ids
that must fail once it is.  ``tests/test_source.py`` checks in tier-1 that
every ``old`` text is still there, once, and that every killer exists;
``tests/run_mutants.py`` plants each fault in a copy of the repository and
runs its killers there.
"""

MUTANTS = [
    # closed_invariant reads the wrong bit of the genus
    ("src/tqft2d/frobenius.py",
     "        if genus & 1:\n",
     "        if genus & 2:\n",
     ["tests/test_frobenius.py::test_closed_invariant_matches_the_g_step_loop",
      "tests/test_acceptance.py::test_criterion_03_character_formula"]),
    # closed_invariant reads the largest kept power of H for every bit
    ("src/tqft2d/frobenius.py",
     "            v = tensordot(v, powers[k], [0], [0])\n",
     "            v = tensordot(v, powers[-1], [0], [0])\n",
     ["tests/test_frobenius.py::test_closed_invariant_does_not_depend_on_the_calls_before",
      "tests/test_frobenius.py::test_closed_invariant_matches_the_g_step_loop"]),
    # nfold_fission_check merges float towers that agree within tol, which
    # is not transitive
    ("src/tqft2d/crossed.py",
     "if exact and equal(u, t)",
     "if equal(u, t, bundle.tol)",
     ["tests/test_crossed.py::test_nfold_shares_subtrees_and_matches_the_reference"]),
    # _plan keeps a planned order that only ties layer order's cost
    ("src/tqft2d/bordism.py",
     "    return planned if total < cost else order\n",
     "    return planned if total <= cost else order\n",
     ["tests/test_bordism.py::test_the_plan_never_peaks_above_layer_order",
      "tests/test_bordism.py::test_contract_word_matches_the_loop_reference"]),
    # a folded block contracts a cup's leg against the unit, not the counit
    ("src/tqft2d/bordism.py",
     "counit if part is CUP else other",
     "unit if part is CUP else other",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_bordism.py::test_folding_is_bit_identical_to_the_reference_on_the_pair_pool"]),
    # the bundle serves a kept folded block without checking that its table
    # still holds the base's block it was built from
    ("src/tqft2d/bordism.py",
     "kept[0] is block and kept[1]",
     "kept[1]",
     ["tests/test_bordism.py::test_a_replaced_block_is_never_served_folded"]),
    # the bundle serves a merged block after its neighbour's table block
    # was replaced
    ("src/tqft2d/bordism.py",
     "if kept is not None and kept[0] is block and kept[1] is nblock \\\n",
     "if kept is not None and kept[0] is block \\\n",
     ["tests/test_bordism.py::test_a_replaced_block_is_never_served_folded"]),
    # a neighbour is contracted against the wrong leg of its base
    ("src/tqft2d/bordism.py",
     "                            [leg], [k])",
     "                            [leg if part is CAP or part is CUP else (leg + 1) % 3], [k])",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_bordism.py::test_folding_is_bit_identical_to_the_reference_on_the_pair_pool"]),
    # a folded block keeps its legs in the order it was built, a
    # neighbour's input after its base's legs, not inputs first
    ("src/tqft2d/bordism.py",
     "            out = permute(out, self.perm)\n",
     "            pass\n",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_bordism.py::test_folding_is_bit_identical_to_the_reference_on_the_pair_pool"]),
    # _schedule puts an input circle left open before its maker after the
    # generator's outputs, so the maker pairs with the wrong state leg
    ("src/tqft2d/bordism.py",
     " + [c for c in ends if c not in legs]\n",
     " + [c for c in circles if c < 0] + [c for c in outs if c not in legs]"
     " + [c for c in circles if c >= 0 and c not in legs]\n",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_bordism.py::test_the_plan_gives_layer_order_values_on_the_pair_pool",
      "tests/test_bordism.py::test_contraction_equals_the_normal_form_of_the_topological_type"]),
    # equal ignores the den
    ("src/tqft2d/tensor.py",
     "    if a.den != b.den:\n        return False\n",
     "",
     ["tests/test_tensor.py::test_exact_equal_is_no_first_difference"]),
    # permute returns a view of its operand's numerators
    ("src/tqft2d/tensor.py",
     "_of(a.nums.transpose(perm).copy(),",
     "_of(a.nums.transpose(perm),",
     ["tests/test_bordism.py::test_evaluate_returns_a_fresh_array",
      "tests/test_crossed.py::test_evaluate_labeled_returns_a_fresh_array"]),
    # the contraction kernel, which runs tensordot and einsum, skips the
    # reduction whatever the den
    ("src/tqft2d/tensor.py",
     "    if den == 1:\n        return _of(r, 1, top, exact)\n",
     "    if den:\n        return _of(r, den, top, exact)\n",
     ["tests/test_tensor.py::test_every_exact_tensor_is_in_lowest_terms",
      "tests/test_tensor.py::test_both_tiers_give_the_same_numbers"]),
    # parse_scalar lets Fraction's own errors out, not InputErrors naming a
    # line
    ("src/tqft2d/tensor.py",
     '        return _read(Fraction, token, "number")\n',
     "        return Fraction(token)\n",
     ["tests/test_tensor.py::test_the_line_reader_reads_what_parse_scalar_reads",
      "tests/test_tensor.py::test_the_readers_keep_the_digit_limit_and_name_the_integer",
      "tests/test_input_fuzz.py::test_every_mutated_fixture_exits_cleanly_and_names_its_line"]),
    # parse_scalars skips its token-by-token fallback: a line that is not all
    # integers fails with int's ValueError
    ("src/tqft2d/tensor.py",
     "        except ValueError:\n            pass\n",
     "        except TypeError:\n            pass\n",
     ["tests/test_tensor.py::test_the_line_reader_reads_what_parse_scalar_reads",
      "tests/test_crossed.py::test_a_bundle_file_of_43k_tokens_reads_back_block_for_block",
      "tests/test_cli.py::test_fixture_commands_print_the_pinned_output"]),
    # the constructor takes its int path when any entry is an int, so the
    # Fractions beside it keep den 1 and are truncated
    ("src/tqft2d/tensor.py",
     "            if set(map(type, vals)) != {int}:\n",
     "            if int not in set(map(type, vals)):\n",
     ["tests/test_tensor.py::test_int_entries_build_the_tensor_their_fractions_build",
      "tests/test_tensor.py::test_exact_tensor_holds_numerators_over_the_least_common_denominator",
      "tests/test_frobenius.py::test_s3_center_pairing_and_invariant"]),
    # the scalar walk reads tau with its two arguments swapped
    ("src/tqft2d/gerbe.py",
     "x = sb.tau[ann, cur[q]]",
     "x = sb.tau[cur[q], ann]",
     ["tests/test_cli.py::test_cocycle_holonomy_on_a_non_abelian_twisted_bundle"]),
    # from_cocycle blames theta only for the cocycle identity, so a theta
    # off at the unit alone loads
    ("src/tqft2d/gerbe.py",
     '                    "unit": 1, "counit": 1}\n',
     "                    }\n",
     ["tests/test_gerbe.py::test_a_constant_theta_fails_the_unit_axiom_at_a_grading_of_one_label"]),
    # parse_cocycle drops its line prefix: its errors name no line
    ("src/tqft2d/gerbe.py",
     "        raise exc.at_line(number, line)\n",
     "        raise exc\n",
     ["tests/test_input_fuzz.py::test_every_mutated_fixture_exits_cleanly_and_names_its_line",
      "tests/test_cli.py::test_a_repeated_cocycle_line_is_a_parse_error[theta]",
      "tests/test_cli.py::test_a_number_that_does_not_read_names_its_line[cocycle]"]),
    # to_crossed_bundle's fission block is its value's fusion block: the
    # value 1/(c * theta) is not taken
    ("src/tqft2d/gerbe.py",
     "lambda v: [[[1 / (c * v)]]]",
     "lambda v: [[[v]]]",
     ["tests/test_crossed.py::test_rank_one_blocks_are_those_of_one_constructor_call_each",
      "tests/test_cli.py::test_fixture_commands_print_the_pinned_output"]),
    # an exact scalar given as a Python int stays one, so two of them divide
    # to a float
    ("src/tqft2d/gerbe.py",
     "isinstance(value, (Fraction, complex))",
     "isinstance(value, (Fraction, complex, int))",
     ["tests/test_gerbe.py::test_an_exact_cocycle_of_python_ints_is_made_of_fractions",
      "tests/test_gerbe.py::test_a_coboundary_of_python_ints_is_exact",
      "tests/test_gerbe.py::test_the_induced_transport_of_python_ints_is_exact"]),
    # contract_word reads each unfolded copants split reversed
    ("src/tqft2d/bordism.py",
     "gen = bundle.fission[annotations[t][j]]",
     "gen = bundle.fission[annotations[t][j][::-1]]",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference"]),
    # a fold reads its copants' split reversed: the copants of a closed
    # surface fold in its cap or one of its cylinders
    ("src/tqft2d/bordism.py",
     "        return ann, bundle.fission[ann]\n",
     "        return ann, bundle.fission[ann[::-1]]\n",
     ["tests/test_crossed.py::test_closed_surfaces_have_the_reference_holonomy",
      "tests/test_cli.py::test_cocycle_holonomy_on_a_non_abelian_twisted_bundle"]),
    # contract_word reads an id's transport block at (label, conjugator)
    ("src/tqft2d/bordism.py",
     "gen = bundle.transport[annotations[t][j], boundaries[t][q]]",
     "gen = bundle.transport[boundaries[t][q], annotations[t][j]]",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_crossed.py::test_closed_surfaces_have_the_reference_holonomy"]),
    # contract_word reads an unfolded pants' fusion block at its labels
    # swapped
    ("src/tqft2d/bordism.py",
     "gen = bundle.fusion[labels[q], labels[q + 1]]",
     "gen = bundle.fusion[labels[q + 1], labels[q]]",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference"]),
    # a fold reads its pants' fusion block at its labels swapped
    ("src/tqft2d/bordism.py",
     "        key = labels[q], labels[q + 1]\n",
     "        key = labels[q + 1], labels[q]\n",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_bordism.py::test_one_word_keeps_a_schedule_per_mode"]),
    # validate_bundle never reports a degenerate pairing
    ("src/tqft2d/crossed.py",
     '        report.fail("nondegeneracy", ())\n',
     "        pass\n",
     ["tests/test_crossed.py::test_plant_nondegeneracy",
      "tests/test_crossed.py::test_validate_bundle_matches_the_loop_reference",
      "tests/test_acceptance.py::test_criterion_07_bundle_validator_completeness"]),
    # validate_bundle reports only the first failing check at a grading
    ("src/tqft2d/crossed.py",
     "                    failing[i, j] = axiom, tag, lhs[m], rhs[m]\n",
     "                    failing.setdefault((i, 0), (axiom, tag, lhs[m], rhs[m]))\n",
     ["tests/test_crossed.py::test_validate_bundle_matches_the_loop_reference",
      "tests/test_crossed.py::test_cli_validate_bundle_reports_the_reference_violations"]),
    # _labeling_digits decodes a labeling's digits least significant
    # first
    ("src/tqft2d/crossed.py",
     "    powers = np.array([order ** p for p in reversed(range(width))], dtype=dtype)\n",
     "    powers = np.array([order ** p for p in range(width)], dtype=dtype)\n",
     ["tests/test_crossed.py::test_labelings_are_those_of_the_stepping_reference",
      "tests/test_crossed.py::test_s4_at_three_generators_lists_its_3594_words",
      "tests/test_crossed.py::test_labeling_digits_are_those_of_python_ints[2048-6-50]",
      "tests/test_cli.py::test_fixture_commands_print_the_pinned_output"]),
    # enumerate_labeled_words keeps the labelings that put a non-identity
    # label on a cup
    ("src/tqft2d/crossed.py",
     "                keep &= cur[q] == e\n",
     "                pass\n",
     ["tests/test_crossed.py::test_labelings_are_those_of_the_stepping_reference",
      "tests/test_crossed.py::test_s4_at_three_generators_lists_its_3594_words"]),
    # label_word and its callers take any integer as a group element, so -1
    # wraps to the last element
    ("src/tqft2d/crossed.py",
     "    if not 0 <= g < group.order:\n",
     "    if False:\n",
     ["tests/test_crossed.py::test_elements_outside_the_group_are_named[-1]",
      "tests/test_crossed.py::test_elements_outside_the_group_are_named[6]"]),
    # the exact inverse keeps the sign of a negative determinant on its den
    ("src/tqft2d/tensor.py",
     "    if prev < 0:  # the den is positive; the sign goes to the numerators\n"
     "        prev, den = -prev, -den\n",
     "",
     ["tests/test_tensor.py::test_exact_inverse_is_the_fraction_reference",
      "tests/test_tensor.py::test_inverse_roundtrip_when_invertible",
      "tests/test_frobenius.py::test_counit_and_frobenius_relations"]),
    # a bundle family passes on its keys and shapes alone, whatever its modes
    ("src/tqft2d/crossed.py",
     "            if {k: t.shape for k, t in blocks.items()} != want \\\n"
     "                    or any(t.exact != exact for t in blocks.values()):\n",
     "            if {k: t.shape for k, t in blocks.items()} != want:\n",
     ["tests/test_crossed.py::test_mixed_scalar_modes_rejected"]),
    # validate_bundle reports a check only where every entry differs
    ("src/tqft2d/crossed.py",
     "            if diff.any():",
     "            if diff.all():",
     ["tests/test_crossed.py::test_validate_bundle_matches_the_loop_reference",
      "tests/test_acceptance.py::test_criterion_07_bundle_validator_completeness",
      "tests/test_gerbe.py::test_check_cocycle_fails_where_the_loops_fail"]),
    # the conjugation table is gathered by the inverse of g, not of k
    ("src/tqft2d/groups.py",
     "np.array(self.inv)[:, None]]",
     "np.array(self.inv)[None, :]]",
     ["tests/test_groups.py::test_the_group_arrays_are_its_products_and_conjugates[S3]",
      "tests/test_groups.py::test_conjugacy_classes_match_the_scalar_orbits"]),
    # direct_product multiplies the first factors in swapped order, b1 a1
    ("src/tqft2d/groups.py",
     "    table = g1.mul_table[:, None, :, None] * g2.order",
     "    table = g1.mul_table.T[:, None, :, None] * g2.order",
     ["tests/test_groups.py::test_direct_product_matches_the_entrywise_table"]),
    # the group's tables stay writable
    ("src/tqft2d/groups.py",
     "        self.mul_table.flags.writeable = self.conj_table.flags.writeable = False\n",
     "",
     ["tests/test_groups.py::test_the_group_arrays_are_its_products_and_conjugates[K4]"]),
    # conjugacy_classes reads a row of the conjugation table, which holds
    # every element, for the class of each element
    ("src/tqft2d/groups.py",
     "cls = sorted(set(self.conj_table[:, g].tolist()))",
     "cls = sorted(set(self.conj_table[g, :].tolist()))",
     ["tests/test_groups.py::test_conjugacy_classes_match_the_scalar_orbits",
      "tests/test_acceptance.py::test_criterion_03_character_formula",
      "tests/test_frobenius.py::test_s3_center_pairing_and_invariant"]),
    # group_center counts each pair under its product's class and the
    # second factor's, swapped
    ("src/tqft2d/frobenius.py",
     "(class_of[g], class_of[h], class_of[p[g, h]])",
     "(class_of[g], class_of[p[g, h]], class_of[h])",
     ["tests/test_groups.py::test_group_center_matches_the_pairwise_count"]),
    # the shapes' later layers come in reversed Gen order
    ("src/tqft2d/crossed.py",
     "        for g in Gen:\n",
     "        for g in reversed(Gen):\n",
     ["tests/test_crossed.py::test_shapes_come_in_the_order_of_the_list_reference"]),
    # the layer generator yields the empty layer
    ("src/tqft2d/crossed.py",
     "    if need == 0 and layer:\n",
     "    if need == 0:\n",
     ["tests/test_crossed.py::test_shapes_come_in_the_order_of_the_list_reference"]),
    # the schedule puts a word's outputs in reverse order
    ("src/tqft2d/bordism.py",
     "[~i for i in range(n_in)] + boundary)",
     "[~i for i in range(n_in)] + boundary[::-1])",
     ["tests/test_bordism.py::test_contraction_equals_the_normal_form_of_the_topological_type",
      "tests/test_bordism.py::test_contract_word_matches_the_loop_reference"]),
    # the contraction kernel keeps the product's legs in (batch, kept) order
    # and never puts them in the output's, which tensor.einsum and an
    # ordered tensordot ask for
    ("src/tqft2d/tensor.py",
     "    if out is not None:\n        r = r.transpose(out)\n",
     "",
     ["tests/test_tensor.py::test_einsum_matches_numpy_on_the_object_tier[int64]",
      "tests/test_tensor.py::test_einsum_is_tensordot_then_permute[True]",
      "tests/test_tensor.py::test_tensordot_into_an_order_is_tensordot_then_permute[int64]",
      "tests/test_crossed.py::test_validate_bundle_matches_the_loop_reference"]),
    # tensordot's layout checks the output order it is given but keeps the
    # product's leg order
    ("src/tqft2d/tensor.py",
     "0, len(axes_a), order)\n",
     "0, len(axes_a), legs)\n",
     ["tests/test_tensor.py::test_tensordot_into_an_order_is_tensordot_then_permute[int64]",
      "tests/test_tensor.py::test_tensordot_into_an_order_is_tensordot_then_permute[float]",
      "tests/test_bordism.py::test_contract_word_matches_the_loop_reference"]),
    # the executor drops the last step's output order and returns the
    # product's legs as they are
    ("src/tqft2d/bordism.py",
     "tensordot(state, gen, axes_s, axes_g, order)",
     "tensordot(state, gen, axes_s, axes_g)",
     ["tests/test_bordism.py::test_contract_word_matches_the_loop_reference",
      "tests/test_bordism.py::test_folding_is_bit_identical_to_the_reference_on_the_pair_pool"]),
    # a one-step word returns its state, a block of the bundle, uncopied
    # and in its block's leg order
    ("src/tqft2d/bordism.py",
     "return state if len(steps) > 1 else",
     "return state if steps else",
     ["tests/test_bordism.py::test_evaluate_returns_a_fresh_array",
      "tests/test_crossed.py::test_evaluate_labeled_returns_a_fresh_array",
      "tests/test_bordism.py::test_each_evaluation_writes_its_output_once"]),
    # the gather rows of the pair (b, c) are read as (c, b); the twisted D8
    # cocycle then fails to load, so test_crossed, test_gerbe and test_cli
    # stop at collection, which the runner counts as a failure of their
    # killers
    ("src/tqft2d/groups.py",
     "b * n + c, ",
     "c * n + b, ",
     ["tests/test_groups.py::test_the_grading_rows_are_the_table_gathers[S3]",
      "tests/test_acceptance.py::test_criterion_11_rank_one_gerbe",
      "tests/test_crossed.py::test_validate_bundle_matches_the_loop_reference"]),
    # group_center counts every pair, not only those whose product is the
    # representative of its class
    ("src/tqft2d/frobenius.py",
     "    g, h = np.nonzero(p == np.array(rep)[class_of[p]])\n",
     "    g, h = np.nonzero(p >= 0)\n",
     ["tests/test_groups.py::test_group_center_matches_the_pairwise_count",
      "tests/test_acceptance.py::test_criterion_03_character_formula"]),
    # the planner skips a transpose that moves legs of size 2, as if they
    # were of size 1
    ("src/tqft2d/tensor.py",
     "big = [i for i in order if shape[i] != 1]",
     "big = [i for i in order if shape[i] > 2]",
     ["tests/test_tensor.py::test_float_contractions_match_numpy_bit_for_bit",
      "tests/test_tensor.py::test_einsum_is_tensordot_then_permute[True]"]),
    # the planner bounds each entry by one product, whatever the summed size
    ("src/tqft2d/tensor.py",
     "            product, None if shape == made else shape, final, k)\n",
     "            product, None if shape == made else shape, final, 1)\n",
     ["tests/test_tensor.py::test_a_sum_that_would_wrap_is_made_in_objects",
      "tests/test_tensor.py::test_both_tiers_give_the_same_numbers"]),
]
