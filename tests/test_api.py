"""The package root exports the paper's objects and nothing else."""

import importlib

import pytest

import karycap

PAPER_API = {
    "MultichoiceGame",
    "SizeLimitError",
    "random_game",
    "min_game",
    "extend_heterogeneous",
    "is_kary_capacity",
    "importance",
    "interaction",
    "interaction_via_derivatives",
    "interaction_recursive",
    "interaction_cellsum",
    "lattice_point_interaction",
    "interaction_all_upto",
    "classical_shapley",
    "classical_interaction",
    "section_capacity",
    "SectionCapacity",
    "choquet_capacity",
    "choquet_kary",
    "integral_check",
    "IntegralEstimate",
    "AXIOMS",
    "verify_axiom",
    "VerificationReport",
    "check_lemma4",
    "load_game",
    "save_game",
    "GameFormatError",
}

# helpers that live only in their own module, by module
MODULE_ONLY = {
    "karycap.game": (
        "Coalition",
        "LatticePoint",
        "encode_index",
        "decode_index",
        "support",
        "kernel",
        "check_table_size",
        "discrete_derivative",
        "add_games",
        "permute_attributes",
        "restrict_absent",
        "restrict_present_top",
        "reduce_group",
    ),
    "karycap.indices": ("shapley_coefficient",),
    "karycap.verify": ("make_null_extension", "make_invariance_partner", "efficiency_rhs"),
}


def test_all_is_the_paper_api():
    assert len(karycap.__all__) == len(PAPER_API) == 28
    assert set(karycap.__all__) == PAPER_API


@pytest.mark.parametrize("name", sorted(PAPER_API))
def test_root_name_resolves(name):
    assert getattr(karycap, name) is not None


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_helper_is_module_only(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert not hasattr(karycap, name)
