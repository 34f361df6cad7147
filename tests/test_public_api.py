"""The public surface: qce.__all__ is pinned, so growing it is a reviewed diff."""

import importlib
import pkgutil

import pytest

import qce

PUBLIC = [
    "AuditReport", "BadShape", "BlockTerm", "ClassicalPartitionData",
    "ClusterAmbiguity", "ConditionEntry", "DEFAULT_TOLERANCES", "DensityMatrix",
    "DimMismatch", "EXPECTED_VERDICTS", "EnsembleConfig", "EntropyBreakdown", "FAILS",
    "GapReport", "HOLDS", "IdentityResolution", "InvalidPartitionData", "NotHermitian",
    "NotPSD", "NotStrictlyPositive", "OptimizeResult",
    "OrderWitness", "ParseError", "ProbabilityVector", "Projector", "QceError",
    "SelfGainProbe", "SpectralResolution", "Tolerances",
    "ValidationError", "ZeroCompression", "audit_deviations", "axiom_audit",
    "block_distribution", "commutant_dim", "commutator_residual", "compress",
    "compressed_entropy", "compressed_state", "conditional_entropy",
    "conditional_entropy_given_blocks", "conditional_entropy_of_states",
    "conditional_shannon_entropy", "coupled_family_probe", "coupled_pair_split",
    "coupled_pair_state", "dim2_demo", "doc_to_matrix", "doc_to_partition",
    "doc_to_resolution", "entropy_gap_report", "ginibre_density", "haar_basis",
    "haar_unitary", "hermitize", "impossibility_demos", "information_gain",
    "is_consequence", "is_independent", "joint_entropy", "joint_shannon_entropy",
    "load_document", "matrix_to_doc", "max_abs", "maximize_compressed_entropy",
    "more_mixed", "mutual_information", "partition_from_resolutions", "pinch",
    "probe_max_self_gain", "random_density", "random_projector",
    "random_resolution", "random_unitary", "replay_witness",
    "resolution_conditional_entropy", "resolution_entropy", "resolution_joint_entropy",
    "resolution_leq", "resolution_to_doc", "rng_for", "self_conditional_entropy",
    "self_information_gain", "shannon_entropy", "spectral_resolution",
    "spectrum_distribution", "tilted_family_probe", "tilted_pair_state",
    "tolerance_profile", "trace_xlnx", "variational_gradient", "von_neumann_entropy",
]

# Names that left the API: never raised, unused outside their own module, a
# private helper of the random ensembles, settings of the retired iterative
# ascent, or sampling loops folded into the audit's condition runner.
RETIRED = [
    "NotApplicable", "NotCommuting", "OptimizeConfig", "SweepReport",
    "complex_gaussian", "eig_hermitian", "normalized_trace", "pinch_sweep",
    "relative_entropy", "shannon_sweep", "support_projector",
    "unnormalized_compressed_entropy",
]

SUBMODULES = [
    importlib.import_module(f"qce.{info.name}") for info in pkgutil.iter_modules(qce.__path__)
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 92
    assert sorted(qce.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qce, name) is not None


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_submodule_exports_resolve(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    assert name not in qce.__all__
    assert not hasattr(qce, name)
    for module in SUBMODULES:
        assert name not in getattr(module, "__all__", ())
        assert not hasattr(module, name), f"{module.__name__} still defines {name}"
