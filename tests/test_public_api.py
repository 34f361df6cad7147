"""The public surface and the import graph are pinned, so growing either is a reviewed diff."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qce

PUBLIC = [
    "AuditReport", "BadShape", "BlockTerm", "ClassicalPartitionData",
    "ClusterAmbiguity", "ConditionEntry", "DEFAULT_TOLERANCES", "DensityMatrix",
    "DimMismatch", "EXPECTED_VERDICTS", "EnsembleConfig", "EntropyBreakdown", "FAILS",
    "GapReport", "HOLDS", "IdentityResolution", "InvalidPartitionData", "NotHermitian",
    "NotPSD", "OptimizeResult", "OrderWitness", "ParseError", "ProbabilityVector",
    "Projector", "QceError", "SpectralResolution", "Tolerances",
    "ValidationError", "ZeroCompression", "audit_deviations", "axiom_audit",
    "commutant_dim", "commutator_residual", "compressed_entropy", "compressed_state",
    "conditional_entropy", "conditional_entropy_given_blocks",
    "conditional_entropy_of_states", "conditional_shannon_entropy",
    "coupled_family_probe", "coupled_pair_state", "dim2_demo", "doc_to_matrix",
    "doc_to_partition", "doc_to_resolution", "entropy_gap_report", "hermitize",
    "impossibility_demos", "information_gain", "is_consequence", "is_independent",
    "joint_entropy", "joint_shannon_entropy", "load_document", "matrix_to_doc",
    "max_abs", "maximize_compressed_entropy", "more_mixed", "mutual_information",
    "partition_from_resolutions", "pinch", "random_density", "random_projector",
    "random_resolution", "random_unitary", "replay_witness",
    "resolution_conditional_entropy", "resolution_entropy", "resolution_joint_entropy",
    "resolution_leq", "resolution_to_doc", "self_conditional_entropy",
    "self_information_gain", "shannon_entropy", "spectral_resolution",
    "tilted_family_probe", "tilted_pair_state", "tolerance_profile",
    "variational_gradient", "von_neumann_entropy",
]

# Names that left the API: never raised, unused outside their own module, a
# private helper of the random ensembles, settings of the retired iterative
# ascent, sampling loops folded into the audit's condition runner, dense
# helpers no code path needed (compress, trace_xlnx), generator-level draws
# that the seeded random_* draws replace, or names with neither a CLI path nor
# a statement of the paper to compute (the self-gain probe, whose statement
# self_conditional_entropy and the audit's 2-eq-self cover; the two
# distribution wrappers over spectral_resolution(rho).weights; the
# two-projector split of the coupled family), or the error of the retired
# ascent's positivity floor, which the exact maximum does not need.
RETIRED = [
    "NotApplicable", "NotCommuting", "NotStrictlyPositive", "OptimizeConfig",
    "SelfGainProbe", "SweepReport", "block_distribution", "complex_gaussian", "compress",
    "coupled_pair_split", "eig_hermitian", "ginibre_density", "haar_basis", "haar_unitary",
    "normalized_trace", "pinch_sweep", "probe_max_self_gain", "relative_entropy",
    "rng_for", "shannon_sweep", "spectrum_distribution", "support_projector",
    "trace_xlnx", "unnormalized_compressed_entropy",
]

# Module -> the qce modules it imports. rand draws on matcore alone, the
# worked examples in states do not need the audit, and the rank-r maximum in
# grassopt needs neither.
IMPORTS = {
    "__init__": {"audit", "config", "entropy", "errors", "grassopt", "matcore", "rand",
                 "resolutions", "serialize", "shannon", "states"},
    "audit": {"entropy", "errors", "matcore", "rand", "resolutions", "serialize"},
    "cli": {"audit", "config", "entropy", "errors", "grassopt", "matcore", "resolutions",
            "serialize", "shannon", "states"},
    "config": {"errors"},
    "entropy": {"config", "errors", "matcore", "shannon"},
    "errors": set(),
    "grassopt": {"config", "entropy", "errors", "matcore"},
    "matcore": {"config", "errors"},
    "rand": {"errors", "matcore"},
    "resolutions": {"config", "matcore", "shannon"},
    "serialize": {"config", "errors", "matcore", "shannon"},
    "shannon": {"config", "errors"},
    "states": {"config", "entropy", "errors", "matcore", "rand", "resolutions", "serialize"},
}

SUBMODULES = [
    importlib.import_module(f"qce.{info.name}") for info in pkgutil.iter_modules(qce.__path__)
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 80
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


def test_partition_data_has_no_conditional_constructor():
    # Its one-kernel form accepted kernels whose columns do not sum to 1; the
    # four-field constructor and from_joint(kernel * q) are the ways in.
    assert not hasattr(qce.ClassicalPartitionData, "from_conditional")


def _relative_imports(path: pathlib.Path) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_import_graph_is_pinned():
    sources = sorted(pathlib.Path(qce.__file__).parent.glob("*.py"))
    assert {p.stem: _relative_imports(p) for p in sources} == IMPORTS
