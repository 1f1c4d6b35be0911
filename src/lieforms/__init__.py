"""Exact exterior calculus, operator superalgebras and Hodge theory on
Lie-algebra models, over the Gaussian rationals."""

from .scalars import Scalar, parse_scalar
from .matrices import Matrix
from .operators import (
    RelationEntry,
    RelationReport,
    reeb_power,
    supercommutator,
)
from .clifford import Clifford
from .models import (
    BUILTIN_NAMES,
    LieModel,
    ModelError,
    StructurePack,
    builtin,
    builtin_models,
    ce_differential,
    load_model_file,
    parse_model,
    structure_operators,
)
from .splitting import (
    FoliationSpec,
    foliation_split,
    hodge_split_d1,
    kahler_relations,
    lee_foliation,
    reeb_foliation,
    sasakian_relations,
    sigma_foliation,
)
from .cohomology import (
    CochainComplex,
    CohomologyReport,
    FormComplex,
    basic_adjoint_check,
    basic_subcomplex,
    full_complex,
    harmonic_space,
    invariant_subcomplex,
    split_laplacian,
    transversal_package,
)
from .cones import (
    ChainMap,
    DecompositionVerdict,
    build_cone,
    lefschetz_cone_package,
    long_exact_check,
    sasakian_decomposition,
    sasakian_harmonic_check,
    vaisman_decomposition,
    vaisman_harmonic_check,
)

__version__ = "0.1.0"
