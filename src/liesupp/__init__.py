"""Exact structure analysis of finite-dimensional Lie algebras over GF(p)."""

from .gfp import PrimeField
from .subspace import CapExceededError, Subspace, gaussian_binomial
from .liealg import (
    InvalidAlgebraError,
    JacobiError,
    LieAlgebra,
    abelian,
    catalog,
    counterexample_L1,
    counterexample_double,
    heisenberg,
    L1_gamma,
    sl2,
)
from .lattice import (
    LatticeCache,
    build_lattice,
    core,
    frattini,
    is_simple,
    is_supersolvable,
    minimal_ideals,
    radical,
)
from .classify import (
    Analyzer,
    ClassificationReport,
    c_supplement,
    check_main_decomposition,
    check_semisimple_shape,
    classify_algebra,
    complement_subalgebra,
    is_E_algebra,
    is_c_supplemented_algebra,
    is_completely_factorisable,
    is_elementary,
)
from .census import CensusSpec, VerdictLog, generate, verify

from .formats import TOOL_VERSION as __version__
