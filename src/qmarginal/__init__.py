"""Pure-state quantum marginal problems via two-party separability.

Modules: symgroup (symmetric-group representations and exact invariant
bases), blocks (the permutation-tensor trace pairings and the
positivity blocks), exactla (exact linear algebra), ame (closed-form
existence tests), hierarchy (N-copy feasibility and dual witnesses),
codes (quantum code feasibility), solve (exact LP / dense SDP / SDPA
interchange).
"""

from . import ame, blocks, codes, exactla, hierarchy, solve, symgroup
from .ame import AmeCandidate, FeasibilityReport, candidate, check_existence, scan
from .codes import CodeParams, code_check, singleton_check, verify_code_state
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    QmarginalError,
    ResourceCapError,
    SolverConvergenceError,
    UnsupportedFeatureError,
)
from .hierarchy import (
    BlockSdp,
    Certificate,
    DualWitness,
    MarginalSpec,
    ame_marginal_spec,
    assemble_dual_witness,
    assemble_primal,
    certify,
    level_check,
    solve_primal,
    witness_value,
)

__version__ = "0.1.0"
