"""glskit: generalized least squares through weighted pseudoinverses.

The package computes the minimum 2-norm solution of

    min ||L x||_2   subject to   ||M (A x - b)||_2 = min

three independent ways (a direct formula, a GSVD closed form, and the
iterative gLSQR algorithm built on generalized Golub-Kahan
bidiagonalization) and cross-certifies any candidate through the
generalized Moore-Penrose identities.
"""

from .linalg import (
    EPS,
    FactorizationError,
    IndefiniteMatrixError,
    LsqrResult,
    QrFactors,
    RankTolerance,
    SvdFactors,
    cholesky_spd,
    lsqr,
    pinv,
    ranked_factor,
    svd,
)
from .gsvd import (
    GsvdFactors,
    gsvd_pair,
    save_factors,
    sigma_max_ca,
    wpinv_via_gsvd,
)
from .wpinv import (
    GlsCriterionReport,
    GlsProblem,
    MpeReport,
    check_gls_criterion,
    check_gmpe,
    wpinv_apply,
    wpinv_elden,
    wpinv_limit,
    wpinv_matrix,
)
from .ggkb import (
    BidiagState,
    CholeskyStrategy,
    DensePinvStrategy,
    InnerLsqrStrategy,
    ggkb_init,
    ggkb_step,
)
from .glsqr import (
    OperatorNormEstimate,
    SolveReport,
    certify_solution,
    glsqr_solve,
    operator_norm,
    save_history,
)
from .problems import (
    GeneratedProblem,
    generate,
    load_problem,
    make_l1,
    make_l2,
    random_sparse_matrix,
    regularizer,
    sample_function,
    save_problem,
)
from .mmio import (
    MatrixMarketError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)

__version__ = "0.1.0"
