"""Transfer-matrix / Baxter-vector / Bethe-equation toolkit for
Hofstadter-type quantum chains at roots of unity."""

__version__ = "0.1.0"

from .weylcore import (Context, GenericityError, Operator, PoleError,
                       TagMismatchError, global_shift_D, kron, make_context,
                       pochhammer, sector_basis, weyl_matrices)
from .transfer import (BlockOperator2x2, ChainParams, SiteParams,
                       TransferPencil, commutator_residual, f_op,
                       heisenberg_UV, hofstadter_hamiltonian, local_L,
                       r_matrix, rll_residual, transfer_T, transfer_pencil)
from .baxter import (DegenerateChain, baxter_vector, delta_pm, sector_vectors,
                     t_action_residual, theorem1_residual)
from .bethe import (BetheSolution, ComplexPolynomial, bethe_ansatz_residuals,
                    lambda_M_from_roots, matrix_A, oracle_spectrum,
                    rbeq_residual, solve_L1, solve_L2, solve_L3)
from .curves import (HofstadterChain3, abcd_polys, averaged_baxter,
                     descended_t_residual, epsilon_rank, eta_roots, sample_W)

__all__ = [
    "__version__",
    "Context", "Operator", "PoleError", "TagMismatchError", "GenericityError",
    "make_context", "weyl_matrices", "kron", "pochhammer", "global_shift_D",
    "sector_basis",
    "SiteParams", "ChainParams", "BlockOperator2x2", "TransferPencil",
    "local_L", "r_matrix", "rll_residual", "f_op", "transfer_T",
    "transfer_pencil", "commutator_residual", "heisenberg_UV",
    "hofstadter_hamiltonian",
    "DegenerateChain", "delta_pm", "baxter_vector",
    "t_action_residual", "sector_vectors", "theorem1_residual",
    "ComplexPolynomial", "BetheSolution", "rbeq_residual",
    "solve_L1", "solve_L2", "matrix_A", "solve_L3", "bethe_ansatz_residuals",
    "lambda_M_from_roots", "oracle_spectrum",
    "HofstadterChain3", "abcd_polys", "eta_roots", "sample_W",
    "averaged_baxter", "descended_t_residual", "epsilon_rank",
]
