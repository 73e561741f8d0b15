"""Qubit-qutrit entanglement toolkit.

Constructs the special 2x3 state families, evaluates their closed-form
I-concurrence, synthesizes minimal TGX states for each
spectrum-entanglement pair that family reaches, computes optimal
entangled/separable splits, and verifies the formulas as minimum averages
over sampled decompositions.
"""

from .decompositions import (
    MixerParams,
    PureDecomposition,
    average_entanglement,
    decompose,
    iter_decomposition_samples,
    min_average_search,
    mixer_2,
    rank_of,
)
from .ls import (
    LSDecomposition,
    ls_explicit,
    ls_numeric,
    spin_flip_operator,
    tau_matrix,
    wootters_xkets_explicit,
    xi_explicit,
    xi_explicit_2x2,
)
from .measures import (
    alpha_solve,
    concurrence_2x2,
    e_alpha_beta,
    gen_concurrence_max,
    mems_entanglement,
    min_sgx_i_concurrence,
    min_tgx_i_concurrence,
    pure_i_concurrence,
    quartet_x_concurrence,
    sampled_gen_preconcurrence,
    subspace_concurrence_vector,
    x_concurrence,
)
from .numerics import (
    HermitianEig,
    TakagiFactorization,
    haar_unitary,
    hermitian_eig,
    partial_transpose_negativity,
    takagi_symmetric,
)
from .states import (
    EpuParams,
    StateClass,
    build_alpha_beta,
    build_epu_min_tgx,
    build_epu_x_2x2,
    build_mems,
    classify,
    e_mems,
    enumerate_lpus,
    epu_unitary,
    me_tgx_states,
    physical_entanglement,
    quartets,
    subspace_extract,
)

__version__ = "0.1.0"

#: the public names: those imported above, each defined in a submodule
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__ + ".")
)
