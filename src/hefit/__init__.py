"""Encrypted multiclass logistic regression on a CKKS-style emulator.

The package is organized bottom-up:

- :mod:`hefit.emulator` — slot-vector ciphertext emulation with an
  operation ledger and level tracking;
- :mod:`hefit.encoding` — matrices packed onto slot grids whose
  arithmetic broadcasts a one-block axis, tilings, one-block masks, the
  rotation/fold helpers, and the packed refresh of tiled matrices;
- :mod:`hefit.matmul` — the depth-3 diagonal matmul kernels, the
  column/row-major baselines, and their closed-form op counts;
- :mod:`hefit.approx` — polynomial max / exp / reciprocal pipelines and
  the approximate softmax built from them;
- :mod:`hefit.training` — Nesterov-accelerated multiclass training over
  a two-party message channel (:mod:`hefit.protocol`);
- :mod:`hefit.plainref` — the plaintext twin used for oracles;
- :mod:`hefit.cli` — ``hefit`` command line (train / bench / gen-data).
"""

from .approx import (
    DEFAULTS,
    SoftmaxConfig,
    a_comp,
    a_exp,
    a_inv,
    a_max,
    a_softmax,
    amax_error_bound,
    domain_extend,
    small_domain_eps,
    theorem_beta,
)
from .datasets import ingest, load_csv, make_gaussian_mixture, save_csv
from .emulator import (
    DEFAULT_OP_WEIGHTS_MS,
    OP_KINDS,
    CipherBlock,
    EmulatorContext,
    OpLedger,
)
from .encoding import (
    EncodedMatrix,
    bootstrap_tiled,
    col_range_mask,
    col_sums,
    decode,
    encode,
    first_period,
    make_mask,
    next_pow2,
    pattern_matrix,
    prot_up,
    rot_left,
    rot_up,
    row_sums,
)
from .errors import (
    ConfigError,
    DataError,
    DepthExhausted,
    HefitError,
    LevelError,
    ProtocolError,
    ResidualImaginary,
    ShapeMismatch,
    SlotCountMismatch,
    TilingError,
)
from .matmul import (
    ALGORITHMS,
    col_major_abt,
    count_formula,
    diag_abt,
    diag_atb,
    row_major_atb,
)
from .plainref import exact_softmax, reference_fit
from .protocol import ChannelEndpoint, channel_pair, pack_matrix, unpack_matrix
from .training import FitResult, TrainState, fit, nag_step, run_steps

__version__ = "0.1.0"

__all__ = [
    "DEFAULTS",
    "DEFAULT_OP_WEIGHTS_MS",
    "OP_KINDS",
    "ALGORITHMS",
    "SoftmaxConfig",
    "CipherBlock",
    "EmulatorContext",
    "OpLedger",
    "EncodedMatrix",
    "FitResult",
    "TrainState",
    "ChannelEndpoint",
    "HefitError",
    "DepthExhausted",
    "LevelError",
    "SlotCountMismatch",
    "ShapeMismatch",
    "TilingError",
    "ResidualImaginary",
    "ConfigError",
    "DataError",
    "ProtocolError",
    "a_comp",
    "a_exp",
    "a_inv",
    "a_max",
    "a_softmax",
    "amax_error_bound",
    "domain_extend",
    "small_domain_eps",
    "theorem_beta",
    "encode",
    "decode",
    "next_pow2",
    "make_mask",
    "col_range_mask",
    "pattern_matrix",
    "rot_up",
    "rot_left",
    "prot_up",
    "col_sums",
    "row_sums",
    "first_period",
    "bootstrap_tiled",
    "diag_abt",
    "diag_atb",
    "col_major_abt",
    "row_major_atb",
    "count_formula",
    "exact_softmax",
    "reference_fit",
    "channel_pair",
    "pack_matrix",
    "unpack_matrix",
    "fit",
    "nag_step",
    "run_steps",
    "make_gaussian_mixture",
    "save_csv",
    "load_csv",
    "ingest",
    "__version__",
]
