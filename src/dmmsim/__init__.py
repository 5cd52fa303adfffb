"""Link-level simulator and mutual-information audit toolkit for a
rotation-keyed two-stream BPSK scheme over complex AWGN."""

from .builtin_codes import BUILTIN_CODE_NAMES, builtin_code, resolve_code
from .channel import (
    GAUSSIAN_METHOD,
    SNR_CONVENTIONS,
    ChannelConfig,
    block_rng,
    ebn0_to_esn0,
    esn0_to_ebn0,
    frame_keys,
    noise_block,
    sigma2_to_snr_db,
    snr_to_sigma2,
)
from .linear_code import (
    LLR_MAX,
    AlistFormatError,
    BinaryCode,
    RankDeficiencyError,
    RepetitionExtendedCode,
    decode_soft_batch,
    encode,
    extend_repetition,
    load_alist,
    save_alist,
)
from .modem import (
    Constellation,
    beta_from_bits,
    demod_v2_hard,
    derotate_and_llr_v1,
    dmm_map,
    llr_v2,
    map_bpsk,
    rotate,
)
from .mutual_info import (
    CLAIMED_GAIN_DB,
    RECORD_GAP_DB,
    MiResult,
    awgn_entropy,
    mi_awgn,
    mi_axis,
    mi_axis_and_joint,
    mi_bpsk,
    mi_joint_4point,
    mi_qpsk,
)
from .receiver import (
    PairedRun,
    SimResult,
    paired_genie_vs_bpsk,
    run_point,
    snr_at_ber,
    wilson_interval,
)

__version__ = "0.1.0"
