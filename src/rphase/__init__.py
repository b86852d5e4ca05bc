"""rphase: multiple-control Toffoli synthesis over Clifford+T using
relative-phase Toffoli building blocks, with conjugation rewrites and
exact verification by cyclotomic-ring simulation."""

from .circuit import (
    Circuit,
    Gate,
    InputError,
    ResourceReport,
    TargetSpec,
    ROLE_CLEAN,
    ROLE_DIRTY,
    ROLE_PRIMARY,
    count_resources,
)
from .ring import RingElement
from .catalog import (
    cnu_clean_chain,
    cnu_parallel,
    cnu_spec,
    get_entry,
    ladder_tofn,
    ladder_tofn_spec,
    margolus_ry,
    margolus_t_variant,
    rtof3_long,
    rtof3_ry_negctrl,
    rtof4_long,
    srtof3_ccix,
    toffoli3,
    tofn,
    tof4_dirty,
    tof4_dirty_spec,
    tof5_dirty,
    tof5_dirty_spec,
    tofn_clean,
    tofn_clean_spec,
    tofn_dirty,
    tofn_dirty_spec,
    two_block_tofn,
    two_block_tofn_spec,
)
from .lowering import lower
from .qasm import QasmError, emit_qasm, parse_qasm
from .rewrite import (
    ConjugationMatch,
    REPLACEMENT_IMPLS,
    admissible,
    apply_replacement,
    apply_rules,
    cancel_adjacent_inverses,
    find_conjugations,
)
from .simulate import (
    NotAPhasePermutation,
    PhasePermutation,
    equivalent,
    unitary_columns,
)
from .verify import VerificationReport, check_implements

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
