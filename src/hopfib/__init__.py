"""Exact computation with finite-dimensional bialgebras over prime fields.

The package represents bialgebras and Hopf algebras by explicit structure
constants, computes their characters, winding automorphisms, primitive
ideals and simple modules, and the sizes of their fiber algebras, and checks on
concrete instances that the fibers of the primitive-ideal contraction map
onto a central subalgebra match the orbits of the character-group action.
"""

__version__ = "0.1.0"

from .algebra import (
    StructureConstantAlgebra,
    build_algebra,
    ideal_closure,
    is_central_subalgebra,
)
from .corpus import (
    CorpusInstance,
    GroupTable,
    builtin_group,
    group_algebra,
    group_algebra_pair,
    quantum_m2_kernel,
    quantum_sl2_kernel,
    shipped_instance,
    small_quantum_sl2,
)
from .hopf import (
    BialgebraData,
    Character,
    CoidealSubalgebra,
    build_bialgebra,
    character_group_X,
    coideal_subalgebra,
    convolve,
    enumerate_characters,
    fiber_dim,
    is_right_coideal,
    verify_structure,
    winding,
)
from .linalg import FieldSpec, Subspace, find_root_of_unity, modinv, rref
from .repn import SpectrumRecord, simples, spectrum
from .rewrite import Presentation, complete_check, enumerate_basis, extract_bialgebra, normalize
from .specmap import (
    Fibers,
    Verdict,
    fibers,
    orbits,
    remark_uniform_fibers,
    verify_theorem,
)

__all__ = [
    "__version__",
    "BialgebraData",
    "Character",
    "CoidealSubalgebra",
    "CorpusInstance",
    "FieldSpec",
    "Fibers",
    "GroupTable",
    "Presentation",
    "SpectrumRecord",
    "StructureConstantAlgebra",
    "Subspace",
    "Verdict",
    "build_algebra",
    "build_bialgebra",
    "builtin_group",
    "character_group_X",
    "coideal_subalgebra",
    "complete_check",
    "convolve",
    "enumerate_basis",
    "enumerate_characters",
    "extract_bialgebra",
    "fiber_dim",
    "fibers",
    "find_root_of_unity",
    "group_algebra",
    "group_algebra_pair",
    "ideal_closure",
    "is_central_subalgebra",
    "is_right_coideal",
    "modinv",
    "normalize",
    "orbits",
    "quantum_m2_kernel",
    "quantum_sl2_kernel",
    "remark_uniform_fibers",
    "rref",
    "shipped_instance",
    "simples",
    "small_quantum_sl2",
    "spectrum",
    "verify_structure",
    "verify_theorem",
    "winding",
]
