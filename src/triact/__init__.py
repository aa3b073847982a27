"""Numerics for nonlocality activation in tripartite quantum networks."""

from .channels import (KrausChannel, apply, local_decohere, make_ad, make_d,
                       make_erasure, make_pd)
from .criteria import (Classification, classify, correlation_matrix,
                       hashing_criterion, horodecki_m, maximize_chsh)
from .harness import ExperimentConfig, run
from .protocols import (ProtocolOutcome, bell_state,
                        build_symmetric_extension, double_teleport,
                        eq2_mixture, erased_protocol, teleport_distribution,
                        verify_locality_observation)
from .qcore import (DensityMatrix, PureState, fidelity_pure, partial_trace,
                    project_and_condition, tensor, von_neumann_entropy)
from .states import (RngSeed, erased, isotropic, max_entangled,
                     random_mixed_hs, random_pure_fs)

__version__ = "0.1.0"
