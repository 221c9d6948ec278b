"""Twin-simulation laboratory for Vlasov-Poisson stability estimates.

Lagrangian particle flows of the Vlasov-Poisson system are run in pairs
from an identical initial sample, and the quantitative estimates behind
the optimal-transport uniqueness argument (Wasserstein field stability,
geodesic sup-norm bound, the Q(t) differential inequality, the Osgood
envelope) are certified numerically at desk scale.
"""

from .certify import (
    StabilityRecord,
    check_gronwall,
    check_lemma_w2,
    check_prop31,
    compute_Q,
    compute_T1_T2,
    osgood_contain,
    osgood_envelope,
    vanishing_perturbation_study,
)
from .dynamics import (
    FlowState,
    ParticleEnsemble,
    deposit,
    monokinetic_init,
    run_twin,
    step_leapfrog,
)
from .fields import (
    GridDensity,
    GridField,
    GridSpec,
    field_l2_diff,
    loglip_modulus,
    solve_field_direct,
    solve_field_grid,
)
from .transport import (
    GeodesicSample,
    TransportPlan,
    WeightedCloud,
    displacement_interpolate,
    geodesic_linf_check,
    w2_exact,
    w2_sinkhorn,
)

__version__ = "0.1.0"
