"""Space and time dependent number scaling on flat manifolds.

Exact scaled number structures, a complex scaling field with its connection,
gauge-invariance checks, scaled nonlocal quantities (wave packets, path
lengths, geodesics, outcome comparison), and a scenario-driven CLI.
"""

from .axioms import AxiomReport, AxiomResult, axiom_suite
from .errors import (
    BoundaryPoint,
    DegenerateParameterization,
    DivisionByZero,
    NotInBaseSet,
    NotRepresentable,
    OrderUndefined,
    OutOfBounds,
    ScaleFieldError,
    ScenarioParseError,
    ScenarioValidationError,
    ZeroCoupling,
    ZeroLevel,
    ZeroScaling,
)
from .exact import ComplexFraction, parse_fraction
from .fields import (
    AxisDerivativeField,
    CombinationField,
    ConstantField,
    FieldSpec,
    GaussianField,
    LinearField,
    RadialPolynomial,
    ScalingField,
    TabulatedField,
    connection_factor,
    eval_f,
    gradients,
)
from .gauge import (
    GaugeConfig,
    GaugeTransform,
    apply_transform,
    gauge_connection,
    gauge_covariant_derivative,
    invariance_residual,
)
from .geodesics import (
    GeodesicBatch,
    GeodesicState,
    Trajectory,
    integrate_geodesic,
    integrate_geodesics,
    trajectory_path,
)
from .manifold import Manifold
from .outcomes import ComparisonReport, Outcome, compare_outcomes, numbers_equal
from .packets import (
    WavePacket,
    canonical_momentum_shift,
    gaussian_packet,
    packet_norm_squared,
    scale_wave_packet,
)
from .paths import (
    AnalyticPath,
    Path,
    PerturbedPath,
    PolylinePath,
    SegmentPath,
    SplinePath,
    VariationalReport,
    change_reference,
    local_path_length,
    scaled_path_length,
    variational_check,
)
from .runner import run_scenario
from .scenario import Scenario, parse_scenario, validate_scenario
from .structures import (
    BaseNumber,
    ScaledOps,
    ScaledStructure,
    ScaledValue,
    ScaledVectorSpace,
    group_action,
    number_of,
    relabel,
    scaled_ops,
    structure,
    value_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
