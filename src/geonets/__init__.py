"""geonets: construct, relax, and verify planar geodesic nets.

A geodesic net is an embedded graph whose interior vertices are balanced:
the unit vectors along the incident edges of each sum to zero.  The package
builds the known irreducible net with 4 boundary and 25 balanced vertices
exactly, relaxes arbitrary pinned-boundary topologies by damped Newton steps
on total edge length, and verifies balance, overlap-freeness, the
construction's angle and distance identities, and irreducibility.
"""

from .angles import (
    AngleSolution,
    ConstructionParams,
    boundary_leg,
    compute_K,
    f_g_h,
    params_from_solution,
    side_long,
    solve_angles,
)
from .builder import (
    RING_EXPERIMENTAL,
    T2_OCTAGON,
    T3_DODECAGON,
    ConstructionResult,
    NetFamily,
    Template,
    build_dodecagon,
    build_net25,
    topology_template,
)
from .errors import (
    DegenerateConfiguration,
    DegenerateEdge,
    DomainError,
    GeonetsError,
    IdMismatch,
    InvariantViolation,
    IoError,
    NoFermatPoint,
    NoTrace,
    ParallelLines,
    ParseError,
    SearchBudgetExceeded,
    SingularDenominator,
    UnknownVertex,
    UnsupportedFamily,
)
from .geom import (
    Point,
    Transform,
    align_rigid,
    angle_ccw,
    dist,
    fermat_point,
    interior_angles,
    line_intersection,
    unit_toward,
)
from .io import (
    SvgStyle,
    cli,
    export_report,
    export_svg,
    load_net,
    save_net,
)
from .net import (
    BOUNDARY,
    INTERIOR,
    EmbeddedNet,
    ImbalanceReport,
    NetTopology,
    OverlapFinding,
    canonical_edge,
    detect_overlaps,
    imbalance,
    total_report,
)
from .relax import (
    STATUS_CONVERGED,
    STATUS_DEGENERATED,
    STATUS_MAX_ITERS,
    STATUS_STALLED,
    RelaxConfig,
    RelaxOutcome,
    TracePoint,
    export_trace_frames,
    relax,
)
from .verify import (
    IRR_NO,
    IRR_NOT_CHECKED,
    IRR_YES,
    LemmaCheck,
    LemmaReport,
    Subnet,
    VerificationReport,
    balanced_subsets,
    check_lemmas,
    is_irreducible,
    verify_geodesic_net,
    witness_net,
)

__version__ = "0.1.0"
