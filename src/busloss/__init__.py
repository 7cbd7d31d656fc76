"""60 GHz intra-bus path loss toolkit.

Log-distance shadow-fading channel models fitted inside a city bus, plus the
surrounding machinery: least-squares parameter fitting, power-delay-profile
reduction, bus seat geometry, and link budget / interference analysis.
"""

from .fit import (
    DegenerateDataError,
    FitResult,
    InsufficientDataError,
    SampleSet,
    fit_by_partition,
    fit_log_distance,
    synth_samples,
)
from .geometry import (
    BusLayout,
    ExcludedPositionError,
    LayoutError,
    Point3,
    SeatNotFoundError,
    SeatSpec,
    default_layout,
    link_distance,
    load_layout,
    seat_links,
    seats_in_group,
    tx_position,
)
from .linkbudget import (
    FootprintSummary,
    LinkBudgetConfig,
    SeatReport,
    empirical_coverage,
    interference_footprint,
    link_snr,
    noise_floor_dbm,
    seat_sweep,
    shannon_rate,
)
from .models import (
    CombinedForm,
    HeightClass,
    PathLossModel,
    Region,
    builtin_model,
    builtin_models,
    builtin_registry,
    compare_models,
    coverage_probability,
    fspl,
    from_combined_form,
    mean_path_loss,
    path_loss_band,
    sample_path_loss,
    to_combined_form,
    verify_registry,
)
from .pdp import (
    LinkCalibration,
    MeasurementSet,
    PdpFormatError,
    PdpRecord,
    aggregate_measurement,
    delay_to_distance,
    integrate_pdp,
    load_measurement_dir,
    load_pdp_csv,
    path_loss_from_power,
    peak_component,
)

__version__ = "0.1.0"
