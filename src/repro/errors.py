"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything the library raises with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LayoutError(ReproError):
    """An invalid layout was constructed or requested.

    Raised when a layout matrix violates the integrity constraint
    (rows must sum to one), the capacity constraint, or has entries
    outside ``[0, 1]``.
    """


class RegularizationError(LayoutError):
    """The regularizer could not produce a valid regular layout.

    The paper (Section 4.3) notes this can happen when space constraints
    are very tight and all 2M candidate regular layouts for some object
    violate capacity; manual intervention is then required.
    """


class CapacityError(LayoutError):
    """The objects cannot fit on the targets at all.

    Raised eagerly when the total object size exceeds total target
    capacity, or when a single object placement is impossible.
    """


class WorkloadError(ReproError):
    """A workload description is malformed or inconsistent.

    Examples: negative request rates, run count below one, overlap values
    outside ``[0, 1]``.
    """


class CalibrationError(ReproError):
    """A cost model was queried outside a usable calibration state."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SolverError(ReproError):
    """The NLP solve failed to produce any usable layout."""


class ScenarioError(ReproError):
    """A scenario spec, experiment matrix or problem file is malformed.

    Examples: a YAML file that does not parse, a schedule entry naming
    an unknown mix, a task weight that is not positive, a target whose
    ``kind`` or ``members`` is unusable.  Messages are
    one line and carry the file/field path so a CLI user can fix the
    spec without reading a traceback.
    """


class FaultError(ReproError):
    """A fault plan or migration journal is malformed or inconsistent.

    Examples: a fault event naming an unknown target, a journal whose
    recorded chunk list does not match the migration being resumed.
    """
