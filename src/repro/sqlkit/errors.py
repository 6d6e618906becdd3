"""Exception hierarchy for the SQL substrate and the pipeline layer.

Two branches share the :class:`SqlError` root so callers with an existing
``except SqlError`` net keep catching everything:

- **substrate errors** (tokenize / parse / execute / schema), and
- **pipeline errors** — lifecycle misuse, whole-stage failures and the
  serving, tenancy and checkpoint errors.

Retries are decided by a truthy ``transient`` attribute, not by a class:
:func:`repro.core.resilience.guarded_call` retries any exception that
carries one (an armed failpoint's ``InjectedFault(transient=True)``,
for instance).
"""


class SqlError(Exception):
    """Base class for all SQL-substrate errors."""


class SqlTokenError(SqlError):
    """Raised when the tokenizer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SqlParseError(SqlError):
    """Raised when the parser cannot derive a valid query from the tokens."""


class SqlExecutionError(SqlError):
    """Raised when the executor cannot evaluate a query against a database."""


class SchemaError(SqlError):
    """Raised when a query references tables/columns absent from the schema."""


class ExecutionBudgetError(SqlExecutionError):
    """Raised when a query exhausts its row/step execution budget.

    Subclasses :class:`SqlExecutionError` so existing ``except SqlError``
    handlers (e.g. the EX metric) treat a runaway candidate query as a
    non-match instead of hanging the evaluation.
    """

    def __init__(self, message: str, spent: int, limit: int) -> None:
        super().__init__(f"{message} ({spent} > limit {limit})")
        self.spent = spent
        self.limit = limit


# ----------------------------------------------------------------------
# Pipeline-layer taxonomy (used by repro.core.resilience).


class PipelineError(SqlError):
    """Base class for errors raised by the generate-then-rank pipeline."""


class PipelineStateError(PipelineError, RuntimeError):
    """A pipeline API was used in an invalid lifecycle state.

    Also a :class:`RuntimeError` for backward compatibility with callers
    that caught the bare ``RuntimeError`` older versions raised.
    """


class StageError(PipelineError):
    """A pipeline stage failed as a whole (classifier, ranker, ...)."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# ----------------------------------------------------------------------
# Serving-layer taxonomy (used by repro.serve).


class ServiceError(PipelineError):
    """Base class for errors raised by the translation serving layer."""


class Overloaded(ServiceError):
    """Admission control shed this request: the work queue is full.

    Transient by design — the client may retry after backoff; the server
    sheds instead of queueing unboundedly.
    """

    transient = True

    def __init__(self, queue_depth: int, capacity: int) -> None:
        super().__init__(
            f"translation service overloaded "
            f"(queue {queue_depth}/{capacity}); retry later"
        )
        self.queue_depth = queue_depth
        self.capacity = capacity


class ServiceStopped(ServiceError, RuntimeError):
    """A request was submitted to a service that has shut down."""


class ConfigError(SqlError, ValueError):
    """A service/tenancy configuration value is invalid at construction.

    Raised eagerly when the config object is built (``__post_init__``)
    so a bad queue size, worker count, or quota rate fails at the call
    site instead of deep inside a worker loop.  Also a
    :class:`ValueError` so callers with an existing ``except ValueError``
    net keep catching construction failures.
    """


# ----------------------------------------------------------------------
# Tenancy taxonomy (used by repro.tenancy).


class TenancyError(ServiceError):
    """Base class for errors raised by the multi-tenant routing layer."""


class UnknownTenant(TenancyError):
    """A request addressed a tenant id the registry does not hold."""

    def __init__(self, tenant_id: str, known: tuple[str, ...] = ()) -> None:
        hint = f" (known: {', '.join(known)})" if known else ""
        super().__init__(f"unknown tenant {tenant_id!r}{hint}")
        self.tenant_id = tenant_id


class TenantOverloaded(Overloaded):
    """Admission control shed this request at the *tenant* boundary.

    A noisy tenant that exhausts its token-bucket rate or its bounded
    queue share is rejected here — before touching the shared global
    queue — so other tenants' latency stays flat.  Subclasses
    :class:`Overloaded` (and is therefore transient): clients holding an
    ``except Overloaded`` retry net keep working unchanged.
    """

    def __init__(self, tenant_id: str, reason: str, detail: str = "") -> None:
        message = f"tenant {tenant_id!r} overloaded ({reason})"
        if detail:
            message += f": {detail}"
        # Overloaded.__init__ formats queue numbers; bypass it and keep
        # the shared transient semantics.
        ServiceError.__init__(self, message)
        self.tenant_id = tenant_id
        self.reason = reason


class TenantSwapError(TenancyError):
    """A shard hot swap failed and was rolled back to the previous epoch.

    The tenant keeps serving on the epoch it was on — a corrupt snapshot
    costs the swap, never the traffic.
    """

    def __init__(self, tenant_id: str, epoch: int, message: str) -> None:
        super().__init__(
            f"swap for tenant {tenant_id!r} failed; "
            f"rolled back to epoch {epoch}: {message}"
        )
        self.tenant_id = tenant_id
        self.epoch = epoch


# ----------------------------------------------------------------------
# Checkpoint taxonomy (used by repro.core.persist / repro.serve).


class CheckpointError(SqlError, ValueError):
    """A pipeline checkpoint could not be written or restored.

    Also a :class:`ValueError` for backward compatibility with callers
    that caught the bare ``ValueError`` older ``load_pipeline`` versions
    raised on a format-version mismatch.
    """

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        self.path = str(path) if path is not None else None


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file is truncated, bit-flipped, or missing."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""

    def __init__(self, found: int, supported: tuple[int, ...], path=None) -> None:
        versions = ", ".join(str(v) for v in supported)
        super().__init__(
            f"unsupported pipeline format version {found} "
            f"(supported: {versions})",
            path=path,
        )
        self.found = found
        self.supported = supported
