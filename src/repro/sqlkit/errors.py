"""Exception hierarchy for the SQL substrate and the pipeline layer.

Two branches share the :class:`SqlError` root so callers with an existing
``except SqlError`` net keep catching everything:

- **substrate errors** (tokenize / parse / execute / schema), and
- **pipeline errors** — lifecycle misuse, whole-stage failures and the
  serving errors.

No error is retried: :func:`repro.core.resilience.guarded_call` runs a
stage once and applies the stage's fallback on its first fault.
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

    The client may retry after backoff; the server sheds instead of
    queueing unboundedly.
    """

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
    """A service configuration value is invalid at construction.

    Raised eagerly when the config object is built (``__post_init__``)
    so a bad queue size, worker count, or default deadline fails at the
    call site instead of deep inside a worker loop.  Also a
    :class:`ValueError` so callers with an existing ``except ValueError``
    net keep catching construction failures.
    """
