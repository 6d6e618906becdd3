"""Translation-model interface shared by Seq2seq sims and LLM sims."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.data.dataset import Dataset
from repro.schema.database import Database
from repro.sqlkit.ast import Query


@dataclass(frozen=True)
class Candidate:
    """One decoded SQL candidate with its (log-probability-like) score."""

    query: Query
    score: float

    def __lt__(self, other: "Candidate") -> bool:  # for heap/sort stability
        return self.score < other.score


class TranslationModel(abc.ABC):
    """Abstract NL2SQL translation model.

    ``translate`` returns beam candidates ordered best-first.  When
    ``metadata`` is supplied (a :class:`repro.core.metadata.QueryMetadata`),
    a metadata-aware model conditions its decoding on it; models not trained
    with metadata ignore it (mirroring the paper's optional augmented
    training step).

    Work that depends only on ``(question, db)`` can be done once per
    question: ``prepare`` returns a request-local context that the caller
    hands to every ``translate`` of that question as ``prepared=``.
    """

    #: Whether the model fills literal values (BRIDGE/RESDSQL/LLMs do,
    #: GAP/LGESQL emit 'value' placeholders).
    predicts_values: bool = True

    #: Whether metadata-augmented training was applied (Section III-B1).
    metadata_trained: bool = False

    name: str = "model"

    @abc.abstractmethod
    def fit(self, train: Dataset) -> "TranslationModel":
        """Train (or, for LLM sims, index demonstrations) on *train*."""

    def prepare(self, question: str, db: Database, cues=None):
        """Question-level decode context for *question* on *db*, or None.

        The result is valid only for translations of this same question
        and database, and is never kept past the caller's request.
        *cues*, when given, is ``extract_cues(question, db)`` computed
        earlier in the same request.  The default has nothing to share.
        """
        return None

    @abc.abstractmethod
    def translate(
        self,
        question: str,
        db: Database,
        metadata=None,
        beam_size: int = 5,
        prepared=None,
    ) -> list[Candidate]:
        """Decode up to *beam_size* candidates, best first.

        *prepared* is ``self.prepare(question, db)``, or None to build
        whatever question-level state the decode needs itself.
        """
