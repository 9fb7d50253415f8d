"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except``
clause while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidGeneratorError(ReproError):
    """A matrix does not satisfy the generator (differential) properties.

    A valid generator matrix has non-negative off-diagonal entries and
    rows that sum to zero (Eqn. 2.4 of the paper).
    """


class NotIrreducibleError(ReproError):
    """An operation required an irreducible chain but got a reducible one.

    The limiting distribution of a CTMC is only guaranteed to exist and be
    independent of the initial state for irreducible positive-recurrent
    chains (Theorem 2.1 of the paper).
    """


class InvalidModelError(ReproError):
    """A model definition is inconsistent (shapes, signs, missing actions)."""


class DomainError(InvalidModelError):
    """A closed-form formula was asked for inputs outside its domain.

    Raised by the queueing closed forms (``rho >= 1`` on an infinite
    queue, zero rates, non-finite parameters) instead of letting a
    division emit ``inf``/``NaN``. Subclasses
    :class:`InvalidModelError` so existing ``except InvalidModelError``
    call sites keep working.
    """


class ModelRejectedError(InvalidModelError):
    """The model-admission gate rejected a model.

    Carries the full :class:`repro.robust.admission.AdmissionReport`
    (as ``report``) so callers can inspect the individual findings --
    finding codes, state/action coordinates, suggested remediation --
    programmatically; ``report_dict`` is its JSON-serializable form.
    """

    def __init__(self, message: str, report: "Optional[Any]" = None) -> None:
        super().__init__(message)
        self.report = report

    @property
    def report_dict(self) -> "Optional[Dict[str, Any]]":
        return self.report.to_dict() if self.report is not None else None


class InvalidPolicyError(ReproError):
    """A policy refers to unknown states/actions or violates constraints."""


class SolverError(ReproError):
    """An optimization algorithm failed to converge or found no solution.

    Carries an optional structured ``diagnostics`` mapping (iteration
    counts, condition numbers, residuals, the offending policy, ...) so
    callers and operators can act on the failure programmatically
    instead of parsing the message. The payload is JSON-serializable by
    construction; :mod:`repro.robust.guardrails` documents the schema
    of the entries it emits.
    """

    def __init__(
        self, message: str, diagnostics: "Optional[Dict[str, Any]]" = None
    ) -> None:
        super().__init__(message)
        self.diagnostics: "Dict[str, Any]" = dict(diagnostics or {})


class InfeasibleConstraintError(SolverError):
    """No policy can satisfy the requested performance constraint."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent internal state."""


class WorkerFailureError(SimulationError):
    """Parallel work could not complete even after retries and the
    serial degradation path also failed.

    Raised by :func:`repro.sim.parallel.parallel_map` only when every
    recovery rung (bounded retry with backoff, then in-process serial
    re-execution) has been exhausted; carries the per-chunk failure
    history in ``diagnostics``.
    """

    def __init__(
        self, message: str, diagnostics: "Optional[Dict[str, Any]]" = None
    ) -> None:
        super().__init__(message)
        self.diagnostics: "Dict[str, Any]" = dict(diagnostics or {})


class CheckpointError(ReproError):
    """A checkpoint file is unreadable, corrupt, or belongs to a
    different configuration than the resuming run."""


class ArtifactError(ReproError):
    """A policy-serving artifact could not be produced, stored, or
    loaded. Base class of the serve-pipeline failure family; the CLI
    maps it to its own exit code so operators can distinguish artifact
    trouble from solver or model failures."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact file is unreadable, truncated, or fails its
    checksum -- corruption, a torn write, or a non-artifact file.
    Loading never trusts such a file; the serving runtime keeps
    answering from the last admitted artifact instead."""


class ArtifactSchemaError(ArtifactError):
    """An artifact parses as JSON but does not match the
    ``repro-policy/v1`` schema (missing fields, wrong shapes, an
    unknown format version)."""


class ArtifactRejectedError(ArtifactError):
    """An artifact is structurally intact but inadmissible: its model
    fingerprint does not match the serving model, the admission gate
    rejected the model it encodes, its policy names invalid
    states/actions, or its metrics are non-finite.

    Carries the admission ``report`` (when the gate produced one) so
    callers can inspect findings programmatically.
    """

    def __init__(self, message: str, report: "Optional[Any]" = None) -> None:
        super().__init__(message)
        self.report = report


class ServeRequestError(ReproError):
    """A decision request named an unknown mode or was otherwise
    malformed. The serving layer answers such requests with a typed
    error payload -- never a traceback, never a guessed action."""


class TraceIntegrityError(SimulationError):
    """A persisted trace or result file is corrupt: checksum mismatch,
    truncation, or unparseable content. The message always names the
    offending path (and line, for traces) so operators can locate the
    damaged file; subclasses :class:`SimulationError` so it maps into
    the CLI's simulation exit code."""


class InputFileError(ReproError):
    """A file named on the command line is missing, unreadable, or not
    a document of the expected kind (e.g. ``repro-dpm profile`` given a
    path that does not exist or does not hold profile JSON). The
    message names the offending path."""


class CertificationError(ReproError):
    """The certification engine could not run: inconsistent inputs
    (a constrained solve without its bounds, a model/artifact
    fingerprint mismatch) or a corrupt certificate document. Distinct
    from a *failed* certification, which is a successful run whose
    report says ``verdict == "failed"``."""


class CertificationFailedError(CertificationError):
    """A solved policy failed independent certification.

    Carries the full :class:`repro.certify.CertificationReport` (as
    ``report``) so callers can inspect the typed findings -- Bellman
    gap, LP duality gap, exact-arithmetic mismatch, backend
    disagreement -- programmatically. Raised by
    :func:`repro.certify.require_certified`; the CLI maps the
    certification family to its own exit code.
    """

    def __init__(self, message: str, report: "Optional[Any]" = None) -> None:
        super().__init__(message)
        self.report = report
