"""Tests for the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

import repro.errors
from repro.errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactRejectedError,
    ArtifactSchemaError,
    CertificationError,
    CertificationFailedError,
    CheckpointError,
    DomainError,
    InfeasibleConstraintError,
    InputFileError,
    InvalidGeneratorError,
    InvalidModelError,
    InvalidPolicyError,
    ModelRejectedError,
    NotIrreducibleError,
    ReproError,
    ServeRequestError,
    SimulationError,
    SolverError,
    TraceIntegrityError,
    WorkerFailureError,
)

ALL_PUBLIC = [
    InvalidGeneratorError,
    NotIrreducibleError,
    InvalidModelError,
    DomainError,
    ModelRejectedError,
    InvalidPolicyError,
    SolverError,
    InfeasibleConstraintError,
    SimulationError,
    WorkerFailureError,
    CheckpointError,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    ArtifactRejectedError,
    ServeRequestError,
    TraceIntegrityError,
    CertificationError,
    CertificationFailedError,
    InputFileError,
]


class TestHierarchy:
    @pytest.mark.parametrize("exc", ALL_PUBLIC)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_every_public_exception_is_covered(self):
        # Keep ALL_PUBLIC in sync with the module: every ReproError
        # subclass defined in repro.errors must appear above.
        defined = {
            obj
            for obj in vars(repro.errors).values()
            if isinstance(obj, type)
            and issubclass(obj, ReproError)
            and obj is not ReproError
        }
        assert defined == set(ALL_PUBLIC)

    def test_infeasible_is_solver_error(self):
        # Callers treating infeasibility as a solver failure still work.
        assert issubclass(InfeasibleConstraintError, SolverError)

    def test_worker_failure_is_simulation_error(self):
        assert issubclass(WorkerFailureError, SimulationError)

    def test_artifact_family_is_catchable_as_artifact_error(self):
        for exc in (
            ArtifactIntegrityError,
            ArtifactSchemaError,
            ArtifactRejectedError,
        ):
            assert issubclass(exc, ArtifactError)

    def test_trace_integrity_is_simulation_error(self):
        # Callers treating corrupt trace files as simulation failures
        # still work.
        assert issubclass(TraceIntegrityError, SimulationError)

    def test_certification_failure_is_certification_error(self):
        # A policy that fails its certificate is catchable alongside
        # engine errors (bad fingerprint, corrupt certificate document).
        assert issubclass(CertificationFailedError, CertificationError)

    def test_domain_and_rejection_are_invalid_model_errors(self):
        # Callers treating admission rejections and closed-form domain
        # violations as bad models still work.
        assert issubclass(DomainError, InvalidModelError)
        assert issubclass(ModelRejectedError, InvalidModelError)

    def test_library_failures_catchable_in_one_clause(self):
        from repro.dpm.service_requestor import ServiceRequestor

        with pytest.raises(ReproError):
            ServiceRequestor(-1.0)


class TestDiagnosticsPayloads:
    def test_solver_error_defaults_to_empty_diagnostics(self):
        assert SolverError("boom").diagnostics == {}

    def test_solver_error_copies_diagnostics(self):
        source = {"iteration": 3}
        exc = SolverError("boom", diagnostics=source)
        source["iteration"] = 99
        assert exc.diagnostics == {"iteration": 3}

    def test_worker_failure_carries_diagnostics(self):
        exc = WorkerFailureError("boom", diagnostics={"chunks": []})
        assert exc.diagnostics == {"chunks": []}


class TestRaisedByLibraryPaths:
    """Each exception family is reachable through a real call path."""

    def test_invalid_generator(self):
        from repro.markov.chain import ContinuousTimeMarkovChain

        with pytest.raises(InvalidGeneratorError):
            ContinuousTimeMarkovChain(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_not_irreducible(self, reducible_generator):
        from repro.markov.generator import stationary_distribution

        with pytest.raises(NotIrreducibleError):
            stationary_distribution(reducible_generator)

    def test_invalid_model(self):
        from repro.dpm.service_provider import ServiceProvider

        with pytest.raises(InvalidModelError):
            ServiceProvider(
                modes=["a", "a"],  # duplicate mode names
                switching_rates=np.ones((2, 2)),
                service_rates=[1.0, 0.0],
                power=[1.0, 0.0],
                switching_energy=np.zeros((2, 2)),
            )

    def test_invalid_policy(self, paper_mdp):
        from repro.ctmdp.policy import Policy

        with pytest.raises(InvalidPolicyError):
            Policy(paper_mdp, {})

    def test_solver_error_with_diagnostics(self):
        from repro.robust.guardrails import solve_with_fallback

        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError) as excinfo:
            solve_with_fallback(singular, np.array([1.0, 2.0]))
        assert "condition_number" in excinfo.value.diagnostics

    def test_infeasible_constraint(self, paper_model):
        from repro.dpm.optimizer import find_weight_for_constraint

        with pytest.raises(InfeasibleConstraintError):
            find_weight_for_constraint(paper_model, max_queue_length=1e-9)

    def test_simulation_error(self):
        from repro.sim.batch import summarize

        with pytest.raises(SimulationError):
            summarize([])

    def test_worker_failure(self):
        from repro.sim.parallel import parallel_map

        with pytest.raises(WorkerFailureError):
            parallel_map(
                lambda x: x, range(4), n_jobs=2,
                max_retries=0, backoff_s=0.001,
                validate=lambda rs: False,
            )

    def test_trace_integrity(self, tmp_path):
        from repro.sim.trace_io import load_trace, save_trace
        from repro.sim.workload import TraceArrivals

        path = tmp_path / "trace.csv"
        save_trace(TraceArrivals([1.0, 2.0]), path)
        lines = path.read_text().splitlines()
        lines[1] = "1.5"  # hand-edit a timestamp under the checksum
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceIntegrityError):
            load_trace(path)

    def test_certification_error(self):
        from repro.certify import CertificationReport

        with pytest.raises(CertificationError):
            CertificationReport.from_document({"schema": "bogus/v9"})

    def test_checkpoint_error(self, tmp_path):
        from repro.robust.checkpoint import Checkpoint

        path = tmp_path / "c.json"
        Checkpoint(path, {"a": 1}).put("k", 1)
        with pytest.raises(CheckpointError):
            Checkpoint(path, {"a": 2}, resume=True)
