"""The analysis engine with the scalar oracle pipeline swapped in."""

from __future__ import annotations

from repro.analysis.engine import VibrationAnalysisEngine
from tests.reference.pipeline import ReferencePipeline


class ReferenceEngine(VibrationAnalysisEngine):
    """:class:`VibrationAnalysisEngine` running :class:`ReferencePipeline`.

    Everything around the pipeline — retrieval, quarantine, label join,
    diagnosis, cost — is the production engine's, so a report rendered
    from this engine must be byte-identical to a production report.
    """

    def _make_pipeline(self) -> ReferencePipeline:
        return ReferencePipeline(self.config.pipeline)
