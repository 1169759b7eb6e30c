"""The probe procedure: control test, main test, classification, verdict.

The control test sends each of the four codepoints unmodified and checks
that (a) server feedback reflects the codepoint that was sent and (b) the
ingress copies the initial codepoint into the outer header.  A non-copying
ingress enables the overwrite fallback: the tester's device rewrites the
outer with a copy of the initial codepoint, and the feedback check is
repeated under that fallback.

The main test probes the four (initial, outer) combinations that separate
the known decapsulation behaviours, overwriting the outer after
encapsulation (with CE, and ECT(1) for the last row).  Each row is probed
``repetitions`` times against each server, and the votes are aggregated by
strict majority so that occasional legitimate CE-marking by an AQM, packet
loss, or one buggy server cannot flip a row.  Row consensus vectors are
matched against the reference signatures to classify the egress; behaviour
matching no signature is mangled.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .ecn import CODEPOINTS, EcnCodepoint, _Enum
from .simnet import ExchangeResult, Scenario, TunnelPath
from .tunnels import (
    Capability,
    DecapBehaviorClass,
    GREEN_CLASSES,
    OUTCOME_ORDER,
    PROBE_ROWS,
    REFERENCE_SIGNATURES,
    probe_rows,
)


class ControlFailure(Exception):
    """The tunnel and server set is unusable for testing.

    Raised when, even with the overwrite fallback in place, feedback never
    reflected any probed codepoint across all repetitions and servers.
    Carries the control report gathered so far.
    """

    def __init__(self, report: "ControlReport"):
        self.report = report
        super().__init__("no probed codepoint was ever reflected in feedback")


class CodepointControl(NamedTuple):
    """Control-test outcome for one initial codepoint."""

    feedback_matches: bool
    outer_matches_initial: bool


class ControlReport(NamedTuple):
    """Control-test outcome per codepoint.  The ingress copies ECN when every
    outer matched its initial; otherwise the overwrite fallback was enabled."""

    results: Dict[EcnCodepoint, CodepointControl]

    @property
    def ingress_copies(self) -> bool:
        return all(r.outer_matches_initial for r in self.results.values())

    @property
    def overwrite_fallback_enabled(self) -> bool:
        return not self.ingress_copies

    @property
    def failed_codepoints(self) -> Tuple[EcnCodepoint, ...]:
        return tuple(cp for cp in CODEPOINTS if not self.results[cp].feedback_matches)

    @property
    def usable(self) -> bool:
        """Whether feedback reflected some codepoint; if none, the path
        cannot be tested and the session ends in :class:`ControlFailure`."""
        return any(r.feedback_matches for r in self.results.values())


class ProbeObservation(NamedTuple):
    """The votes of one main-test row.  The row's probe and the consensus
    follow from them; a reader that needs both the consensus and the
    ambiguity flag should call :func:`aggregate` once."""

    row: int
    votes: Dict[Optional[EcnCodepoint], int]

    @property
    def initial(self) -> EcnCodepoint:
        return PROBE_ROWS[self.row][0]

    @property
    def outer_set(self) -> EcnCodepoint:
        return PROBE_ROWS[self.row][1]

    @property
    def consensus(self) -> Optional[EcnCodepoint]:
        return aggregate(self.votes)[0]

    @property
    def ambiguous(self) -> bool:
        return aggregate(self.votes)[1]


class ClassificationKind(_Enum):
    SINGLE = "single"
    AMBIGUOUS = "ambiguous"
    MANGLED = "mangled"


class Classification(NamedTuple):
    """Which known behaviours the observed signature matches.

    One class is a definite identification (SINGLE), two or more are
    AMBIGUOUS (only possible when probing with reduced capability, where
    reference signatures collide), none is MANGLED.
    """

    classes: FrozenSet[DecapBehaviorClass]

    @classmethod
    def single(cls, behavior: DecapBehaviorClass) -> "Classification":
        return cls(frozenset({behavior}))

    @classmethod
    def ambiguous(cls, behaviors) -> "Classification":
        return cls(frozenset(behaviors))

    @classmethod
    def mangled(cls) -> "Classification":
        return cls(frozenset())

    @property
    def kind(self) -> ClassificationKind:
        return _KINDS[min(len(self.classes), 2)]

    @property
    def single_class(self) -> Optional[DecapBehaviorClass]:
        return next(iter(self.classes)) if len(self.classes) == 1 else None


# Classification kinds by number of matched classes.
_KINDS = (ClassificationKind.MANGLED, ClassificationKind.SINGLE, ClassificationKind.AMBIGUOUS)


class PropagationVerdict(_Enum):
    PROPAGATES_CORRECTLY = "propagates_correctly"
    DOES_NOT_PROPAGATE = "does_not_propagate"
    UNKNOWN = "unknown"


def aggregate(votes: Dict[Optional[EcnCodepoint], int]) -> Tuple[Optional[EcnCodepoint], bool]:
    """Reduce per-exchange outcomes for one row to a consensus.

    An outcome with a strict majority wins outright.  Without one, the
    consensus is the plurality winner and the observation is flagged
    ambiguous; ties break deterministically toward the smallest outcome in
    the order dropped, Not-ECT, ECT(1), ECT(0), CE.
    """
    total = sum(votes.values())
    if total < 1:
        raise ValueError("aggregate needs at least one vote")
    # max keeps the first of equal counts, so ties go to the earliest outcome.
    best = max((o for o in OUTCOME_ORDER if o in votes), key=votes.__getitem__)
    return best, votes[best] * 2 <= total


def _send(
    path: TunnelPath, initial: EcnCodepoint, override: Optional[EcnCodepoint], repetitions: int
) -> List[ExchangeResult]:
    """Send one probe ``repetitions`` times to each server, servers varying fastest."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    exchange = path.exchange
    servers = range(path.scenario.servers)
    return [exchange(initial, override, server_id) for _ in range(repetitions) for server_id in servers]


def _control_feedback_phase(
    path: TunnelPath, repetitions: int, override: bool
) -> Dict[EcnCodepoint, CodepointControl]:
    """One pass of the control test: whether any feedback and every outer matched, per codepoint."""
    out: Dict[EcnCodepoint, CodepointControl] = {}
    # Control probes go out in wire-pattern order.
    for cp in CODEPOINTS:
        feedback_hit = False
        outer_ok = True
        # One loop, not any() and all() over generators, which cost about
        # 4% of a session.
        for result in _send(path, cp, cp if override else None, repetitions):
            if result.feedback is cp:
                feedback_hit = True
            if result.outer is not cp:
                outer_ok = False
        out[cp] = CodepointControl(feedback_hit, outer_ok)
    return out


def run_control_test(path: TunnelPath, repetitions: int = 5) -> ControlReport:
    """Verify the measurement channel before the main test.

    A codepoint's feedback check passes if at least one of its exchanges
    reflected it; a mismatch counts only when it persists across every
    repetition and server, since loss and legitimate AQM marking corrupt
    individual exchanges.  If no codepoint ever passes, the path is
    unusable and :class:`ControlFailure` is raised.
    """
    report = ControlReport(_control_feedback_phase(path, repetitions, override=False))
    if report.overwrite_fallback_enabled:
        # Re-verify feedback with the outer forced to a copy of the initial.
        fallback = _control_feedback_phase(path, repetitions, override=True)
        report = ControlReport({
            cp: CodepointControl(fallback[cp].feedback_matches, res.outer_matches_initial)
            for cp, res in report.results.items()
        })
    if not report.usable:
        raise ControlFailure(report)
    return report


def run_main_test(
    path: TunnelPath, capability: Capability = Capability.FULL, repetitions: int = 5
) -> List[ProbeObservation]:
    """Probe the signature rows and count each row's votes.

    Each row sends its initial codepoint and overwrites the outer after
    encapsulation with the row's value, ``repetitions`` times per server.
    The row overwrite makes the control test's fallback decision moot here
    (the outer is forced either way), so results are identical for copying
    and non-copying ingresses.
    """
    observations = []
    for row_index, (initial, outer_set) in enumerate(probe_rows(capability)):
        # A vote is the feedback itself: the onward codepoint, None for a drop.
        votes: Dict[Optional[EcnCodepoint], int] = {}
        for result in _send(path, initial, outer_set, repetitions):
            feedback = result.feedback
            votes[feedback] = votes.get(feedback, 0) + 1
        observations.append(ProbeObservation(row_index, votes))
    return observations


# Classifications by capability, then by reference signature: single, or
# ambiguous where classes share a signature (CE-only RFC 6040 and RFC 3168).
# Any other signature is mangled.
_CLASSIFICATIONS = {
    capability: {
        observed: Classification(frozenset(b for b, signature in signatures.items() if signature == observed))
        for observed in signatures.values()
    }
    for capability, signatures in REFERENCE_SIGNATURES.items()
}
_MANGLED = Classification.mangled()


def classify(
    observations: List[ProbeObservation], capability: Capability = Capability.FULL
) -> Classification:
    """Match the observed consensus vector against the reference signatures.

    Exactly one matching class is a definite identification.  With reduced
    capability the truncated RFC 6040 and RFC 3168 signatures coincide, so
    both are reported.  No match at all means the egress mangles the ECN
    field in some way none of the specifications produce.
    """
    rows = probe_rows(capability)
    if len(observations) != len(rows):
        raise ValueError(f"expected {len(rows)} observations for {capability.value}, got {len(observations)}")
    return _CLASSIFICATIONS[capability].get(tuple(obs.consensus for obs in observations), _MANGLED)


def interpret(classification: Classification) -> PropagationVerdict:
    """Translate a classification into the propagation verdict.

    The RFC 6040, RFC 4301 and RFC 3168 behaviours all propagate ECN marks
    correctly, so any classification that cannot fall outside that set is a
    pass; a simple or mangled egress is a fail; anything else is unknown.
    """
    classes = classification.classes
    if classes and classes <= GREEN_CLASSES:
        return PropagationVerdict.PROPAGATES_CORRECTLY
    if len(classes) <= 1:
        return PropagationVerdict.DOES_NOT_PROPAGATE
    return PropagationVerdict.UNKNOWN


class ProbeSessionResult(NamedTuple):
    control: ControlReport
    observations: List[ProbeObservation]
    classification: Classification
    exchanges: List[ExchangeResult]

    @property
    def verdict(self) -> PropagationVerdict:
        return interpret(self.classification)

    @property
    def any_ambiguous(self) -> bool:
        return any(obs.ambiguous for obs in self.observations)


def run_probe_session(
    scenario: Scenario,
    capability: Capability = Capability.FULL,
    repetitions: int = 5,
) -> ProbeSessionResult:
    """Run the full procedure over one path: control, main, classify, interpret."""
    path = TunnelPath(scenario)
    control = run_control_test(path, repetitions)
    observations = run_main_test(path, capability, repetitions)
    classification = classify(observations, capability)
    # The path is private to this session, so its log is handed over.
    return ProbeSessionResult(control, observations, classification, path.log)
