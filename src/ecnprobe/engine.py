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
``repetitions`` times against each server, a fan-out that
:meth:`TunnelPath.send_each` does for a whole phase in one call, over one
module-level tuple, whose plans a later session of the path's shape finds
in one lookup.  The path fixes a session's servers, capability and
repetitions, and checks them once, when it is built.  Each row's votes are
counted in C and aggregated by strict majority so that occasional
legitimate CE-marking by an AQM, loss, or one buggy server cannot flip it.
Row consensus vectors are matched against the reference signatures to
classify the egress; behaviour matching no signature is mangled.
"""

from collections import _count_elements
from operator import attrgetter
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .ecn import CODEPOINTS, EcnCodepoint, _Enum
from .simnet import ExchangeResult, Scenario, TunnelPath
from .tunnels import (
    Capability,
    DecapBehaviorClass,
    GREEN_CLASSES,
    OUTCOME_ORDER,
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


class ControlReport(NamedTuple):
    """The control test's two answers, each a set of codepoints: those that
    some feedback reflected (under the overwrite fallback when it ran), and
    those whose every outer the ingress copied from the initial.  The
    ingress copies ECN when it copied all four; otherwise the overwrite
    fallback was enabled."""

    reflected: FrozenSet[EcnCodepoint]
    copied: FrozenSet[EcnCodepoint]

    @property
    def ingress_copies(self) -> bool:
        return len(self.copied) == len(CODEPOINTS)

    @property
    def overwrite_fallback_enabled(self) -> bool:
        return not self.ingress_copies


class ProbeObservation(NamedTuple):
    """One main-test row's votes and the decision :func:`aggregate` made from
    them, once, where the row is made.  A session's n-th observation is the
    row ``PROBE_ROWS[n]``."""

    votes: Dict[Optional[EcnCodepoint], int]
    consensus: Optional[EcnCodepoint]
    ambiguous: bool


class ClassificationKind(_Enum):
    """How many classes a classification, the set of matched classes, holds:
    one, two or more (only with reduced capability), or none."""

    SINGLE = "single"
    AMBIGUOUS = "ambiguous"
    MANGLED = "mangled"

    @classmethod
    def of(cls, classes: FrozenSet[DecapBehaviorClass]) -> "ClassificationKind":
        return (cls.MANGLED, cls.SINGLE, cls.AMBIGUOUS)[min(len(classes), 2)]


class PropagationVerdict(_Enum):
    PROPAGATES_CORRECTLY = "propagates_correctly"
    DOES_NOT_PROPAGATE = "does_not_propagate"


def aggregate(votes: Dict[Optional[EcnCodepoint], int]) -> Tuple[Optional[EcnCodepoint], bool]:
    """Reduce per-exchange outcomes for one row to a consensus.

    An outcome with a strict majority wins outright.  Without one, the
    consensus is the plurality winner and the observation is flagged
    ambiguous; ties break deterministically toward the smallest outcome in
    the order dropped, Not-ECT, ECT(1), ECT(0), CE.  A key outside
    ``OUTCOME_ORDER`` counts toward the total but never wins.
    """
    total = sum(votes.values())
    if total < 1:
        raise ValueError("aggregate needs at least one vote")
    for outcome, n in votes.items():
        if n * 2 > total and outcome in OUTCOME_ORDER:
            return outcome, False
    # No majority.  max keeps the first of equal counts, so ties go to the earliest outcome.
    return max((o for o in OUTCOME_ORDER if o in votes), key=votes.__getitem__), True


# Each control pass's probes, in wire-pattern order, by override: the outer the ingress's, or a copy of the initial.
_CONTROL_PROBES = {override: tuple((cp, cp if override else None) for cp in CODEPOINTS) for override in (False, True)}
# A record's vote is its feedback itself: the onward codepoint, None for a drop.
_FEEDBACK = attrgetter("feedback")


def _control_pass(path: TunnelPath, override: bool) -> Tuple[FrozenSet[EcnCodepoint], FrozenSet[EcnCodepoint]]:
    """One pass of the control test: the codepoints some feedback reflected,
    and those whose every outer equalled the initial."""
    reflected, copied = set(), set()
    for cp, results in zip(CODEPOINTS, path.send_each(_CONTROL_PROBES[override])):
        # Loops that stop at the first answer, not any() and all() over
        # generators, which cost about 4% of a session.
        for result in results:
            if result.feedback is cp:
                reflected.add(cp)
                break
        for result in results:
            if result.outer is not cp:
                break
        else:
            copied.add(cp)
    return frozenset(reflected), frozenset(copied)


def run_control_test(path: TunnelPath) -> ControlReport:
    """Verify the measurement channel before the main test.

    A codepoint's feedback check passes if at least one of its exchanges
    reflected it; a mismatch counts only when it persists across every
    repetition and server, since loss and legitimate AQM marking corrupt
    individual exchanges.  If no codepoint ever passes, the path is
    unusable and :class:`ControlFailure` is raised.
    """
    reflected, copied = _control_pass(path, override=False)
    if len(copied) < len(CODEPOINTS):
        # Re-verify feedback with the outer forced to a copy of the initial.
        reflected = _control_pass(path, override=True)[0]
    report = ControlReport(reflected, copied)
    if not reflected:
        raise ControlFailure(report)
    return report


def run_main_test(path: TunnelPath) -> List[ProbeObservation]:
    """Probe the path's rows, count each row's votes and aggregate them.

    Each row sends its initial codepoint and overwrites the outer after
    encapsulation with the row's value, the path's ``repetitions`` times per
    server, all rows in one call.  The row overwrite makes the control test's
    fallback decision moot here (the outer is forced either way), so results
    are identical for copying and non-copying ingresses.
    """
    observations = []
    for results in path.send_each(path.rows):
        # Votes counted in first-seen order by the C helper that Counter uses.
        votes: Dict[Optional[EcnCodepoint], int] = {}
        _count_elements(votes, map(_FEEDBACK, results))
        observations.append(ProbeObservation(votes, *aggregate(votes)))
    return observations


# Classifications by capability, then by reference signature: single, or
# ambiguous where classes share a signature (CE-only RFC 6040 and RFC 3168).
# Any other signature is mangled.
_CLASSIFICATIONS = {
    capability: {
        observed: frozenset(b for b, signature in signatures.items() if signature == observed)
        for observed in signatures.values()
    }
    for capability, signatures in REFERENCE_SIGNATURES.items()
}
_MANGLED: FrozenSet[DecapBehaviorClass] = frozenset()


def classify(
    observations: List[ProbeObservation], capability: Capability = Capability.FULL
) -> FrozenSet[DecapBehaviorClass]:
    """Match the observed consensus vector against the reference signatures.

    Returns the set of matching classes.  Exactly one is a definite
    identification.  With reduced capability the truncated RFC 6040 and RFC
    3168 signatures coincide, so both are returned.  No match at all means
    the egress mangles the ECN field in a way no specification produces.
    """
    rows = probe_rows(capability)
    if len(observations) != len(rows):
        raise ValueError(f"expected {len(rows)} observations for {capability.value}, got {len(observations)}")
    return _CLASSIFICATIONS[capability].get(tuple([obs.consensus for obs in observations]), _MANGLED)


def interpret(classes: FrozenSet[DecapBehaviorClass]) -> PropagationVerdict:
    """Translate a classification into the propagation verdict.

    The RFC 6040, RFC 4301 and RFC 3168 behaviours all propagate ECN marks
    correctly, so any classification that cannot fall outside that set is a
    pass; anything else, a simple or mangled egress included, is a fail.
    """
    if classes and classes <= GREEN_CLASSES:
        return PropagationVerdict.PROPAGATES_CORRECTLY
    return PropagationVerdict.DOES_NOT_PROPAGATE


class ProbeSessionResult(NamedTuple):
    control: ControlReport
    observations: List[ProbeObservation]
    classification: FrozenSet[DecapBehaviorClass]
    exchanges: List[ExchangeResult]

    @property
    def verdict(self) -> PropagationVerdict:
        return interpret(self.classification)


def run_probe_session(
    scenario: Scenario,
    capability: Capability = Capability.FULL,
    repetitions: int = 5,
) -> ProbeSessionResult:
    """Run the full procedure over one path: control, main, classify, interpret.

    The :class:`TunnelPath` checks ``capability`` and ``repetitions`` before
    the first exchange."""
    path = TunnelPath(scenario, capability, repetitions)
    control = run_control_test(path)
    observations = run_main_test(path)
    classification = classify(observations, path.capability)
    # The path is private to this session, so its log is handed over.
    return ProbeSessionResult(control, observations, classification, path.log)
