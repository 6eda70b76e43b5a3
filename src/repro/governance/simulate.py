"""Execute a governance plan: run the real bot over every planned PR.

Submissions enter through the API layer the way real ones enter through
GitHub: each planned run is dispatched as a
:class:`~repro.api.envelopes.SubmitRequest` to a single-worker
:class:`~repro.serve.service.RwsService`, drained, and polled for its
verdict — the same submit → poll → report protocol every other consumer
speaks.  One worker keeps the synthetic web's seeded RNG draws in
submission order, so verdicts stay bit-reproducible.
"""

from __future__ import annotations

import datetime as dt

from repro.api.dispatcher import Dispatcher
from repro.api.envelopes import (
    PollRequest,
    PollResponse,
    SubmitRequest,
    SubmitResponse,
)
from repro.governance.defects import realize_run
from repro.governance.model import (
    PrDataset,
    PrEvent,
    PrEventKind,
    PrState,
    PullRequest,
)
from repro.governance.planner import GovernancePlan, build_plan
from repro.netsim.client import Client
from repro.rws.model import RwsList
from repro.rws.validation import ValidationReport, Validator
from repro.serve.index import MembershipIndex
from repro.serve.service import RwsService


class _PerRunValidator(Validator):
    """Delegates each queued submission to the current run's validator.

    Every planned run realizes its own synthetic web (and therefore its
    own network-checking validator), but the service's validation queue
    holds one validator for its lifetime.  This shim is that one
    validator: the simulation points ``delegate`` at the run-specific
    engine before dispatching the run's :class:`SubmitRequest`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.delegate: Validator | None = None

    def validate(self, submission) -> ValidationReport:
        assert self.delegate is not None, "no run validator installed"
        return self.delegate.validate(submission)


def _submit_run(dispatcher: Dispatcher, service: RwsService,
                gate: _PerRunValidator, run_seed: int, planned_run,
                published: RwsList,
                published_index: MembershipIndex) -> ValidationReport:
    """One planned run through the protocol: submit, drain, report."""
    realized = realize_run(planned_run.base, planned_run.bundle,
                           seed=run_seed)
    gate.delegate = Validator(client=Client(realized.web),
                              published=published,
                              published_index=published_index)
    response = dispatcher.dispatch(SubmitRequest(rws_set=realized.submission))
    assert isinstance(response, SubmitResponse), response
    service.drain()
    poll = dispatcher.dispatch(PollRequest(ticket=response.ticket))
    assert isinstance(poll, PollResponse), poll
    if poll.passed is None:
        # Terminal without a verdict: validation itself crashed.
        raise RuntimeError(
            f"validation crashed for {realized.submission.primary} "
            f"({poll.status}): {service.queue.get(response.ticket).error}"
        )
    # The wire envelope carries only the verdict summary; the dataset's
    # PR events need the full ValidationReport (findings objects, the
    # checked set), which lives in the queue's submission record.
    report = service.queue.report(response.ticket)
    assert report is not None and report.passed == poll.passed
    return report


def simulate_governance(plan: GovernancePlan | None = None,
                        published: RwsList | None = None) -> PrDataset:
    """Run the bot over every planned PR and assemble the dataset.

    Args:
        plan: The plan to execute (the calibrated default otherwise).
        published: The list in force while the PRs are processed, for
            the bot's overlap rule (empty by default, matching the
            paper's window where submissions predate their own merge).
            Compiled once into a shared membership index rather than
            rescanned per submission.

    Returns:
        The full PR dataset — the input to Figures 5-6 and Table 3.

    Raises:
        AssertionError: If the real validator disagrees with the plan
            (a clean run failing, or a defective run passing) — that
            would mean the defect injection and the validation engine
            have drifted apart.
    """
    plan = plan or build_plan()
    published = published or RwsList()
    published_index = MembershipIndex.from_list(published)
    dataset = PrDataset()

    # One service, one worker: submissions validate strictly in
    # dispatch order, so the seeded synthetic webs draw their RNG in
    # the same order as the pre-protocol synchronous loop did.
    gate = _PerRunValidator()
    service = RwsService(validator=gate, workers=1)
    dispatcher = Dispatcher(service)
    try:
        for number, planned in enumerate(plan.prs, start=1):
            events = [PrEvent(kind=PrEventKind.OPENED, date=planned.opened)]
            submission = None
            for run_index, planned_run in enumerate(planned.runs):
                report = _submit_run(dispatcher, service, gate,
                                     number * 31 + run_index, planned_run,
                                     published, published_index)
                expected_clean = planned_run.bundle.is_clean
                if expected_clean and not report.passed:
                    raise AssertionError(
                        f"clean run failed for {planned.primary}: "
                        f"{[f.message for f in report.findings]}"
                    )
                if not expected_clean and report.passed:
                    raise AssertionError(
                        f"defective run passed for {planned.primary} "
                        f"(bundle {planned_run.bundle})"
                    )
                run_date = planned.opened + dt.timedelta(days=run_index)
                if run_index > 0:
                    events.append(PrEvent(kind=PrEventKind.UPDATED,
                                          date=run_date))
                events.append(PrEvent(
                    kind=PrEventKind.BOT_COMMENT,
                    date=run_date,
                    report=report,
                    comment=report.bot_comment(),
                ))
                submission = report.checked_set

            assert submission is not None  # every planned PR has >= 1 run
            final_kind = (PrEventKind.MERGED if planned.merged
                          else PrEventKind.CLOSED)
            events.append(PrEvent(kind=final_kind, date=planned.resolved))
            dataset.pull_requests.append(PullRequest(
                number=number,
                primary=planned.primary,
                submission=submission,
                opened=planned.opened,
                state=PrState.MERGED if planned.merged else PrState.CLOSED,
                resolved=planned.resolved,
                events=events,
            ))
    finally:
        service.queue.shutdown()
    return dataset
