"""CLI for fault-tolerant campaigns.

Examples::

    # run (or transparently resume) the default quick campaign
    python -m repro.campaign --store /tmp/campaign --quick

    # list checkpointed campaigns in a store
    python -m repro.campaign --store /tmp/campaign --list

    # resume a specific campaign id from its newest manifest
    python -m repro.campaign --store /tmp/campaign --resume 0123abcd4567

    # bounded run: 30s wall clock, 500 LLM calls, chunk = 2 units
    python -m repro.campaign --store /tmp/campaign --quick \\
        --deadline 30 --budget 500 --chunk 2

SIGTERM / SIGINT request a graceful drain: the campaign finishes its current
chunk, checkpoints a ``drained`` manifest and exits 0 — re-running the same
command resumes from the frontier.  A signal that arrives while the CLI is
still starting up is held and applied as soon as the campaign exists.  The last stdout line is always the
campaign result as one compact JSON document (machine-readable for the chaos
harness and CI).

Exit codes: 0 — complete or drained; 4 — deadline/budget stop (checkpointed,
resumable); 1 — failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


class _DrainSignals:
    """SIGTERM / SIGINT request a graceful drain of the running campaign.

    The handlers go in before the orchestrator's imports, which take about a
    second, so a signal that arrives first is not fatal: it is remembered and
    handed to the orchestrator by :meth:`attach` as soon as that exists.
    """

    def __init__(self) -> None:
        self.orchestrator = None
        self.pending: str | None = None
        self.previous: dict = {}

    def install(self) -> None:
        if not self.previous:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self.previous[signum] = signal.signal(signum, self._handle)

    def _handle(self, signum, frame) -> None:
        reason = f"signal {signum}"
        if self.orchestrator is None:
            self.pending = reason
        else:
            self.orchestrator.request_drain(reason)

    def attach(self, orchestrator) -> None:
        self.orchestrator = orchestrator
        if self.pending is not None:
            orchestrator.request_drain(self.pending)

    def restore(self) -> None:
        for signum, handler in self.previous.items():
            signal.signal(signum, handler)
        self.previous.clear()
        self.orchestrator = None
        self.pending = None


if __name__ == "__main__":
    _early_signals = _DrainSignals()
    _early_signals.install()

from repro.campaign.checkpoint import list_campaigns  # noqa: E402
from repro.campaign.config import CampaignConfig  # noqa: E402
from repro.campaign.orchestrator import (  # noqa: E402
    COMPLETE,
    DRAINED,
    STOPPED_BUDGET,
    STOPPED_DEADLINE,
    CampaignOrchestrator,
)
from repro.campaign.spec import CampaignSpec, default_campaign  # noqa: E402
from repro.experiments.store import ResultStore  # noqa: E402

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_STOPPED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run, resume and inspect fault-tolerant experiment campaigns.",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="campaign store directory (default: REPRO_CAMPAIGN_STORE / REPRO_RESULT_STORE)",
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--quick",
        action="store_true",
        help="run the default quick campaign (generate → verify → fuzz → benchmark)",
    )
    what.add_argument(
        "--spec",
        metavar="JSON",
        default=None,
        help="path to a CampaignSpec JSON document to run",
    )
    what.add_argument(
        "--resume",
        metavar="ID",
        default=None,
        help="resume a checkpointed campaign by id (spec restored from its manifest)",
    )
    what.add_argument(
        "--list",
        action="store_true",
        dest="list_campaigns",
        help="list checkpointed campaign ids in the store and exit",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (with --quick)")
    parser.add_argument(
        "--problems",
        default="alu_w4",
        help="comma-separated problem ids (with --quick)",
    )
    parser.add_argument(
        "--samples", type=int, default=2, help="samples per strategy/problem (with --quick)"
    )
    parser.add_argument(
        "--deadline", type=float, default=None, help="wall-clock bound in seconds"
    )
    parser.add_argument(
        "--budget", type=int, default=None, help="LLM-completion budget across all resumes"
    )
    parser.add_argument(
        "--chunk", type=int, default=None, help="work units per preemptible chunk"
    )
    parser.add_argument(
        "--fleet", type=int, default=None, help="run chunks on a supervised fleet this large"
    )
    parser.add_argument(
        "--throttle", type=float, default=None, help="seconds to sleep between chunks"
    )
    return parser


def _build_config(args) -> CampaignConfig:
    config = CampaignConfig(store_path=args.store)
    config = CampaignConfig.from_environment(config)
    if args.deadline is not None:
        config.deadline = args.deadline if args.deadline > 0 else None
    if args.budget is not None:
        config.llm_budget = max(0, args.budget)
    if args.chunk is not None:
        config.chunk_size = max(1, args.chunk)
    if args.fleet is not None:
        config.fleet = max(0, args.fleet)
    if args.throttle is not None:
        config.throttle = max(0.0, args.throttle)
    return config


def _list(config: CampaignConfig) -> int:
    store = ResultStore(config.store_path)
    try:
        ids = list_campaigns(store)
    finally:
        store.close()
    for campaign_id in ids:
        print(campaign_id)
    if not ids:
        print("(no checkpointed campaigns)", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None, signals: _DrainSignals | None = None) -> int:
    signals = signals or _DrainSignals()
    signals.install()
    try:
        return _run(argv, signals)
    finally:
        signals.restore()


def _run(argv: list[str] | None, signals: _DrainSignals) -> int:
    args = build_parser().parse_args(argv)
    config = _build_config(args)
    if not config.store_path:
        print(
            "error: no store; pass --store or set REPRO_CAMPAIGN_STORE",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.list_campaigns:
        return _list(config)

    if args.resume:
        orchestrator = CampaignOrchestrator.resume(args.resume, config)
    else:
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = CampaignSpec.from_dict(json.load(handle))
        else:
            spec = default_campaign(
                problems=tuple(p for p in args.problems.split(",") if p),
                samples=max(1, args.samples),
                seed=args.seed,
            )
        orchestrator = CampaignOrchestrator(spec, config)

    signals.attach(orchestrator)
    try:
        result = orchestrator.run()
    except Exception as exc:
        print(f"campaign failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {"campaign": orchestrator.campaign_id, "status": "failed", "error": str(exc)},
                sort_keys=True,
            )
        )
        return EXIT_FAILED

    print(json.dumps(result.to_dict(), sort_keys=True))
    if result.status in (COMPLETE, DRAINED):
        return EXIT_OK
    if result.status in (STOPPED_DEADLINE, STOPPED_BUDGET):
        return EXIT_STOPPED
    return EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main(signals=_early_signals))
