"""Command line front end.

Subcommands:
  run         one session (or a multi-block message) on the simulator
  montecarlo  batch measurement with CSV rows and a JSON report
  codebook    gen | validate | reference
  replay      recompute a decode from a recorded public transcript

Exit codes: 0 success, 1 session aborted or artifact invalid, 2 usage or a
request that runs out of memory, 3 unreadable or rule-breaking input data.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .codebook import (
    CapacityError,
    CodebookError,
    codebook_to_document,
    load_codebook,
    reference_codebook,
    resolve_codebook,
    save_codebook,
)
from .montecarlo import (
    ExperimentSpec,
    run_experiment,
    write_report_json,
    write_rows_csv,
)
from .netsim import fairness_gap, parse_strategy
from .protocol import (
    DecodeStatus,
    Party,
    ProtocolConfig,
    ProtocolViolationError,
    Transcript,
    decode_transcript,
    run_message,
    run_session,
)
from . import rng as rng_mod

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2
EXIT_IO = 3

SEED_ENV_VAR = "ENTPOST_SEED"


class _UsageError(Exception):
    pass


def _resolve_seed(value: int | None) -> int:
    """--seed wins, then the environment, then fresh entropy."""
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return rng_mod.fresh_entropy_seed()


def _parse_bit_pair(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(ch not in "01" for ch in text):
        raise _UsageError(f"--bits takes two characters over 0/1, got {text!r}")
    return int(text[0]), int(text[1])


def _add_protocol_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=64, help="pairs per session (default 64)")
    parser.add_argument(
        "--lambda", dest="lam", type=int, default=16,
        help="minimum pairwise codebook distance (default 16)",
    )
    parser.add_argument(
        "--noise", type=float, default=0.0,
        help="independent flip probability per delivered outcome (default 0)",
    )
    parser.add_argument(
        "--delta", type=float, default=0.0,
        help="tolerated violation fraction before eliminating an entry (default 0)",
    )
    parser.add_argument(
        "--confidence-target", type=float, default=0.999,
        help="residual confidence needed to decode (default 0.999)",
    )
    parser.add_argument(
        "--reveal-first", choices=["bob", "sonai"], default="bob",
        help="which receiver opens the exchange (default bob)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed (falls back to ${SEED_ENV_VAR}, then fresh entropy)")


def _add_adversary_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy-bob", default="honest",
        help="honest | withhold:K | batchdump | lie:P (default honest)",
    )
    parser.add_argument(
        "--strategy-sonai", default="honest",
        help="honest | withhold:K | batchdump | lie:P (default honest)",
    )
    parser.add_argument(
        "--policy-one-ahead", type=int, default=1,
        help="how many reveals the opener may lead by (default 1)",
    )
    parser.add_argument(
        "--timeout", type=int, default=16,
        help="stalled ticks tolerated before aborting (default 16)",
    )


def _config_from_args(args: argparse.Namespace, seed: int, cls=ProtocolConfig, **extra):
    """The protocol and pacing flags as a ``cls`` (a ProtocolConfig or a
    subclass)."""
    return cls(
        n=args.n,
        lam=args.lam,
        noise=args.noise,
        delta=args.delta,
        confidence_target=args.confidence_target,
        reveal_first=args.reveal_first,
        seed=seed,
        one_ahead_limit=args.policy_one_ahead,
        timeout_ticks=args.timeout,
        **extra,
    )


def _adversary_from_args(args: argparse.Namespace) -> dict:
    """The strategy per receiver from the adversary flags."""
    return {
        Party.BOB: parse_strategy(args.strategy_bob),
        Party.SONAI: parse_strategy(args.strategy_sonai),
    }


def _write_events(path: str, event_log: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for event in event_log:
            fp.write(json.dumps(event, separators=(",", ":")) + "\n")


def _print_terminal(terminal, ticks: int, gap: int) -> None:
    print(f"status: {terminal.status.value}")
    if terminal.status is DecodeStatus.ABORT:
        print(f"abort_reason: {terminal.abort_reason.value}")
    else:
        print(f"bob_bit: {terminal.bob_bit}")
        print(f"sonai_bit: {terminal.sonai_bit}")
        print(f"confidence: {terminal.confidence:.6f}")
    print(f"ticks: {ticks}")
    print(f"fairness_gap: {gap}")


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, _resolve_seed(args.seed))
    strategies = _adversary_from_args(args)

    if args.bob_msg is not None or args.sonai_msg is not None:
        for flag, value in (("--bits", args.bits), ("--codebook", args.codebook),
                            ("--events-out", args.events_out)):
            if value is not None:
                raise _UsageError(f"{flag} and --bob-msg/--sonai-msg are mutually exclusive")
        if args.bob_msg is None or args.sonai_msg is None:
            raise _UsageError("--bob-msg and --sonai-msg must be given together")
        print(f"seed: {config.seed}")
        try:
            outcomes, (bob_msg, sonai_msg) = run_message(
                args.bob_msg, args.sonai_msg, config, strategies=strategies
            )
        except ProtocolViolationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ABORT
        for index, outcome in enumerate(outcomes):
            t = outcome.terminal
            print(
                f"block {index}: {t.status.value} "
                f"bits={t.bob_bit}{t.sonai_bit} confidence={t.confidence:.6f}"
            )
            if args.out:
                with open(f"{args.out}.block{index}", "w", encoding="utf-8") as fp:
                    outcome.transcript.to_jsonl(fp)
        print(f"bob_message: {bob_msg}")
        print(f"sonai_message: {sonai_msg}")
        return EXIT_OK

    bits = _parse_bit_pair(args.bits if args.bits is not None else "00")
    cb = resolve_codebook(args.codebook, config.n, config.lam, config.seed)
    print(f"seed: {config.seed}")
    outcome = run_session(config, bits, strategies=strategies, cb=cb)
    _print_terminal(outcome.terminal, outcome.ticks, fairness_gap(outcome.transcript))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            outcome.transcript.to_jsonl(fp)
    if args.events_out:
        _write_events(args.events_out, outcome.event_log)
    return EXIT_ABORT if outcome.terminal.status is DecodeStatus.ABORT else EXIT_OK


def cmd_montecarlo(args: argparse.Namespace) -> int:
    strategies = _adversary_from_args(args)
    spec = _config_from_args(
        args,
        _resolve_seed(args.seed),
        ExperimentSpec,
        mode=args.mode,
        trials=args.trials,
        bits=_parse_bit_pair(args.bits) if args.bits is not None else None,
        strategy_bob=strategies[Party.BOB],
        strategy_sonai=strategies[Party.SONAI],
        codebook=args.codebook,
    )
    rows, report = run_experiment(spec, workers=args.workers)
    print(f"seed: {spec.seed}")
    if args.out:
        with open(f"{args.out}.csv", "w", encoding="utf-8", newline="") as fp:
            write_rows_csv(rows, fp)
        with open(f"{args.out}.json", "w", encoding="utf-8") as fp:
            write_report_json(report, fp)
    json.dump(report.to_json_obj(), sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def cmd_codebook(args: argparse.Namespace) -> int:
    if args.codebook_cmd == "gen":
        seed = _resolve_seed(args.seed)
        if seed < 0:  # as ProtocolConfig refuses it for run and montecarlo
            raise _UsageError(f"seed must be non-negative, got {seed}")
        # a CapacityError propagates to main() and exits as a usage error
        cb = resolve_codebook(None, args.n, args.lam, seed)
        print(f"seed: {seed}")
        save_codebook(cb, args.out)
        print(f"wrote codebook n={cb.n} lambda={cb.lam} to {args.out}")
        return EXIT_OK

    if args.codebook_cmd == "validate":
        try:
            cb = load_codebook(args.path)
        except CodebookError as exc:
            if not exc.defects:  # unreadable: main() prints it and exits 3
                raise
            for defect in exc.defects:
                print(f"defect: {defect.kind}: {defect.message}")
            return EXIT_ABORT
        print(f"valid: n={cb.n} lambda={cb.lam}, {len(cb.entries)} entries")
        return EXIT_OK

    cb = reference_codebook()  # argparse admits no other subcommand
    if args.out:
        save_codebook(cb, args.out)
        print(f"wrote codebook n={cb.n} lambda={cb.lam} to {args.out}")
    else:
        json.dump(codebook_to_document(cb), sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    cb = reference_codebook() if args.codebook == "reference" else load_codebook(args.codebook)
    # flags are refused before the transcript is opened, so they exit 2 whatever it holds
    config = ProtocolConfig(n=cb.n, lam=cb.lam, noise=args.noise, delta=args.delta,
                            confidence_target=args.confidence_target)
    try:
        with open(args.transcript, encoding="utf-8") as fp:
            transcript = Transcript.from_jsonl(fp, cb.n)
    except UnicodeDecodeError as exc:
        raise ProtocolViolationError(f"transcript is not UTF-8 text: {exc}") from exc
    result = decode_transcript(cb, transcript, config)
    print(f"replay_status: {result.status.value}")
    if result.status is DecodeStatus.DECODED:
        print(f"bob_bit: {result.bob_bit}")
        print(f"sonai_bit: {result.sonai_bit}")
        print(f"confidence: {result.confidence:.6f}")
    elif result.status is DecodeStatus.UNDECIDED:
        print(f"confidence: {result.confidence:.6f}")
    elif result.status is DecodeStatus.ABORT:
        print(f"abort_reason: {result.abort_reason.value}")

    terminal = transcript.terminal
    if terminal is None:
        print("terminal: absent")
        return EXIT_OK
    if terminal.abort_reason in ("timeout", "fairness_violation"):
        # transport-level aborts cannot be recomputed from reveals alone
        print(f"terminal: abort ({terminal.abort_reason.value}), echoed")
        return EXIT_OK
    # terminal lines come only in the shapes terminal_record writes, so compare field by field
    consistent = (result.status, result.bob_bit, result.sonai_bit, result.abort_reason) == (
        terminal.status, terminal.bob_bit, terminal.sonai_bit, terminal.abort_reason
    ) and abs(result.confidence - terminal.confidence) <= 1e-12
    print(f"terminal: {'consistent' if consistent else 'MISMATCH'}")
    return EXIT_OK if consistent else EXIT_IO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entpost",
        description="Simulator for a three-party anti-correlated pair messaging protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one session or a multi-block message")
    _add_protocol_args(p_run)
    _add_adversary_args(p_run)
    p_run.add_argument("--bits", default=None,
                       help="double bit to send, e.g. 10 (bob bit, then sonai bit)")
    p_run.add_argument("--bob-msg", default=None, help="bit string for bob (message mode)")
    p_run.add_argument("--sonai-msg", default=None, help="bit string for sonai (message mode)")
    p_run.add_argument("--codebook", default=None,
                       help="JSON codebook path, or 'reference' (default: generate from seed)")
    p_run.add_argument("--out", default=None, help="write the public transcript (JSON lines)")
    p_run.add_argument("--events-out", default=None, help="write the simulator event log")
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("montecarlo", help="run many trials and aggregate")
    _add_protocol_args(p_mc)
    _add_adversary_args(p_mc)
    p_mc.add_argument("--mode", choices=["honest", "session", "soundness"], default="honest")
    p_mc.add_argument("--trials", type=int, default=1000)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.add_argument("--bits", default=None,
                      help="fix the double bit (default: cycle all four)")
    p_mc.add_argument("--codebook", default=None,
                      help="JSON codebook path, or 'reference' (default: generate from seed)")
    p_mc.add_argument("--out", default=None,
                      help="base path; writes <out>.csv rows and <out>.json report")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_cb = sub.add_parser("codebook", help="generate, validate, or print codebooks")
    cb_sub = p_cb.add_subparsers(dest="codebook_cmd", required=True)
    p_gen = cb_sub.add_parser("gen", help="generate a codebook by rejection sampling")
    p_gen.add_argument("--n", type=int, default=64)
    p_gen.add_argument("--lambda", dest="lam", type=int, default=16)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_val = cb_sub.add_parser("validate", help="check a codebook file, listing any defects")
    p_val.add_argument("path")
    p_ref = cb_sub.add_parser("reference", help="emit the built-in 8-pair codebook")
    p_ref.add_argument("--out", default=None)
    p_cb.set_defaults(func=cmd_codebook)

    p_rep = sub.add_parser("replay", help="recompute a decode from a public transcript")
    p_rep.add_argument("--codebook", required=True,
                       help="JSON codebook path, or 'reference'")
    p_rep.add_argument("--transcript", required=True)
    p_rep.add_argument("--noise", type=float, default=0.0)
    p_rep.add_argument("--delta", type=float, default=0.0)
    p_rep.add_argument("--confidence-target", type=float, default=0.999)
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, ValueError, CapacityError) as exc:  # CapacityError before its base
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a request too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (ProtocolViolationError, CodebookError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
