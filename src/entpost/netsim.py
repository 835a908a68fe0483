"""Deterministic tick simulator for one session (``run_session``) or message.

Time advances in integer ticks. Every tick runs a delivery phase and then an
act phase (receivers in a fixed order, bob then sonai). A reveal sent in one
tick's act phase is handed over in the next tick's delivery phase: bob's
reveals to sonai first, then sonai's to bob, each in position order. Reveals
go out in position order, so after a delivery phase each receiver holds
exactly the counterpart's ``sent`` count of them. Alice hands both receivers
their outcomes before the first tick. Determinism therefore depends only on
the seed, never on wall-clock or scheduling accidents.

Pacing reads the config: the opener may run at most ``one_ahead_limit``
reveals ahead of what it has received; the other receiver stays strictly
behind the opener by one less. With the default limit of 1 this is exactly
the alternating schedule. A receiver stalled for ``timeout_ticks``
consecutive ticks gives up.

A receiver decodes only when it finishes: its early announce comes from one
prefix fold when the session ends, written into the event log at the tick
and place of the first act whose view decoded.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import rng as rng_mod
from .codebook import Codebook, generate_codebook, resolve_codebook
from .epr import flips
from .protocol import (
    AbortReason,
    DecodeResult,
    DecodeStatus,
    Party,
    ProtocolConfig,
    ProtocolViolationError,
    Receiver,
    Transcript,
    alice_prepare,
    terminal_record,
)

__all__ = [
    "MessageKind",
    "Action",
    "enforce_fairness",
    "Strategy",
    "Honest",
    "WithholdAfter",
    "BatchDump",
    "LieWithProb",
    "lie_flips",
    "parse_strategy",
    "ReceiverAgent",
    "World",
    "SessionOutcome",
    "build_world",
    "run_world",
    "run_session",
    "run_message",
    "fairness_gap",
]


class MessageKind(str, Enum):
    DELIVERY = "delivery"
    REVEAL = "reveal"
    DECODE_ANNOUNCE = "decode_announce"
    ABORT = "abort"


class Action(Enum):
    PROCEED = "proceed"
    STALL = "stall"
    ABORT_TIMEOUT = "abort_timeout"


def enforce_fairness(
    config: ProtocolConfig, sent: int, received: int, waiting: int, is_opener: bool
) -> Action:
    """Pure pacing decision for one receiver at one instant."""
    if waiting >= config.timeout_ticks:
        return Action.ABORT_TIMEOUT
    lead_limit = config.one_ahead_limit if is_opener else config.one_ahead_limit - 1
    if sent - received < lead_limit:
        return Action.PROCEED
    return Action.STALL


# -- strategies -------------------------------------------------------------


class Strategy:
    """Decides how many of the agent's next own outcomes go out this tick.

    The contract is the signature of ``plan``: it sees how many own outcomes
    the agent has sent, how many it holds (n) and whether pacing allows a
    reveal now, never a value or a random draw. The agent sends that many of
    its published values in position order. ``lie`` is the chance that each
    published value is the true one flipped; a liar's published row is drawn
    once, when the world is built (``lie_flips``). A session's timing then
    ignores its data, so a session batch runs one session per chunk and
    reuses its schedule for every other trial, redrawing only the values and
    the lies."""

    lie = 0.0

    def plan(self, sent: int, n: int, pacing_ok: bool) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Honest(Strategy):
    """Reveal the next outcome whenever pacing allows, truthfully, to the end
    of the sequence even after decoding early."""

    def plan(self, sent: int, n: int, pacing_ok: bool) -> int:
        return int(pacing_ok)

    def describe(self) -> str:
        return "honest"


@dataclass(frozen=True)
class WithholdAfter(Strategy):
    """Play honestly for ``limit`` own reveals, then go silent forever."""

    limit: int

    def __post_init__(self) -> None:
        if isinstance(self.limit, bool) or not isinstance(self.limit, int) or self.limit < 0:
            raise ValueError(f"withhold count must be a non-negative integer, got {self.limit!r}")

    def plan(self, sent: int, n: int, pacing_ok: bool) -> int:
        return int(pacing_ok and sent < self.limit)

    def describe(self) -> str:
        return f"withhold:{self.limit}"


@dataclass(frozen=True)
class BatchDump(Strategy):
    """Ignore pacing and dump every remaining outcome in a single tick.
    Generous rather than withholding; it can only speed the counterpart up."""

    def plan(self, sent: int, n: int, pacing_ok: bool) -> int:
        return n - sent

    def describe(self) -> str:
        return "batchdump"


@dataclass(frozen=True)
class LieWithProb(Strategy):
    """Honest pacing, but each published outcome is flipped with probability
    p. The liar's private decoding still uses the true values."""

    p: float

    def __post_init__(self) -> None:
        if isinstance(self.p, bool) or not isinstance(self.p, (int, float)):
            raise ValueError(f"lie probability must be a number, got {self.p!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"lie probability must lie in [0, 1], got {self.p}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def lie(self) -> float:
        return self.p

    def plan(self, sent: int, n: int, pacing_ok: bool) -> int:
        return int(pacing_ok)

    def describe(self) -> str:
        return f"lie:{self.p}"


_LIE_KEYS = (rng_mod.KEY_LIE_BOB, rng_mod.KEY_LIE_SONAI)


def lie_flips(seeds: Sequence[int], side: int, p: float, n: int) -> np.ndarray:
    """Which of the n values receiver ``side`` (0 bob, 1 sonai) publishes
    in each session at ``seeds`` are lies, each with chance ``p``, drawn
    from that receiver's lie substream, as a (len(seeds), n) block: the one
    lie rule of the simulator and of session batches."""
    return flips(rng_mod.substream_uint64s(seeds, (_LIE_KEYS[side],), n), p)


def parse_strategy(text: str) -> Strategy:
    """honest | withhold:K | batchdump | lie:P"""
    name, _, arg = text.strip().lower().partition(":")
    if name == "honest" and not arg:
        return Honest()
    if name == "batchdump" and not arg:
        return BatchDump()
    if name == "withhold":
        try:
            return WithholdAfter(int(arg))
        except ValueError as exc:
            raise ValueError(f"withhold needs a non-negative integer count, got {arg!r}") from exc
    if name == "lie":
        try:
            return LieWithProb(float(arg))
        except ValueError as exc:
            raise ValueError(f"lie needs a probability, got {arg!r}") from exc
    raise ValueError(f"unknown strategy {text!r}")


# -- agents and world --------------------------------------------------------


class ReceiverAgent:
    """One receiver in the simulator: its ``Receiver`` view, and the values
    it publishes, sent in position order (``sent`` of them so far)."""

    def __init__(
        self,
        party: Party,
        receiver: Receiver,
        strategy: Strategy,
        is_opener: bool,
        published: list[int],
    ):
        self.party = party
        self.receiver = receiver
        self.strategy = strategy
        self.is_opener = is_opener
        self.published = published
        self.sent = 0
        self.waiting = 0
        self.finished = False
        self.aborted: AbortReason | None = None
        self.result: DecodeResult | None = None
        # received count -> (log length, tick) at the first act that saw it
        self.decode_points: dict[int, tuple[int, int]] = {}

    @property
    def done(self) -> bool:
        return self.finished or self.aborted is not None

    def act(self, world: "World") -> None:
        if self.done:
            return
        n, received = len(self.published), len(self.receiver.arrivals)
        action = enforce_fairness(self.receiver.config, self.sent, received, self.waiting, self.is_opener)
        if action is Action.ABORT_TIMEOUT:
            self._abort(AbortReason.TIMEOUT, world)
            return
        count = self.strategy.plan(self.sent, n, action is Action.PROCEED)
        batch = self.published[self.sent:self.sent + count]
        if batch:
            for position, outcome in enumerate(batch, start=self.sent + 1):
                world.send_reveal(self.party, position, outcome)
            self.sent += len(batch)
            self.waiting = 0
        self.decode_points.setdefault(received, (len(world.event_log), world.tick))
        if self.sent >= n and received >= n:
            self.finished = True
            self.result = self.receiver.decode()
            summary = f"final:{self.result.status.value}"
            world.log(MessageKind.DECODE_ANNOUNCE, self.party, self.party, summary)
        elif not batch:
            self.waiting += 1

    def _abort(self, reason: AbortReason, world: "World") -> None:
        self.aborted = reason
        self.result = DecodeResult.aborted(reason)
        world.log(MessageKind.ABORT, self.party, self.party, reason.value)


class World:
    """All session state: agents, the public transcript, the reveals sent,
    which ``run_world`` admits to it in one run at the end, and the log."""

    def __init__(
        self,
        config: ProtocolConfig,
        cb: Codebook,
        agents: dict[Party, ReceiverAgent],
    ):
        self.config = config
        self.codebook = cb
        self.agents = agents
        self.transcript = Transcript(cb.n)
        self.reveals: tuple[list, list, list] = ([], [], [])  # parties, positions, outcomes
        self.event_log: list[dict] = []
        self.tick = 0

    def log(self, kind: MessageKind, sender: Party, receiver: Party, summary: str,
            tick: int | None = None, index: int | None = None) -> None:
        """Append an entry, or write one dated ``tick`` in at ``index``."""
        self.event_log.insert(
            len(self.event_log) if index is None else index,
            {
                "tick": self.tick if tick is None else tick,
                "link": "local" if sender is receiver else f"{sender.value}->{receiver.value}",
                "kind": kind.value,
                "sender": sender.value,
                "receiver": receiver.value,
                "payload_summary": summary,
            }
        )

    def send_reveal(self, party: Party, position: int, outcome: int) -> None:
        for column, value in zip(self.reveals, (party, position, outcome)):
            column.append(value)
        summary = f"{party.value}#{position}:{'+' if outcome == 1 else '-'}"
        self.log(MessageKind.REVEAL, party, party.counterpart(), summary)

    def deliver_phase(self) -> bool:
        """Hand over last tick's reveals: bob's to sonai first, then sonai's
        to bob, each in position order. Returns whether any reveal moved."""
        bob, sonai = self.agents[Party.BOB], self.agents[Party.SONAI]
        moved = False
        for agent, sender in ((sonai, bob), (bob, sonai)):
            received = len(agent.receiver.arrivals)
            if sender.sent > received:
                for position, outcome in enumerate(sender.published[received:sender.sent],
                                                   start=received + 1):
                    agent.receiver.observe_reveal(position, outcome)
                agent.waiting, moved = 0, True
        return moved

    def act_phase(self) -> None:
        for party in (Party.BOB, Party.SONAI):
            self.agents[party].act(self)


@dataclass(eq=False)
class SessionOutcome:
    """Everything a finished session leaves behind."""

    transcript: Transcript
    results: dict[Party, DecodeResult]
    receivers: dict[Party, Receiver]
    event_log: list[dict]
    ticks: int
    codebook: Codebook

    @property
    def terminal(self) -> DecodeResult:
        assert self.transcript.terminal is not None
        return self.transcript.terminal


def build_world(
    config: ProtocolConfig,
    bits: tuple[int, int],
    cb: Codebook,
    strategies: dict[Party, Strategy] | None = None,
) -> World:
    """Prepare the table of the config seed and wire up both receivers, each
    holding its own row and publishing it, a liar's flipped at its
    ``lie_flips``."""
    if cb.n != config.n:
        raise ValueError(f"codebook size {cb.n} does not match config n {config.n}")
    strategies = dict(strategies or {})
    (table,) = alice_prepare([config.seed], config.noise, [bits], cb)
    agents = {}
    for side, party in enumerate((Party.BOB, Party.SONAI)):
        strategy, row = strategies.get(party, Honest()), table[side]
        if strategy.lie:
            row = np.where(lie_flips([config.seed], side, strategy.lie, cb.n)[0], -row, row)
        receiver = Receiver(party, cb, table[side], config)
        agents[party] = ReceiverAgent(party, receiver, strategy, party is config.reveal_first,
                                      row.tolist())
    world = World(config, cb, agents)
    # the sender hands each receiver its outcome sequence before the first tick
    for party in (Party.BOB, Party.SONAI):
        world.log(MessageKind.DELIVERY, Party.ALICE, party, f"outcomes[n={cb.n}]")
    return world


def run_world(world: World) -> SessionOutcome:
    """Tick until both receivers settle or either aborts."""
    bob, sonai = agents = (world.agents[Party.BOB], world.agents[Party.SONAI])
    max_ticks = 4 * world.config.n + world.config.timeout_ticks + 8
    while world.tick < max_ticks:
        world.tick += 1
        logged = len(world.event_log)
        delivered = world.deliver_phase()
        world.act_phase()
        if any(a.aborted is not None for a in agents) or all(a.finished for a in agents):
            break
        if not delivered and len(world.event_log) == logged:
            # nothing arrived, went out or ended, so each later tick repeats
            # this one but for the stall counters, until the first of them
            # reaches the timeout: jump to the tick before that
            stalled = [a for a in agents if not a.done]
            skip = world.config.timeout_ticks - max(a.waiting for a in stalled)
            world.tick += skip
            for agent in stalled:
                agent.waiting += skip
    else:
        raise RuntimeError("session failed to settle within the tick budget")

    # the first act view that decoded, per receiver; later places go in first
    early = []
    for act_order, agent in enumerate(agents):
        first = agent.receiver.first_decode(list(agent.decode_points))
        if first is not None:
            early.append((*agent.decode_points[first[0]], act_order, agent.party, first[1]))
    for index, tick, _, party, result in sorted(early, reverse=True):
        summary = f"early:bits={result.bob_bit}{result.sonai_bit}"
        world.log(MessageKind.DECODE_ANNOUNCE, party, party, summary, tick, index)
    for agent in agents:
        if agent.result is None:
            agent.result = agent.receiver.decode()
    transport_abort = next((a.aborted for a in agents if a.aborted is not None), None)
    parties, positions, outcomes = world.reveals  # the numbers as int64 columns, tested whole
    world.transcript.admit(np.arange(1, len(parties) + 1), parties,
                           np.array(positions, dtype=np.int64), np.array(outcomes, dtype=np.int64))
    world.transcript.close(terminal_record(bob.result, sonai.result, transport_abort))
    return SessionOutcome(
        transcript=world.transcript,
        results={Party.BOB: bob.result, Party.SONAI: sonai.result},
        receivers={Party.BOB: bob.receiver, Party.SONAI: sonai.receiver},
        event_log=world.event_log,
        ticks=world.tick,
        codebook=world.codebook,
    )


def run_session(
    config: ProtocolConfig,
    bits: tuple[int, int],
    strategies: dict[Party, Strategy] | None = None,
    cb: Codebook | None = None,
) -> SessionOutcome:
    """Run one complete session on the deterministic network simulator.

    A fresh codebook is generated from the session seed unless one is passed
    in. Strategies default to honest conduct for both receivers.
    """
    if cb is None:
        cb = resolve_codebook(None, config.n, config.lam, config.seed)
    return run_world(build_world(config, bits, cb=cb, strategies=strategies))


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bit string must be non-empty over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def run_message(
    bob_msg: str,
    sonai_msg: str,
    config: ProtocolConfig,
    strategies: dict[Party, Strategy] | None = None,
) -> tuple[list[SessionOutcome], tuple[str, str]]:
    """Send two equal-length bit strings, one session per bit pair. Block i
    runs at the seed derived from the config seed at (KEY_BLOCK, i) on a
    fresh codebook from that address's codebook substream. Returns the
    sessions and the two messages concatenated from their terminal bits;
    raises ProtocolViolationError at the first block whose terminal record
    is not decoded."""
    bob_bits, sonai_bits = _parse_bits(bob_msg), _parse_bits(sonai_msg)
    if len(bob_bits) != len(sonai_bits):
        raise ValueError(f"message lengths differ: {len(bob_bits)} vs {len(sonai_bits)}")
    outcomes: list[SessionOutcome] = []
    for index, bits in enumerate(zip(bob_bits, sonai_bits)):
        cb = generate_codebook(config.n, config.lam, rng_mod.substream(
            config.seed, rng_mod.KEY_BLOCK, index, rng_mod.KEY_CODEBOOK))
        block_config = replace(config, seed=rng_mod.derive_seed(config.seed, rng_mod.KEY_BLOCK, index))
        outcome = run_session(block_config, bits, strategies=strategies, cb=cb)
        terminal = outcome.terminal
        if terminal.status is not DecodeStatus.DECODED:
            reason = terminal.abort_reason.value if terminal.abort_reason else terminal.status.value
            raise ProtocolViolationError(f"message block {index} did not decode: {reason}")
        outcomes.append(outcome)
    bob = "".join(str(outcome.terminal.bob_bit) for outcome in outcomes)
    sonai = "".join(str(outcome.terminal.sonai_bit) for outcome in outcomes)
    return outcomes, (bob, sonai)


def fairness_gap(transcript: Transcript) -> int:
    """Largest lead either receiver held at any prefix of the public record."""
    lead = worst = 0
    for side in transcript.sides:
        lead += 1 if side == 0 else -1
        worst = max(worst, abs(lead))
    return worst
