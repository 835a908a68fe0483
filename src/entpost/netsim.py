"""Deterministic message-passing simulator for one session.

Time advances in integer ticks. Every tick runs a delivery phase (links
drained in a fixed order, FIFO within a link, one tick of latency) and then
an act phase (receivers in a fixed order). Determinism therefore depends
only on the seed, never on wall-clock or scheduling accidents.

Pacing: the opener may run at most ``one_ahead_limit`` reveals ahead of what
it has received; the other receiver stays strictly behind the opener by one
less. With the default limit of 1 this is exactly the alternating schedule.
A receiver stalled for ``timeout_ticks`` consecutive ticks gives up.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng as rng_mod
from .codebook import Codebook
from .epr import SpinOutcome
from .protocol import (
    AbortReason,
    DecodeResult,
    DecodeStatus,
    Party,
    ProtocolConfig,
    ProtocolViolationError,
    Receiver,
    RevealEvent,
    SessionOutcome,
    Transcript,
    prepare_session,
    terminal_record,
)

__all__ = [
    "MessageKind",
    "WireMessage",
    "Link",
    "LINK_ORDER",
    "FairnessPolicy",
    "Action",
    "enforce_fairness",
    "Strategy",
    "Honest",
    "WithholdAfter",
    "BatchDump",
    "LieWithProb",
    "parse_strategy",
    "ReceiverAgent",
    "World",
    "build_world",
    "run_world",
    "fairness_gap",
]


class MessageKind(str, Enum):
    DELIVERY = "delivery"
    REVEAL = "reveal"
    DECODE_ANNOUNCE = "decode_announce"
    ABORT = "abort"


@dataclass(frozen=True)
class WireMessage:
    kind: MessageKind
    sender: Party
    receiver: Party
    payload: dict
    send_tick: int
    deliver_tick: int
    seq: int


class Link:
    """One-way FIFO channel with fixed latency."""

    def __init__(self, sender: Party, receiver: Party, delay: int = 1):
        self.sender = sender
        self.receiver = receiver
        self.delay = delay
        self.queue: deque[WireMessage] = deque()
        self._next_seq = 0

    @property
    def name(self) -> str:
        return f"{self.sender.value}->{self.receiver.value}"

    def push(self, kind: MessageKind, payload: dict, now: int) -> WireMessage:
        msg = WireMessage(
            kind=kind,
            sender=self.sender,
            receiver=self.receiver,
            payload=payload,
            send_tick=now,
            deliver_tick=now + self.delay,
            seq=self._next_seq,
        )
        self._next_seq += 1
        self.queue.append(msg)
        return msg

    def pop_due(self, now: int) -> list[WireMessage]:
        due: list[WireMessage] = []
        while self.queue and self.queue[0].deliver_tick <= now:
            due.append(self.queue.popleft())
        return due


LINK_ORDER: tuple[tuple[Party, Party], ...] = (
    (Party.ALICE, Party.BOB),
    (Party.ALICE, Party.SONAI),
    (Party.BOB, Party.SONAI),
    (Party.SONAI, Party.BOB),
)


@dataclass(frozen=True)
class FairnessPolicy:
    """Pacing window plus patience. one_ahead_limit is how far the opener may
    lead; timeout_ticks is how many consecutive stalled ticks a receiver
    tolerates before aborting."""

    one_ahead_limit: int = 1
    timeout_ticks: int = 16

    def __post_init__(self) -> None:
        if self.one_ahead_limit < 1:
            raise ValueError(f"one_ahead_limit must be at least 1, got {self.one_ahead_limit}")
        if self.timeout_ticks < 1:
            raise ValueError(f"timeout_ticks must be at least 1, got {self.timeout_ticks}")


class Action(Enum):
    PROCEED = "proceed"
    STALL = "stall"
    ABORT_TIMEOUT = "abort_timeout"


def enforce_fairness(
    policy: FairnessPolicy, sent: int, received: int, waiting: int, is_opener: bool
) -> Action:
    """Pure pacing decision for one receiver at one instant."""
    if waiting >= policy.timeout_ticks:
        return Action.ABORT_TIMEOUT
    lead_limit = policy.one_ahead_limit if is_opener else policy.one_ahead_limit - 1
    if sent - received < lead_limit:
        return Action.PROCEED
    return Action.STALL


# -- strategies -------------------------------------------------------------


class Strategy:
    """Decides which of the agent's own outcomes go out this tick."""

    def plan(self, agent: "ReceiverAgent", pacing_ok: bool) -> list[tuple[int, int]]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Honest(Strategy):
    """Reveal the next outcome whenever pacing allows, truthfully, to the end
    of the sequence even after decoding early."""

    def plan(self, agent: "ReceiverAgent", pacing_ok: bool) -> list[tuple[int, int]]:
        if not pacing_ok:
            return []
        item = agent.receiver.next_reveal()
        return [item] if item is not None else []

    def describe(self) -> str:
        return "honest"


@dataclass(frozen=True)
class WithholdAfter(Strategy):
    """Play honestly for ``limit`` own reveals, then go silent forever."""

    limit: int

    def plan(self, agent: "ReceiverAgent", pacing_ok: bool) -> list[tuple[int, int]]:
        if not pacing_ok or agent.receiver.sent_count >= self.limit:
            return []
        item = agent.receiver.next_reveal()
        return [item] if item is not None else []

    def describe(self) -> str:
        return f"withhold:{self.limit}"


@dataclass(frozen=True)
class BatchDump(Strategy):
    """Ignore pacing and dump every remaining outcome in a single tick.
    Generous rather than withholding; it can only speed the counterpart up."""

    def plan(self, agent: "ReceiverAgent", pacing_ok: bool) -> list[tuple[int, int]]:
        batch: list[tuple[int, int]] = []
        while (item := agent.receiver.next_reveal()) is not None:
            batch.append(item)
        return batch

    def describe(self) -> str:
        return "batchdump"


@dataclass(frozen=True)
class LieWithProb(Strategy):
    """Honest pacing, but each published outcome is flipped with probability
    p. The liar's private decoding still uses the true values."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"lie probability must lie in [0, 1], got {self.p}")

    def plan(self, agent: "ReceiverAgent", pacing_ok: bool) -> list[tuple[int, int]]:
        if not pacing_ok:
            return []
        item = agent.receiver.next_reveal()
        if item is None:
            return []
        pos, outcome = item
        if agent.lie_rng.random() < self.p:
            outcome = -outcome
        return [(pos, outcome)]

    def describe(self) -> str:
        return f"lie:{self.p}"


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
            raise ValueError(f"withhold needs an integer count, got {arg!r}") from exc
    if name == "lie":
        try:
            return LieWithProb(float(arg))
        except ValueError as exc:
            raise ValueError(f"lie needs a probability, got {arg!r}") from exc
    raise ValueError(f"unknown strategy {text!r}")


# -- agents and world --------------------------------------------------------


class ReceiverAgent:
    def __init__(
        self,
        party: Party,
        receiver: Receiver,
        strategy: Strategy,
        policy: FairnessPolicy,
        is_opener: bool,
        lie_rng: np.random.Generator,
    ):
        self.party = party
        self.receiver = receiver
        self.strategy = strategy
        self.policy = policy
        self.is_opener = is_opener
        self.lie_rng = lie_rng
        self.delivered = False
        self.waiting = 0
        self.finished = False
        self.aborted: AbortReason | None = None
        self.announced = False
        self.result: DecodeResult | None = None
        self._checks_at_last_decode = -1

    @property
    def done(self) -> bool:
        return self.finished or self.aborted is not None

    def on_message(self, msg: WireMessage, world: "World") -> None:
        if self.done:
            return
        if msg.kind is MessageKind.DELIVERY:
            self.delivered = True
            self.waiting = 0
            return
        if msg.kind is MessageKind.REVEAL:
            try:
                self.receiver.observe_reveal(msg.payload["position"], msg.payload["outcome"])
            except ProtocolViolationError:
                self._abort(AbortReason.FAIRNESS_VIOLATION, world)
                return
            self.waiting = 0

    def act(self, world: "World") -> None:
        if self.done:
            return
        if not self.delivered:
            self._idle_tick(world)
            return
        action = enforce_fairness(
            self.policy,
            self.receiver.sent_count,
            self.receiver.received_count,
            self.waiting,
            self.is_opener,
        )
        if action is Action.ABORT_TIMEOUT:
            self._abort(AbortReason.TIMEOUT, world)
            return
        batch = self.strategy.plan(self, action is Action.PROCEED)
        if batch:
            for position, outcome in batch:
                world.send_reveal(self.party, position, outcome)
            self.waiting = 0
        self._maybe_announce(world)
        if self.receiver.sent_count >= self.receiver.codebook.n and self.receiver.received_all:
            self.finished = True
            self.result = self.receiver.decode()
            world.log(
                None,
                MessageKind.DECODE_ANNOUNCE,
                self.party,
                self.party,
                f"final:{self.result.status.value}",
            )
        elif not batch:
            self.waiting += 1

    def _idle_tick(self, world: "World") -> None:
        self.waiting += 1
        if self.waiting >= self.policy.timeout_ticks:
            self._abort(AbortReason.TIMEOUT, world)

    def _maybe_announce(self, world: "World") -> None:
        if self.announced:
            return
        # decode is worth recomputing only when new checks have landed
        checks = self.receiver.received_count
        if checks == self._checks_at_last_decode:
            return
        self._checks_at_last_decode = checks
        result = self.receiver.decode()
        if result.status is DecodeStatus.DECODED:
            self.announced = True
            world.log(
                None,
                MessageKind.DECODE_ANNOUNCE,
                self.party,
                self.party,
                f"early:bits={result.bob_bit}{result.sonai_bit}",
            )

    def _abort(self, reason: AbortReason, world: "World") -> None:
        self.aborted = reason
        self.result = DecodeResult.aborted(reason)
        world.log(None, MessageKind.ABORT, self.party, self.party, reason.value)


class World:
    """All session state: links, agents, the public transcript, event log."""

    def __init__(
        self,
        config: ProtocolConfig,
        cb: Codebook,
        agents: dict[Party, ReceiverAgent],
        policy: FairnessPolicy,
    ):
        self.config = config
        self.codebook = cb
        self.agents = agents
        self.policy = policy
        self.links: dict[tuple[Party, Party], Link] = {
            pair: Link(*pair) for pair in LINK_ORDER
        }
        self.transcript = Transcript()
        self.event_log: list[dict] = []
        self.tick = 0

    def log(
        self,
        link: Link | None,
        kind: MessageKind,
        sender: Party,
        receiver: Party,
        summary: str,
    ) -> None:
        self.event_log.append(
            {
                "tick": self.tick,
                "link": link.name if link else "local",
                "kind": kind.value,
                "sender": sender.value,
                "receiver": receiver.value,
                "payload_summary": summary,
            }
        )

    def send_reveal(self, party: Party, position: int, outcome: int) -> None:
        event = RevealEvent(
            round=len(self.transcript.events) + 1,
            party=party,
            position=position,
            outcome=SpinOutcome(outcome),
        )
        self.transcript.append(event)
        link = self.links[(party, party.counterpart())]
        link.push(
            MessageKind.REVEAL,
            {"position": position, "outcome": outcome},
            self.tick,
        )
        self.log(
            link,
            MessageKind.REVEAL,
            party,
            party.counterpart(),
            f"{party.value}#{position}:{SpinOutcome(outcome).symbol}",
        )

    def deliver_phase(self) -> None:
        for pair in LINK_ORDER:
            link = self.links[pair]
            for msg in link.pop_due(self.tick):
                agent = self.agents.get(msg.receiver)
                if agent is not None:
                    agent.on_message(msg, self)

    def act_phase(self) -> None:
        for party in (Party.BOB, Party.SONAI):
            self.agents[party].act(self)


def build_world(
    config: ProtocolConfig,
    bits: tuple[int, int],
    cb: Codebook,
    strategies: dict[Party, Strategy] | None = None,
    policy: FairnessPolicy | None = None,
) -> World:
    """Prepare a block from the config seed and wire up both receivers."""
    if cb.n != config.n:
        raise ValueError(f"codebook size {cb.n} does not match config n {config.n}")
    strategies = dict(strategies or {})
    policy = policy or FairnessPolicy()
    _, receivers = prepare_session(config, bits, cb)
    lie_keys = {Party.BOB: rng_mod.KEY_LIE_BOB, Party.SONAI: rng_mod.KEY_LIE_SONAI}
    agents = {
        party: ReceiverAgent(
            party=party,
            receiver=receiver,
            strategy=strategies.get(party, Honest()),
            policy=policy,
            is_opener=(party is config.reveal_first),
            lie_rng=rng_mod.substream(config.seed, lie_keys[party]),
        )
        for party, receiver in receivers.items()
    }
    world = World(config, cb, agents, policy)
    # sender hands each receiver its outcome sequence up front
    for party in (Party.BOB, Party.SONAI):
        link = world.links[(Party.ALICE, party)]
        link.push(MessageKind.DELIVERY, {"count": cb.n}, now=0)
        world.log(link, MessageKind.DELIVERY, Party.ALICE, party, f"outcomes[n={cb.n}]")
    return world


def run_world(world: World) -> SessionOutcome:
    """Tick until both receivers settle or either aborts."""
    config = world.config
    max_ticks = 4 * config.n + world.policy.timeout_ticks + 8
    while world.tick < max_ticks:
        world.tick += 1
        world.deliver_phase()
        world.act_phase()
        agents = [world.agents[Party.BOB], world.agents[Party.SONAI]]
        if any(a.aborted is not None for a in agents) or all(a.finished for a in agents):
            break
    else:
        raise RuntimeError("session failed to settle within the tick budget")

    bob = world.agents[Party.BOB]
    sonai = world.agents[Party.SONAI]
    for agent in (bob, sonai):
        if agent.result is None:
            agent.result = agent.receiver.decode()
    results = {Party.BOB: bob.result, Party.SONAI: sonai.result}
    transport_abort = next((a.aborted for a in (bob, sonai) if a.aborted is not None), None)
    terminal = terminal_record(bob.result, sonai.result, transport_abort)
    world.transcript.close(terminal)
    return SessionOutcome(
        transcript=world.transcript,
        results=results,
        receivers={Party.BOB: bob.receiver, Party.SONAI: sonai.receiver},
        event_log=world.event_log,
        ticks=world.tick,
        codebook=world.codebook,
    )


def fairness_gap(transcript: Transcript) -> int:
    """Largest lead either receiver held at any prefix of the public record."""
    count = {Party.BOB: 0, Party.SONAI: 0}
    worst = 0
    for event in transcript.events:
        count[event.party] += 1
        worst = max(worst, abs(count[Party.BOB] - count[Party.SONAI]))
    return worst
