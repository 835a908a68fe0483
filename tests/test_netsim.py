"""Simulator behavior: pacing, timeouts, adversary strategies, determinism."""

import hashlib
from collections import Counter
import itertools
import json
import time

import numpy as np
import pytest

from entpost.codebook import reference_codebook, resolve_codebook
from entpost.netsim import (
    Action,
    BatchDump,
    Honest,
    LieWithProb,
    WithholdAfter,
    build_world,
    enforce_fairness,
    fairness_gap,
    lie_flips,
    parse_strategy,
    run_session,
    run_world,
)
from entpost.protocol import (
    AbortReason,
    DecodeStatus,
    Party,
    ProtocolConfig,
    alice_prepare,
)
from entpost.rng import KEY_LIE_BOB, KEY_LIE_SONAI, substream

REF = reference_codebook()


def config8(**kw):
    base = dict(n=8, lam=4, confidence_target=0.9, seed=13)
    base.update(kw)
    return ProtocolConfig(**base)


def reveal_lines(transcript):
    """(party, position, outcome) of each reveal, read from the public lines."""
    records = (json.loads(line) for line in transcript.to_jsonl().splitlines())
    return [(Party(r["party"]), r["position"], 1 if r["outcome"] == "+" else -1)
            for r in records if "round" in r]


# -- pacing rules -------------------------------------------------------------


def test_enforce_fairness_opener_window():
    config = config8(one_ahead_limit=1, timeout_ticks=16)
    assert enforce_fairness(config, 0, 0, 0, True) is Action.PROCEED
    assert enforce_fairness(config, 1, 0, 0, True) is Action.STALL
    assert enforce_fairness(config, 1, 1, 0, True) is Action.PROCEED


def test_enforce_fairness_non_opener_stays_behind():
    config = config8(one_ahead_limit=1, timeout_ticks=16)
    assert enforce_fairness(config, 0, 0, 0, False) is Action.STALL
    assert enforce_fairness(config, 0, 1, 0, False) is Action.PROCEED
    assert enforce_fairness(config, 1, 1, 0, False) is Action.STALL


def test_enforce_fairness_timeout_takes_precedence():
    config = config8(one_ahead_limit=1, timeout_ticks=4)
    assert enforce_fairness(config, 0, 1, 4, False) is Action.ABORT_TIMEOUT
    assert enforce_fairness(config, 0, 1, 3, False) is Action.PROCEED


def test_policy_validation():
    with pytest.raises(ValueError, match="one_ahead_limit must be at least 1, got 0"):
        config8(one_ahead_limit=0)
    with pytest.raises(ValueError, match="timeout_ticks must be at least 1, got 0"):
        config8(timeout_ticks=0)


# -- strategy parsing ---------------------------------------------------------


def test_parse_strategy_accepts_all_forms():
    assert parse_strategy("honest") == Honest()
    assert parse_strategy("batchdump") == BatchDump()
    assert parse_strategy("withhold:5") == WithholdAfter(5)
    assert parse_strategy("lie:0.25") == LieWithProb(0.25)
    assert parse_strategy(" WITHHOLD:0 ") == WithholdAfter(0)


def test_parse_strategy_rejects_garbage():
    for text in ("sneaky", "withhold", "withhold:x", "withhold:-1", "lie", "lie:two", "honest:1"):
        with pytest.raises(ValueError):
            parse_strategy(text)


def test_withhold_count_bounds():
    for limit in (-1, 2.0, True, "3"):
        with pytest.raises(ValueError, match="withhold count must be a non-negative integer"):
            WithholdAfter(limit)
    assert WithholdAfter(0).limit == 0


def test_lie_probability_bounds():
    with pytest.raises(ValueError):
        LieWithProb(1.5)
    with pytest.raises(ValueError):
        LieWithProb(-0.1)
    for p in (True, False, "0.5", None, [0.5]):
        with pytest.raises(ValueError, match="lie probability must be a number"):
            LieWithProb(p)
    assert LieWithProb(1).describe() == "lie:1.0"


@pytest.mark.parametrize("strategy, lie, plans", [
    # plans: {(sent, pacing_ok): count} at n=8
    (Honest(), 0.0, {(0, True): 1, (0, False): 0, (5, True): 1, (8, True): 1, (8, False): 0}),
    (WithholdAfter(3), 0.0,
     {(0, True): 1, (0, False): 0, (2, True): 1, (3, True): 0, (3, False): 0, (8, True): 0}),
    (WithholdAfter(0), 0.0, {(0, True): 0, (0, False): 0}),
    (BatchDump(), 0.0, {(0, True): 8, (0, False): 8, (5, False): 3, (8, True): 0}),
    (LieWithProb(0.3), 0.3, {(0, True): 1, (0, False): 0, (5, True): 1, (8, False): 0}),
])
def test_strategy_plans_a_count_from_counters(strategy, lie, plans):
    # the agent sends at most the n - sent values it has left, so a count
    # past the end sends nothing
    assert strategy.lie == lie
    for (sent, pacing_ok), count in plans.items():
        assert strategy.plan(sent, 8, pacing_ok) == count


def test_agent_reveals_its_positions_in_order():
    for strategies in ({}, {Party.BOB: BatchDump()}, {Party.SONAI: WithholdAfter(3)},
                       {Party.SONAI: LieWithProb(0.3)}):
        world = build_world(config8(), (0, 1), cb=REF, strategies=strategies)
        lines = reveal_lines(run_world(world).transcript)
        for party, agent in world.agents.items():
            reveals = [(position, value) for p, position, value in lines if p is party]
            assert [position for position, _ in reveals] == list(range(1, agent.sent + 1))
            assert [value for _, value in reveals] == agent.published[:agent.sent]


def test_liar_publishes_its_row_flipped_at_lie_flips():
    config = config8(seed=5)
    (table,) = alice_prepare([config.seed], config.noise, [(1, 0)], REF)
    for side, party in enumerate((Party.BOB, Party.SONAI)):
        outcome = run_session(config, (1, 0), cb=REF, strategies={party: LieWithProb(0.3)})
        (flips,) = lie_flips([config.seed], side, 0.3, 8)
        # the liar's own lie substream, as numpy draws it
        key = (KEY_LIE_BOB, KEY_LIE_SONAI)[side]
        assert np.array_equal(flips, substream(config.seed, key).random(8) < 0.3)
        # and a block of seeds draws each session's lies as a block of one does
        assert np.array_equal(lie_flips([9, config.seed], side, 0.3, 8)[1], flips)
        assert 0 < flips.sum() < 8  # the case shows both kinds of value
        lines = reveal_lines(outcome.transcript)
        published = [value for p, _, value in lines if p is party]
        assert published == np.where(flips, -table[side], table[side]).tolist()
        other = [value for p, _, value in lines if p is not party]
        assert other == table[1 - side].tolist()
        # the liar's own view keeps its true row
        assert np.array_equal(outcome.receivers[party].table[side], table[side])


# -- honest runs --------------------------------------------------------------


def test_honest_session_alternates_strictly():
    outcome = run_session(config8(), (0, 1), cb=REF)
    parties = [party for party, _, _ in reveal_lines(outcome.transcript)]
    assert parties[0] is Party.BOB  # default opener
    for i, party in enumerate(parties):
        assert party is (Party.BOB if i % 2 == 0 else Party.SONAI)
    assert outcome.ticks == 2 * 8 + 1
    assert fairness_gap(outcome.transcript) == 1
    assert outcome.terminal.status in (DecodeStatus.DECODED, DecodeStatus.UNDECIDED)


def test_reveal_first_controls_the_opener():
    outcome = run_session(config8(reveal_first=Party.SONAI), (0, 1), cb=REF)
    assert reveal_lines(outcome.transcript)[0][0] is Party.SONAI


def test_honest_check_counts_stay_balanced_every_tick():
    world = build_world(config8(), (1, 1), cb=REF)
    bob = world.agents[Party.BOB].receiver
    sonai = world.agents[Party.SONAI].receiver
    for _ in range(50):
        world.tick += 1
        world.deliver_phase()
        world.act_phase()
        assert abs(len(bob.arrivals) - len(sonai.arrivals)) <= 1
        if all(world.agents[p].finished for p in (Party.BOB, Party.SONAI)):
            break
    assert len(bob.arrivals) == len(sonai.arrivals) == 8


def test_honest_event_log_announces_both_decodes():
    outcome = run_session(config8(), (0, 0), cb=REF)
    finals = [
        e for e in outcome.event_log
        if e["kind"] == "decode_announce" and e["payload_summary"].startswith("final:")
    ]
    assert len(finals) == 2
    for event in outcome.event_log:
        assert set(event) == {"tick", "link", "kind", "sender", "receiver", "payload_summary"}


def test_links_deliver_in_fifo_order_with_unit_delay():
    # a batch-dumping sonai sends all of its reveals in the tick the opener
    # sends its first, so one delivery phase hands over both
    world = build_world(config8(), (0, 0), cb=REF, strategies={Party.SONAI: BatchDump()})
    arrivals = []
    for party, agent in world.agents.items():
        def record(position, outcome, party=party, observe=agent.receiver.observe_reveal):
            arrivals.append((world.tick, party.value, position))
            observe(position, outcome)

        agent.receiver.observe_reveal = record
    outcome = run_world(world)
    reveals = [e for e in outcome.event_log if e["kind"] == "reveal"]
    # each reveal arrives in the tick after it was sent, in send order
    sent = [
        (entry["tick"] + 1, entry["receiver"], position)
        for entry, (_, position, _) in zip(reveals, reveal_lines(outcome.transcript), strict=True)
    ]
    assert arrivals == sent
    assert [receiver for tick, receiver, _ in sent if tick == 2] == ["sonai"] + ["bob"] * 8


# -- adversaries --------------------------------------------------------------


def test_withholding_counterpart_forces_timeout_abort():
    outcome = run_session(config8(), (1, 0), cb=REF, strategies={Party.SONAI: WithholdAfter(3)})
    assert outcome.terminal.status is DecodeStatus.ABORT
    assert outcome.terminal.abort_reason is AbortReason.TIMEOUT
    counts = Counter(party for party, _, _ in reveal_lines(outcome.transcript))
    # pacing capped the honest opener at one reveal ahead
    assert counts[Party.BOB] == 4
    assert counts[Party.SONAI] == 3
    assert fairness_gap(outcome.transcript) == 1


def test_withholding_opener_stalls_everyone():
    outcome = run_session(
        config8(timeout_ticks=5), (1, 0), cb=REF, strategies={Party.BOB: WithholdAfter(0)}
    )
    assert outcome.terminal.status is DecodeStatus.ABORT
    assert outcome.terminal.abort_reason is AbortReason.TIMEOUT
    assert reveal_lines(outcome.transcript) == []
    assert outcome.ticks == 6  # idle from the first tick, patience of five


def test_batch_dump_still_completes():
    outcome = run_session(config8(), (0, 1), cb=REF, strategies={Party.SONAI: BatchDump()})
    assert outcome.terminal.status is DecodeStatus.DECODED
    assert (outcome.terminal.bob_bit, outcome.terminal.sonai_bit) == (0, 1)
    assert fairness_gap(outcome.transcript) >= 7  # the dump abandons pacing
    assert outcome.ticks < 2 * 8 + 1  # and finishes sooner than alternation


def test_opening_batch_dump_maximizes_the_gap():
    # the opener fires all n reveals before hearing anything back
    outcome = run_session(config8(), (0, 1), cb=REF, strategies={Party.BOB: BatchDump()})
    assert fairness_gap(outcome.transcript) == 8


def test_liar_corrupts_counterpart_but_not_itself():
    outcome = run_session(
        config8(seed=3), (1, 0), cb=REF, strategies={Party.SONAI: LieWithProb(1.0)}
    )
    assert outcome.terminal.status is DecodeStatus.ABORT
    assert outcome.terminal.abort_reason is AbortReason.NO_CONSISTENT_ENTRY
    assert outcome.results[Party.BOB].status is DecodeStatus.ABORT
    liar = outcome.results[Party.SONAI]
    assert liar.status is DecodeStatus.DECODED
    assert (liar.bob_bit, liar.sonai_bit) == (1, 0)


def test_liar_detected_at_production_size():
    config = ProtocolConfig(n=64, lam=16, seed=21)
    outcome = run_session(config, (0, 1), strategies={Party.BOB: LieWithProb(1.0)})
    assert outcome.terminal.status is DecodeStatus.ABORT
    assert outcome.terminal.abort_reason is AbortReason.NO_CONSISTENT_ENTRY
    assert outcome.results[Party.SONAI].status is DecodeStatus.ABORT


def test_lie_with_zero_probability_is_honest():
    a = run_session(config8(), (1, 1), cb=REF)
    b = run_session(config8(), (1, 1), cb=REF, strategies={Party.SONAI: LieWithProb(0.0)})
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()


# -- determinism and budgets --------------------------------------------------


def test_same_seed_same_transcript_bytes():
    a = run_session(config8(seed=77), (1, 0), cb=REF)
    b = run_session(config8(seed=77), (1, 0), cb=REF)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
    assert a.event_log == b.event_log
    c = run_session(config8(seed=78), (1, 0), cb=REF)
    assert a.transcript.to_jsonl() != c.transcript.to_jsonl()


def test_tick_budgets():
    # honest: two ticks per reveal pair plus the opening delivery
    honest = run_session(config8(), (0, 0), cb=REF)
    assert honest.ticks == 17
    # worst case stays inside the hard budget used by the runner
    stalled = run_session(
        config8(timeout_ticks=16), (0, 0), cb=REF, strategies={Party.SONAI: WithholdAfter(7)}
    )
    assert stalled.ticks <= 4 * 8 + 16 + 8


@pytest.mark.parametrize("party", [Party.BOB, Party.SONAI])
@pytest.mark.parametrize("limit", range(8))
def test_a_longer_timeout_only_delays_the_abort(party, limit):
    # a stalled session repeats its idle tick until a stall counter reaches
    # the timeout, so a timeout longer by delta ends it delta ticks later
    # with the same record, and a huge one still ends at once
    strategies = {party: WithholdAfter(limit)}
    base = run_session(config8(timeout_ticks=16), (1, 0), cb=REF, strategies=strategies)
    assert base.terminal.abort_reason is AbortReason.TIMEOUT
    for delta in (1, 7, 10**9 - 16):
        started = time.perf_counter()
        later = run_session(config8(timeout_ticks=16 + delta), (1, 0), cb=REF, strategies=strategies)
        assert time.perf_counter() - started < 1.0
        assert later.transcript.to_jsonl() == base.transcript.to_jsonl()
        assert later.results == base.results
        assert later.ticks == base.ticks + delta
        assert later.event_log == [dict(e, tick=e["tick"] + delta) if e["kind"] == "abort" else e
                                   for e in base.event_log]


# -- pinned bytes -------------------------------------------------------------

PINNED_STRATEGIES = {
    "honest": {},
    "withhold-bob": {Party.BOB: WithholdAfter(3)},
    "withhold-sonai": {Party.SONAI: WithholdAfter(3)},
    "batchdump-bob": {Party.BOB: BatchDump()},
    "batchdump-sonai": {Party.SONAI: BatchDump()},
    "lie-bob": {Party.BOB: LieWithProb(0.3)},
    "lie-sonai": {Party.SONAI: LieWithProb(0.3)},
}
PINNED_NOISE = {"noiseless": dict(noise=0.0, delta=0.0), "noisy": dict(noise=0.05, delta=0.25)}
PINNED_SIZES = {"n8-reference": (8, 4, REF), "n32": (32, 8, None)}  # None: generated from the seed
PINNED_CASES = [
    "/".join(parts)
    for parts in itertools.product(PINNED_STRATEGIES, ("bob", "sonai"), PINNED_NOISE, PINNED_SIZES)
]


def pinned_session_digest(case: str) -> str:
    """sha256 over the transcript, the JSON event log and the tick count of
    one session of the pinned grid."""
    strategy, opener, noise, size = case.split("/")
    n, lam, cb = PINNED_SIZES[size]
    config = ProtocolConfig(
        n=n, lam=lam, confidence_target=0.9, reveal_first=opener, seed=29, **PINNED_NOISE[noise]
    )
    outcome = run_session(config, (1, 0), strategies=PINNED_STRATEGIES[strategy], cb=cb)
    record = "\n".join(
        (outcome.transcript.to_jsonl(), json.dumps(outcome.event_log), str(outcome.ticks))
    )
    return hashlib.sha256(record.encode()).hexdigest()


# Recorded from the simulator as it stood before its transport was rewritten;
# any change to the transcripts, the event log or the tick count shows here.
PINNED_DIGESTS = {
    "honest/bob/noiseless/n8-reference": "c87151e1bb11b29b327231944157250ac7af81d460db9a3ee8d48ae94b2b4559",
    "honest/bob/noiseless/n32": "8c4782b1d4694cd387be5be3bcdf5a70ef99f39d81b61f1d8b0c8d14f2b763f0",
    "honest/bob/noisy/n8-reference": "d3afe5a4f203b1ebd7dcf5c70f8afe6acb04e87d9b1066e19bbb857549c7088b",
    "honest/bob/noisy/n32": "e44ed6a317302d1254230d8302b6a44deaab4c7baf95bf601add2a49680ed82e",
    "honest/sonai/noiseless/n8-reference": "55d9ca99a19eee97b23ffbc96914fa6c13f21ec4d93ef5060117797006cc6799",
    "honest/sonai/noiseless/n32": "3d1461a1f043353c2f744b7895395efc326e9948a9f01a9b4f9fc1e2b0feaeae",
    "honest/sonai/noisy/n8-reference": "2dda67f3aee313d679b6540ee49294e84c2d3aa3a22df672a3989def1b424ae0",
    "honest/sonai/noisy/n32": "73defaa6edeaa4f505b7ee29db7ff4577ad360eeabe41707c980a5541b487f17",
    "withhold-bob/bob/noiseless/n8-reference": "06a86262377bef7ade5ddfc93e83fc15160ffe741ad4e6ad53c50d13c815552a",
    "withhold-bob/bob/noiseless/n32": "82c3715a9c4e091a7011e748bd9ddf4583520554e2b89189fe8026aba4007fde",
    "withhold-bob/bob/noisy/n8-reference": "4873a3363349831779fd1417a29ae6107f6ab29b6c6f7e76abc0a5c44c9f1d52",
    "withhold-bob/bob/noisy/n32": "7a2adc49df773d0817d23aa6c3866e1db321a2b8f1a52d86df2f9ff1aaa47267",
    "withhold-bob/sonai/noiseless/n8-reference": "7681d8320c234aa24dd2dc521c0f87da186143c7e5b8ec18aa989773fe713b86",
    "withhold-bob/sonai/noiseless/n32": "451867851ba6862df897d3970b4336d97fbbe9b0234d7e0681a03d6f9142e0fd",
    "withhold-bob/sonai/noisy/n8-reference": "a1bff19e916c59ebc2fd01725c9949349eb3d3bfa008a9fb8adf94fbdde78d4e",
    "withhold-bob/sonai/noisy/n32": "7ac70cb1cb8befda6225303d41b55e7f87c6aa88c3c807879ddf550a1121717c",
    "withhold-sonai/bob/noiseless/n8-reference": "3816d85bb8e35d431f351bba455263fd802583112532b6b5169125d1b97c1ae4",
    "withhold-sonai/bob/noiseless/n32": "ec9bba1c85aa15b556c1868853a0c32c86c4129491f14488c8f5ba3a2deceead",
    "withhold-sonai/bob/noisy/n8-reference": "cc0cd1d932736fe2fe9ed5e13bf7b2ddab9b7557e33bf9c35dbdb34494d63519",
    "withhold-sonai/bob/noisy/n32": "a1109e42bee2574de9a13f1ecf073661028baa5a9364a1d4b3403436833e6ec0",
    "withhold-sonai/sonai/noiseless/n8-reference": "ba8c47b060067ec69cbecfd41f4b6bdcb5a5ff9b6cb9e33756dff0ebf8459768",
    "withhold-sonai/sonai/noiseless/n32": "948e22dffbde35ea40a36a6f6076c06efb914f8dec2d4837492d687e2505a036",
    "withhold-sonai/sonai/noisy/n8-reference": "f8a36f5993769deebbf3c0c08bdd15c492311a101f5d2ce78a16f317a7d76933",
    "withhold-sonai/sonai/noisy/n32": "d44b833dfc5a61711e9edaf934398db39e18daf58c694215fe626afc6f2fcd29",
    "batchdump-bob/bob/noiseless/n8-reference": "660d801a0169f46272c09d0f491727e429cb916f4b23f778c6b7da8f801c31e0",
    "batchdump-bob/bob/noiseless/n32": "61ae4483b2a9dbbebb20377dbe802655eb967155245bd247b55914ff0e842e3e",
    "batchdump-bob/bob/noisy/n8-reference": "3e4f0aa27952097e2a891de0417616e7896db8e446585c1af3c47369b13b89de",
    "batchdump-bob/bob/noisy/n32": "de83bd071da94cb31d98f97e02a1c08b478dcf3c5358d3cfb10bca94b5eeaa4f",
    "batchdump-bob/sonai/noiseless/n8-reference": "b0d7d371d4229bef2ed250bedf62ce04655494baed0d2d8a97c19bbf9b5517f7",
    "batchdump-bob/sonai/noiseless/n32": "c656d9169acd287e5411b7cf85ca0706bda0b04d62b90db89626e47eb95a466b",
    "batchdump-bob/sonai/noisy/n8-reference": "fe187c2246e0d48c64db07cb2bc2991a3167836b2a095e58499f98100632bdb2",
    "batchdump-bob/sonai/noisy/n32": "0565b2f444a5374a118ff0770b5c36b8d8d68778372939b6cf7078d39524e969",
    "batchdump-sonai/bob/noiseless/n8-reference": "93a3f83be8abac22c536d539d55586e935a24206bf395b962664f44aefffa811",
    "batchdump-sonai/bob/noiseless/n32": "a61a938dc7e5fe930c8cb0333bedf368ea64febb684bdfa97617cfbca350e8c9",
    "batchdump-sonai/bob/noisy/n8-reference": "00a5ad0c7bc232c11a8d7047a067ba2ebf25d1dc54388362b519982c96cb99d3",
    "batchdump-sonai/bob/noisy/n32": "9a6739f84915a8e472d82953c5f30818715c33c7942aaa2f7beca2acc7863d16",
    "batchdump-sonai/sonai/noiseless/n8-reference": "26aa52ccec77e925d3268de34f0e8a4839abb223e609caf182057b175b3ae9a6",
    "batchdump-sonai/sonai/noiseless/n32": "7f3ebf208d3a94f5428d4bfff90b5c0c26e8bb7b8c7bf1eac18e041561947e1c",
    "batchdump-sonai/sonai/noisy/n8-reference": "8c4e0585ca6b3ab19c77710e87f767a9483a046a13cc88ab404582cb2a147989",
    "batchdump-sonai/sonai/noisy/n32": "0f94c75331f6456fcfeaaa1cd3d7a81093d5dfb10f0ff4a7766058ad24ef2168",
    "lie-bob/bob/noiseless/n8-reference": "ff1460522c9bd7586949f698f98d5c15a155a6c00ad63231a16a91128d08f0c5",
    "lie-bob/bob/noiseless/n32": "95e55bfcdd1eee02ef612f7d94150db51ec659ae3271bf803d1897c6d38bcda9",
    "lie-bob/bob/noisy/n8-reference": "28e467e8b512a840179b7ff84a524ea4e06ea37d7b5264d15028946c8c21307d",
    "lie-bob/bob/noisy/n32": "456ba550a4737d79b63c0f08f50fc2475d9069615b998b702acfe6c60a25f85e",
    "lie-bob/sonai/noiseless/n8-reference": "71feed7b8239a0c5c447db4ab09cf53ec5215ad7dece40c8c26ab6a23d5145a2",
    "lie-bob/sonai/noiseless/n32": "123e0d5461cc82d2e30e4d6417d98f20c548db2c8f39a5720f401441029003df",
    "lie-bob/sonai/noisy/n8-reference": "7e56f107ca447bb52e3ccadda05047ef49de0778d26e51c9517e2fbda1b7634c",
    "lie-bob/sonai/noisy/n32": "75bfb835bb9c68a0e5dfb9b87d62469ad42b75c0f5eb14186775c78055f47293",
    "lie-sonai/bob/noiseless/n8-reference": "87300504987699fed9d9cde37ef95988f8cab0310c101152a496b7b322537fce",
    "lie-sonai/bob/noiseless/n32": "0c4cccce9ee9e2fe4591a7cd8de390180d0b2585b6f2ab7a7b46a32a5ca2fd11",
    "lie-sonai/bob/noisy/n8-reference": "271b9d7e97e5f4c8bc8a2ce8258a527b96ffffc56801859e78bcf6b962bbf812",
    "lie-sonai/bob/noisy/n32": "9a8ffb9d5ea777f10fe4434bd45aa92b31b8491d422bb9197e34e000e0ec4806",
    "lie-sonai/sonai/noiseless/n8-reference": "c71c524aa2fe4dd36c59025691102ffd36bdab859ee6be03c98d4de73f4a5bc1",
    "lie-sonai/sonai/noiseless/n32": "9da25892f34336c61e92438e8ea1286d5ecd712de3fd2fe8925880209c0e4be4",
    "lie-sonai/sonai/noisy/n8-reference": "af3a24445617d5b75fb95d68d153d532f3ce045bb24cf53b2ad7172d1f2afa42",
    "lie-sonai/sonai/noisy/n32": "d3d68ce27020499d1f1ed97c3429e79bde971dd5b39976f0699c28a14c243819",
}


@pytest.mark.parametrize("case", PINNED_CASES)
def test_simulator_bytes_are_pinned(case):
    assert pinned_session_digest(case) == PINNED_DIGESTS[case]


# -- the early-announce rule --------------------------------------------------


@pytest.mark.parametrize("opener", ("bob", "sonai"))
@pytest.mark.parametrize("strategy", PINNED_STRATEGIES)
def test_early_announce_marks_the_first_act_whose_view_decodes(strategy, opener):
    # step a world by hand and decode each live receiver's view after every
    # act; a session's log is the other entries as they come, plus one early
    # entry per receiver at the first act whose view decodes, ahead of that
    # act's final entry
    announces = 0
    for noise, one_ahead, (n, lam, cb) in itertools.product(
        PINNED_NOISE.values(), (1, 2), PINNED_SIZES.values()
    ):
        config = ProtocolConfig(n=n, lam=lam, confidence_target=0.9, reveal_first=opener,
                                seed=29, one_ahead_limit=one_ahead, **noise)
        cb = cb or resolve_codebook(None, n, lam, config.seed)
        world = build_world(config, (1, 0), cb=cb, strategies=PINNED_STRATEGIES[strategy])
        agents = [world.agents[party] for party in (Party.BOB, Party.SONAI)]
        expected, announced, seen = [], set(), 0

        def fresh():
            """The entries logged since the last call, early ones left out."""
            nonlocal seen
            new, seen = world.event_log[seen:], len(world.event_log)
            return [e for e in new if not e["payload_summary"].startswith("early:")]

        expected += fresh()
        while not (any(a.aborted is not None for a in agents) or all(a.finished for a in agents)):
            world.tick += 1
            world.deliver_phase()
            expected += fresh()
            for agent in agents:
                live = not agent.done
                agent.act(world)
                new = fresh()
                party = agent.party
                if live and agent.aborted is None and party not in announced:
                    result = agent.receiver.decode()
                    if result.status is DecodeStatus.DECODED:
                        announced.add(party)
                        early = {"tick": world.tick, "link": "local", "kind": "decode_announce",
                                 "sender": party.value, "receiver": party.value,
                                 "payload_summary": f"early:bits={result.bob_bit}{result.sonai_bit}"}
                        new.insert(len(new) - agent.finished, early)
                expected += new
        outcome = run_session(config, (1, 0), strategies=PINNED_STRATEGIES[strategy], cb=cb)
        assert outcome.event_log == expected
        announces += len(announced)
    assert announces


# -- hand-over by count -------------------------------------------------------


@pytest.mark.parametrize("opener", ("bob", "sonai"))
@pytest.mark.parametrize("strategy", PINNED_STRATEGIES)
def test_each_delivery_hands_over_exactly_what_the_counterpart_sent(strategy, opener):
    # after every delivery phase a receiver holds the counterpart's first
    # `sent` positions, in order, and the phase reports whether any moved
    for one_ahead, (n, lam, cb) in itertools.product((1, 2), PINNED_SIZES.values()):
        config = ProtocolConfig(n=n, lam=lam, confidence_target=0.9, reveal_first=opener,
                                seed=29, one_ahead_limit=one_ahead)
        cb = cb or resolve_codebook(None, n, lam, config.seed)
        world = build_world(config, (1, 0), cb=cb, strategies=PINNED_STRATEGIES[strategy])
        agents = [world.agents[party] for party in (Party.BOB, Party.SONAI)]
        while not (any(a.aborted is not None for a in agents) or all(a.finished for a in agents)):
            world.tick += 1
            before = [len(a.receiver.arrivals) for a in agents]
            moved = world.deliver_phase()
            for agent, sender in zip(agents, agents[::-1]):
                receiver = agent.receiver
                assert receiver.arrivals == list(range(sender.sent))
                assert receiver.table[1 - receiver.side, :sender.sent].tolist() == \
                    sender.published[:sender.sent]
            assert moved == ([len(a.receiver.arrivals) for a in agents] != before)
            world.act_phase()
