"""Mutation operators, campaign behaviour, and trigger minimization."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecuforge import executor
from vecuforge.executor import StateTransport
from vecuforge.frames import MAX_DATA_LEN, Frame, parse_line
from vecuforge.fuzz_engine import (
    MUTATION_OPS,
    CampaignResult,
    FuzzConfig,
    FuzzError,
    FuzzFinding,
    _below,
    _window_bytes,
    minimize,
    mutate,
    run_campaign,
)
from vecuforge.simulator import EcuState, SimConfig, handle_frame
from vecuforge.tcg import load_sutdb

SRC = str(Path(__file__).resolve().parents[1] / "src")
ALL_OPS = frozenset(MUTATION_OPS)
OP_SETS = [
    frozenset(ops) for k in range(len(MUTATION_OPS) + 1)
    for ops in itertools.combinations(MUTATION_OPS, k)
]


def bundled_corpus(samples_dir) -> tuple[Frame, ...]:
    db = load_sutdb(samples_dir / "sutdb.json")
    return tuple(parse_line(line) for line in db.dictionaries["fuzz_corpus"])


@pytest.fixture(scope="module")
def corpus(samples_dir):
    return bundled_corpus(samples_dir)


def window_stream(seed: int, start: int) -> Iterator[int]:
    """The bytes of the probe window that starts at frame ``start``, by the
    documented rule: the blake2b digests of ``f"{seed}:{start}:{block}"``
    for block 0, 1, 2, ..., one byte at a time."""
    for block in itertools.count():
        yield from hashlib.blake2b(f"{seed}:{start}:{block}".encode()).digest()


class Tape:
    """A byte stream handed out one byte per ``draw()``, counting what it gave."""

    def __init__(self, stream: Iterable[int]):
        self._bytes = iter(stream)
        self.taken = 0

    def draw(self) -> int:
        self.taken += 1
        return next(self._bytes)


def tape(seed: int) -> Tape:
    return Tape(window_stream(seed, 0))


def finite_tape(data: bytes) -> Tape:
    """``data``, then 0, 1, ..., 255 over and over, which ends every redraw."""
    return Tape(itertools.chain(data, itertools.cycle(range(256))))


def randbelow(draw, n: int) -> int:
    """The documented draw from ``range(n)``: with k = (n - 1).bit_length(),
    read ceil(k / 8) bytes as one big-endian number, keep its top k bits,
    and read again while the value is >= n."""
    k = (n - 1).bit_length()
    size = (k + 7) // 8
    while True:
        value = int.from_bytes(bytes(draw() for _ in range(size)), "big") >> (8 * size - k)
        if value < n:
            return value


class TestMutate:
    FRAME = Frame(0x7DF, bytes([0x02, 0x01, 0x0D]))

    def test_empty_ops_is_identity(self):
        stream = tape(1)
        assert mutate(self.FRAME, stream.draw, frozenset()) == self.FRAME
        assert stream.taken == 0

    def test_same_seed_same_mutation(self):
        a = mutate(self.FRAME, tape(7).draw, ALL_OPS)
        b = mutate(self.FRAME, tape(7).draw, ALL_OPS)
        assert a == b

    def test_bit_flip_hamming_distance_one(self):
        for seed in range(50):
            out = mutate(self.FRAME, tape(seed).draw, frozenset({"bit_flip"}))
            assert out.id == self.FRAME.id
            assert len(out.data) == len(self.FRAME.data)
            diff = sum(
                bin(a ^ b).count("1") for a, b in zip(out.data, self.FRAME.data)
            )
            assert diff == 1

    def test_length_field_corrupt_overstates_length(self):
        for seed in range(50):
            out = mutate(
                self.FRAME, tape(seed).draw, frozenset({"length_field_corrupt"})
            )
            assert out.data[0] >= len(out.data)

    def test_truncate_shortens(self):
        for seed in range(50):
            out = mutate(self.FRAME, tape(seed).draw, frozenset({"truncate"}))
            assert len(out.data) < len(self.FRAME.data)

    def test_extend_grows_within_limit(self):
        for seed in range(50):
            out = mutate(self.FRAME, tape(seed).draw, frozenset({"extend"}))
            assert len(self.FRAME.data) < len(out.data) <= 8
            assert out.data[: len(self.FRAME.data)] == self.FRAME.data

    def test_full_frame_extend_is_identity(self):
        frame = Frame(0x7DF, bytes(range(8)))
        assert mutate(frame, tape(3).draw, frozenset({"extend"})) == frame

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=8),
        stream=st.binary(),
        ops=st.frozensets(st.sampled_from(MUTATION_OPS), min_size=1),
    )
    def test_output_always_well_formed(self, data, stream, ops):
        frame = Frame(0x7DF, data)
        out = mutate(frame, finite_tape(stream).draw, ops)
        assert out.id == frame.id
        assert 0 <= len(out.data) <= 8


def reference_mutate(frame: Frame, draw, ops: frozenset[str]) -> Frame:
    """``mutate`` written plainly over ``randbelow``, whose draws the engine
    must reproduce exactly."""
    if not ops:
        return frame
    data = bytearray(frame.data)
    order = sorted(ops)
    op = order[randbelow(draw, len(order))]
    if op == "bit_flip":
        if not data:
            return frame
        ix = randbelow(draw, len(data))
        data[ix] ^= 1 << randbelow(draw, 8)
    elif op == "byte_random":
        if not data:
            return frame
        value = randbelow(draw, 256)
        data[randbelow(draw, len(data))] = value
    elif op == "length_field_corrupt":
        if not data:
            return frame
        data[0] = len(data) + randbelow(draw, 256 - len(data))
    elif op == "truncate":
        data = data[: randbelow(draw, max(1, len(data)))]
    elif op == "extend":
        room = MAX_DATA_LEN - len(data)
        if room <= 0:
            return frame
        data.extend(randbelow(draw, 256) for _ in range(1 + randbelow(draw, room)))
    return Frame(frame.id, bytes(data))


class TestDrawExactness:
    """The engine's draws are the ones the documented byte rule gives, so a
    seed names the same campaign however the engine is written."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31])
    def test_below_is_randrange(self, seed):
        """``_below(draw, n)`` is the reference ``randbelow`` and takes the
        same bytes, for n = 1..256 and for two-byte and three-byte n."""
        ours, theirs = tape(seed), tape(seed)
        for n in range(1, 257):
            for _ in range(20):
                assert _below(ours.draw, n) == randbelow(theirs.draw, n)
                assert ours.taken == theirs.taken
        for n in (257, 1000, 70_000):
            assert _below(ours.draw, n) == randbelow(theirs.draw, n)
            assert ours.taken == theirs.taken

    def test_below_one_takes_no_byte(self):
        stream = tape(1)
        assert [_below(stream.draw, 1) for _ in range(5)] == [0] * 5
        assert stream.taken == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 8, 255, 256, 257, 300, 70_000])
    def test_below_stays_in_range_and_reaches_every_value(self, n):
        stream = tape(0)
        values = {_below(stream.draw, n) for _ in range(min(50 * n, 20_000))}
        assert values <= set(range(n))
        if n <= 300:
            assert values == set(range(n))

    @settings(max_examples=500, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=8),
        stream=st.binary(),
        ops=st.frozensets(st.sampled_from(MUTATION_OPS), min_size=1),
    )
    def test_mutate_draws_like_the_random_api(self, data, stream, ops):
        """``mutate`` equals ``reference_mutate`` on any stream and takes the
        same bytes from it."""
        ours, theirs = finite_tape(stream), finite_tape(stream)
        frame = Frame(0x7E0, data)
        for _ in range(3):
            assert mutate(frame, ours.draw, ops) == reference_mutate(frame, theirs.draw, ops)
            assert ours.taken == theirs.taken

    @pytest.mark.parametrize("ops", OP_SETS, ids=lambda ops: "+".join(sorted(ops)) or "none")
    def test_skip_mutation_draws_like_mutate(self, corpus, ops):
        """Leaving the rest of a dead window undrawn changes none of the
        frames any window offers: the campaign matches the brute-force
        reference, which draws each window's bytes by the documented rule
        and delivers every frame of every window."""
        config = FuzzConfig(seed=5, budget=1_000, corpus=corpus, probe_every=20,
                            mutation_ops=ops)
        assert_matches_reference(config, vulns=True)

    def test_corpus_picks_reach_past_256_frames(self):
        """A corpus pick from 300 frames is a two-byte draw; the campaign
        matches the reference and picks frames past index 255."""
        corpus = tuple(Frame(0x7DF, bytes([0x03, 0x01, i >> 8, i & 0xFF])) for i in range(300))
        config = FuzzConfig(seed=3, budget=1_000, corpus=corpus, mutation_ops=frozenset())
        _, transport, _ = assert_matches_reference(config, vulns=False)
        picked = {corpus.index(frame) for window in transport.windows for frame in window}
        assert max(picked) >= 256

    # sha256 of json.dumps([stats] + [minimize(f).to_dict() ...]) for seed 1,
    # budget 20,000, probe_every 50, bundled corpus; a change to the draws,
    # to the per-window streams or to the campaign moves them.
    GOLDEN = {
        True: "a5c35e2d18a827a420def9f5e224cbc2e53f4c3fb13393fed91866d4b23ecef6",
        False: "7a8b9c5d5cd4aa136d18f25e59d7b273179b91456ccf016df5207c665c8ed56f",
    }

    @pytest.mark.parametrize("vulns", [True, False], ids=["vulns-on", "vulns-off"])
    def test_golden_campaign(self, corpus, vulns):
        config = FuzzConfig(seed=1, budget=20_000, corpus=corpus)
        transport = StateTransport(EcuState(config=SimConfig().with_vulns(vulns)))
        result = run_campaign(config, transport)
        doc = [result.stats] + [minimize(f, transport).to_dict() for f in result.findings]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == self.GOLDEN[vulns]


class TestConfig:
    def test_validation(self, corpus):
        with pytest.raises(FuzzError, match="budget"):
            FuzzConfig(seed=1, budget=0, corpus=corpus)
        with pytest.raises(FuzzError, match="corpus"):
            FuzzConfig(seed=1, budget=10, corpus=())
        with pytest.raises(FuzzError, match="probe_every"):
            FuzzConfig(seed=1, budget=10, corpus=corpus, probe_every=0)
        with pytest.raises(FuzzError, match="unknown mutation"):
            FuzzConfig(seed=1, budget=10, corpus=corpus, mutation_ops=frozenset({"zap"}))

    def test_prng_pinned_in_metadata(self, corpus):
        assert FuzzConfig(seed=1, budget=1, corpus=corpus).to_dict()["prng"]


class TestCampaign:
    def test_finds_length_crash_with_seed_one(self, corpus):
        config = FuzzConfig(seed=1, budget=10_000, corpus=corpus, probe_every=50)
        result = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
        assert result.findings, "seeded length-field defect not found"
        for finding in result.findings:
            assert finding.reproduced
            data = finding.trigger_input.data
            assert data[0] > len(data) - 1, "trigger does not overstate its length"
        assert result.stats["frames_sent"] == 10_000

    def test_control_run_finds_nothing(self, corpus):
        config = FuzzConfig(seed=1, budget=10_000, corpus=corpus, probe_every=50)
        sim = SimConfig(v3_length_crash=False)
        result = run_campaign(config, StateTransport(EcuState(config=sim)))
        assert result.findings == []
        assert result.stats["frames_sent"] == 10_000

    def test_pure_corpus_budget_ten(self, corpus):
        config = FuzzConfig(
            seed=1, budget=10, corpus=corpus, mutation_ops=frozenset(), probe_every=5
        )
        result = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
        assert result.findings == []
        assert result.stats["frames_sent"] == 10
        assert result.stats["responses"] > 0
        assert result.stats["probes"] == 2

    def test_deterministic(self, corpus):
        config = FuzzConfig(seed=77, budget=2_000, corpus=corpus, probe_every=25)
        runs = []
        for _ in range(2):
            transport = StateTransport(EcuState(config=SimConfig()))
            result = run_campaign(config, transport)
            runs.append((result, [minimize(f, transport) for f in result.findings]))
        assert runs[0] == runs[1]
        assert runs[0][0].findings

    @pytest.mark.parametrize("vulns", [True, False], ids=["vulns-on", "vulns-off"])
    def test_sut_that_never_answers_the_probe_is_refused(self, vulns):
        """Without tester present every probe misses, so every window would
        name a frame of a live ECU as a reproduced trigger."""
        corpus = tuple(parse_line(line) for line in ("7df#013e", "7df#02010d", "7e0#021003"))
        config = FuzzConfig(seed=1, budget=500, corpus=corpus)
        sim = SimConfig(services=frozenset({0x01, 0x10, 0x27})).with_vulns(vulns)
        with pytest.raises(FuzzError, match="does not answer the liveness probe"):
            run_campaign(config, StateTransport(EcuState(config=sim)))

    def test_crashed_sut_is_refused(self, corpus):
        config = FuzzConfig(seed=1, budget=500, corpus=corpus)
        with pytest.raises(FuzzError, match="does not answer the liveness probe"):
            run_campaign(config, StateTransport(EcuState(alive=False)))

    @pytest.mark.parametrize("budget", [1, 7, 49, 50, 51, 500])
    def test_budget_respected(self, corpus, budget):
        config = FuzzConfig(seed=5, budget=budget, corpus=corpus, probe_every=50)
        result = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
        assert result.stats["frames_sent"] == budget

    def test_findings_deduplicated_and_ordered(self, corpus):
        config = FuzzConfig(seed=11, budget=5_000, corpus=corpus, probe_every=20)
        result = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
        triggers = [(f.trigger_input.id, f.trigger_input.data) for f in result.findings]
        assert len(triggers) == len(set(triggers))
        positions = [f.position for f in result.findings]
        assert positions == sorted(positions)

    def test_finding_serialization_round_trip_fields(self, corpus):
        config = FuzzConfig(seed=1, budget=2_000, corpus=corpus, probe_every=50)
        result = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
        assert result.stats["frames_sent"] == 2_000
        for entry in (f.to_dict() for f in result.findings):
            assert set(entry) == {
                "trigger_input",
                "source_input",
                "position",
                "verdict_evidence",
                "reproduced",
                "minimized_input",
            }
            assert "#" in entry["trigger_input"]


def kills(transport: StateTransport, frame: Frame) -> bool:
    transport.restore()
    transport.send(frame)
    dead = not transport.alive()
    transport.restore()
    return dead


@pytest.fixture(scope="module")
def campaign_finding(samples_dir) -> FuzzFinding:
    config = FuzzConfig(
        seed=1, budget=2_000, corpus=bundled_corpus(samples_dir), probe_every=50
    )
    result = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
    assert result.findings
    return result.findings[0]


class TestStateTransport:
    CRASH = Frame(0x7DF, bytes([0x05, 0x01]))
    BENIGN = Frame(0x7DF, bytes([0x02, 0x01, 0x0D]))

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_alive_until_the_crashing_frame(self, k):
        transport = StateTransport(EcuState(config=SimConfig()))
        for _ in range(k - 1):
            assert transport.send(self.BENIGN)
            assert not transport.down()
        assert transport.alive()
        assert transport.send(self.CRASH) == 0
        assert transport.down()
        assert transport.send(self.BENIGN) == 0
        assert not transport.alive()

    def test_down_from_the_crash_until_the_restore(self):
        transport = StateTransport(EcuState(config=SimConfig()))
        transport.send(self.BENIGN)
        assert not transport.down()
        transport.send(self.CRASH)
        assert transport.down()
        transport.send(self.BENIGN)
        assert not transport.alive()
        assert transport.down()
        transport.restore()
        assert not transport.down()


class WindowRecorder(StateTransport):
    """Records the frames delivered, one list per liveness probe."""

    def __init__(self, state: EcuState):
        super().__init__(state)
        self.windows: list[list[Frame]] = [[]]

    def send(self, frame: Frame) -> int:
        self.windows[-1].append(frame)
        return super().send(frame)

    def alive(self) -> bool:
        answered = super().alive()
        self.windows.append([])
        return answered


def campaign_windows(config: FuzzConfig, vulns: bool
                     ) -> tuple[CampaignResult, list, WindowRecorder]:
    """The frames each probe window delivered, without the probe before the
    first frame and the reproduction replay that follows the window of each
    new finding, and the transport the campaign ran through."""
    recorder = WindowRecorder(EcuState(config=SimConfig().with_vulns(vulns)))
    result = run_campaign(config, recorder)
    replayed = {f.verdict_evidence["window_start"]: f.trigger_input for f in result.findings}
    recorded = iter(recorder.windows)
    assert next(recorded) == []
    windows = []
    for start in range(0, config.budget, config.probe_every):
        windows.append(next(recorded))
        if start in replayed:
            assert next(recorded) == [replayed[start]]
    assert next(recorded) == [] and next(recorded, None) is None
    return result, windows, recorder


PROBE = Frame(0x7DF, bytes([0x01, 0x3E]))


def answers_probe(state: EcuState) -> bool:
    return bool(handle_frame(state, PROBE)[1])


def reference_campaign(config: FuzzConfig, vulns: bool) -> tuple[list[FuzzFinding], list]:
    """Brute force over the pure transition function: deliver every frame of
    every window and probe after each one. The trigger is the first frame
    after which the probe goes unanswered; it is a finding when it is new
    and kills the restore point alone. The ECU is restored after each
    window it died in. Each window draws through ``randbelow`` from its own
    ``window_stream``. Returns the findings and, per window, the frames it
    offered and how many of them a live ECU took up to its trigger."""
    restore_point = state = EcuState(config=SimConfig().with_vulns(vulns))
    corpus = config.corpus
    findings, seen, windows = [], set(), []
    for start in range(0, config.budget, config.probe_every):
        draw = window_stream(config.seed, start).__next__
        end = min(start + config.probe_every, config.budget)
        offered, sources, trigger_at = [], [], None
        for sent in range(start, end):
            if sent % 5 == 0:
                source = frame = corpus[(sent // 5) % len(corpus)]
            else:
                source = corpus[randbelow(draw, len(corpus))]
                frame = reference_mutate(source, draw, config.mutation_ops)
            offered.append(frame)
            sources.append(source)
            state = handle_frame(state, frame)[0]
            if trigger_at is None and not answers_probe(state):
                trigger_at = sent - start
        windows.append((offered, len(offered) if trigger_at is None else trigger_at + 1))
        if trigger_at is None:
            continue
        trigger = offered[trigger_at]
        key = (trigger.id, trigger.data)
        if key not in seen and not answers_probe(handle_frame(restore_point, trigger)[0]):
            seen.add(key)
            findings.append(FuzzFinding(
                trigger_input=trigger,
                source_input=sources[trigger_at],
                position=start + trigger_at,
                verdict_evidence={"missed_probe_after_frame": end, "window_start": start},
                reproduced=True,
            ))
        state = restore_point
    return findings, windows


def assert_matches_reference(config: FuzzConfig, vulns: bool
                             ) -> tuple[CampaignResult, StateTransport, list]:
    """The campaign reports the reference's findings, and each window it
    delivers is the reference window up to and including the trigger.
    Returns the campaign, the transport it ran through and the reference
    windows."""
    result, delivered, transport = campaign_windows(config, vulns)
    findings, windows = reference_campaign(config, vulns)
    assert result.findings == findings
    assert len(delivered) == len(windows)
    for start, one, (offered, taken) in zip(range(0, config.budget, config.probe_every),
                                            delivered, windows):
        assert len(offered) == min(config.probe_every, config.budget - start)
        assert one == offered[:taken], start
    return result, transport, windows


class ReplayTransport(StateTransport):
    """Bisects every missed probe as the engine once did: each step
    restores the ECU, resends the frames and probes since the restore up
    to the ``n``-th frame after the last answered probe, and probes. It
    records, per missed probe, the frame count bisection names and the
    count the window delivered."""

    def __init__(self, state: EcuState):
        super().__init__(state)
        self.start = state
        self.sent: list[Frame] = []
        self.offset = 0
        self.bisected: list[tuple[int, int]] = []

    def send(self, frame: Frame) -> int:
        self.sent.append(frame)
        return super().send(frame)

    def alive(self) -> bool:
        answered = super().alive()
        if answered:
            self.sent.append(PROBE)
            self.offset = len(self.sent)
        else:
            delivered = len(self.sent) - self.offset
            self.bisected.append((self.bisect(delivered), delivered))
        return answered

    def restore(self) -> None:
        super().restore()
        self.sent = []
        self.offset = 0

    def alive_after(self, n: int) -> bool:
        replay = StateTransport(self.start)
        for frame in self.sent[: self.offset + n]:
            replay.send(frame)
        return replay.alive()

    def bisect(self, dead_at: int) -> int:
        lo, hi = 1, dead_at
        while lo < hi:
            mid = (lo + hi) // 2
            if self.alive_after(mid):
                lo = mid + 1
            else:
                hi = mid
        return lo


class TestBisectionDifferential:
    """Ending a window at the frame ``down()`` names gives the trigger
    restore-and-replay bisection over the window gives, and the same
    campaign and minimization."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        budget=st.integers(min_value=1, max_value=3000),
        probe_every=st.integers(min_value=1, max_value=60),
        vulns=st.booleans(),
    )
    def test_same_campaign_and_minimization(self, corpus, seed, budget, probe_every, vulns):
        config = FuzzConfig(seed=seed, budget=budget, corpus=corpus, probe_every=probe_every)
        sim = SimConfig().with_vulns(vulns)
        kept = StateTransport(EcuState(config=sim))
        replayed = ReplayTransport(EcuState(config=sim))
        one = run_campaign(config, kept)
        two = run_campaign(config, replayed)
        assert one == two
        assert all(kill == delivered for kill, delivered in replayed.bisected)
        assert len(replayed.bisected) >= len(one.findings)
        assert [minimize(f, kept) for f in one.findings] == [
            minimize(f, replayed) for f in two.findings
        ]


class TestSkipDifferential:
    """The rest of a window the ECU went down in is not delivered, and that
    changes no campaign, finding or minimization: the brute-force
    reference delivers every frame and probes after each one."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        budget=st.integers(min_value=1, max_value=3000),
        probe_every=st.integers(min_value=1, max_value=60),
        vulns=st.booleans(),
        ops=st.sampled_from(OP_SETS),
    )
    def test_same_campaign_and_minimization(self, corpus, seed, budget, probe_every, vulns, ops):
        config = FuzzConfig(seed=seed, budget=budget, corpus=corpus, probe_every=probe_every,
                            mutation_ops=ops)
        result, skipping, _ = assert_matches_reference(config, vulns)
        fresh = StateTransport(EcuState(config=SimConfig().with_vulns(vulns)))
        assert [minimize(f, skipping) for f in result.findings] == [
            minimize(f, fresh) for f in result.findings
        ]

    def test_seeded_build_sends_fewer_frames(self, corpus):
        config = FuzzConfig(seed=1, budget=2_000, corpus=corpus)
        result, skipping, windows = assert_matches_reference(config, vulns=True)
        assert result.findings
        # Both count the reproduction replay of each finding.
        sends = sum(map(len, skipping.windows))
        delivering_sends = sum(len(offered) for offered, _ in windows) + len(result.findings)
        assert sends < delivering_sends


def probe_moves_state(state: EcuState, frame: Frame) -> tuple[EcuState, list[Frame]]:
    """``handle_frame``, except that an answered probe also advances the seed
    counter: a pure transition under which ``alive`` changes the state,
    which no probe of the bundled ECU does."""
    state, replies = handle_frame(state, frame)
    if frame == PROBE and replies:
        state = replace(state, seed_counter=state.seed_counter + 1)
    return state, replies


class FreshSends(StateTransport):
    """Records each distinct frame sent right after construction or a restore."""

    def __init__(self, state: EcuState):
        super().__init__(state)
        self.fresh = True
        self.fresh_frames: set[tuple[int, bytes]] = set()

    def send(self, frame: Frame) -> int:
        if self.fresh:
            self.fresh_frames.add((frame.id, frame.data))
        self.fresh = False
        return super().send(frame)

    def alive(self) -> bool:
        self.fresh = False
        return super().alive()

    def restore(self) -> None:
        self.fresh = True
        super().restore()


class TestStateTransportMemo:
    """A send right after a restore reads its outcome from a memo; every
    return value and every state equals a fold of the transition function."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), vulns=st.booleans(), moving_probe=st.booleans())
    def test_memo_equals_the_fold(self, corpus, data, vulns, moving_probe):
        frames = st.one_of(
            st.sampled_from(corpus),
            st.builds(lambda frame, stream: mutate(frame, finite_tape(stream).draw, ALL_OPS),
                      st.sampled_from(corpus), st.binary(max_size=8)),
        )
        steps = st.lists(st.one_of(st.tuples(st.just("send"), frames),
                                   st.sampled_from([("alive",), ("restore",), ("down",)])),
                         max_size=30)
        step = probe_moves_state if moving_probe else handle_frame
        start = EcuState(config=SimConfig().with_vulns(vulns))
        for frame in data.draw(st.lists(frames, max_size=4), label="prefix"):
            start = step(start, frame)[0]
        with mock.patch.object(executor, "handle_frame", step):
            transport = StateTransport(start)
            state = start
            for op, *frame in data.draw(steps, label="steps"):
                if op == "send":
                    state, replies = step(state, frame[0])
                    assert transport.send(frame[0]) == len(replies)
                elif op == "alive":
                    state, replies = step(state, PROBE)
                    assert transport.alive() == bool(replies)
                elif op == "restore":
                    state = start
                    transport.restore()
                else:
                    assert transport.down() == (not state.alive)
                assert transport.state == state

    def test_campaign_and_minimization_counts(self, corpus):
        """Seed 1, budget 20,000: without the memo the campaign and the
        minimization of its findings call ``handle_frame`` 5,251 times."""
        calls = []

        def counted(state, frame):
            calls.append(None)
            return handle_frame(state, frame)

        with mock.patch.object(executor, "handle_frame", counted):
            transport = FreshSends(EcuState(config=SimConfig()))
            result = run_campaign(FuzzConfig(seed=1, budget=20_000, corpus=corpus), transport)
            for finding in result.findings:
                minimize(finding, transport)
        assert len(result.findings) == 252
        assert len(calls) == 3_420
        assert len(transport._memo) == len(transport.fresh_frames) == 352
        # Equal outcomes are one object: the crash, the restore point with no
        # reply and with one, and the seed issued.
        assert len({id(outcome) for outcome in transport._memo.values()}) == 4


class TestWindowStreams:
    """Each probe window draws from its own stream, so the frames it offers
    depend on (seed, window start, corpus, ops) alone and the SUT decides
    only how many of them are delivered."""

    @pytest.mark.parametrize("seed, probe_every", [(1, 50), (9, 7), (123, 2)])
    def test_seeded_windows_are_prefixes_of_the_control_windows(self, corpus, seed,
                                                                probe_every):
        config = FuzzConfig(seed=seed, budget=3_000, corpus=corpus, probe_every=probe_every)
        seeded, seeded_windows, _ = campaign_windows(config, vulns=True)
        control, control_windows, _ = campaign_windows(config, vulns=False)
        assert control.findings == [] and seeded.findings
        assert len(seeded_windows) == len(control_windows)
        for start, one, full in zip(range(0, config.budget, probe_every),
                                    seeded_windows, control_windows):
            assert len(full) == min(probe_every, config.budget - start)
            assert one == full[: len(one)], start
        assert any(len(one) < len(full) for one, full in zip(seeded_windows, control_windows))

    def test_window_stream_known_answer(self):
        stream = _window_bytes(1, 0)
        assert bytes(itertools.islice(stream, 64)) == hashlib.blake2b(b"1:0:0").digest()
        assert bytes(itertools.islice(stream, 64)) == hashlib.blake2b(b"1:0:1").digest()

    def test_streams_do_not_follow_the_hash_seed(self):
        script = (
            "from vecuforge.fuzz_engine import FuzzConfig, run_campaign\n"
            "from vecuforge.executor import StateTransport\n"
            "from vecuforge.frames import Frame\n"
            "from vecuforge.simulator import EcuState\n"
            "config = FuzzConfig(seed=2, budget=400, corpus=(Frame(0x7DF, bytes([2, 1, 13])),))\n"
            "result = run_campaign(config, StateTransport(EcuState()))\n"
            "print([f.to_dict() for f in result.findings], result.stats)\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert "trigger_input" in outputs.pop()


class TestMinimize:

    def test_minimized_still_reproduces(self, campaign_finding):
        minimized = minimize(campaign_finding, StateTransport(EcuState(config=SimConfig())))
        assert minimized.minimized_input is not None
        assert kills(StateTransport(EcuState(config=SimConfig())), minimized.minimized_input)

    def test_one_minimality(self, campaign_finding):
        minimized = minimize(campaign_finding, StateTransport(EcuState(config=SimConfig())))
        trigger = minimized.minimized_input
        checker = StateTransport(EcuState(config=SimConfig()))
        for ix in range(len(trigger.data)):
            dropped = Frame(trigger.id, trigger.data[:ix] + trigger.data[ix + 1 :])
            assert not kills(checker, dropped), f"dropping byte {ix} still crashes"
        source = minimized.source_input.data
        for ix in range(min(len(trigger.data), len(source))):
            if trigger.data[ix] == source[ix]:
                continue
            restored = Frame(
                trigger.id,
                trigger.data[:ix] + source[ix : ix + 1] + trigger.data[ix + 1 :],
            )
            assert not kills(checker, restored), f"restoring byte {ix} still crashes"

    def test_already_minimal_is_identity(self):
        trigger = Frame(0x7DF, bytes([0x02]))
        finding = FuzzFinding(
            trigger_input=trigger,
            source_input=Frame(0x7DF, bytes([0x02, 0x01, 0x0D])),
            position=0,
            verdict_evidence={},
            reproduced=True,
        )
        minimized = minimize(finding, StateTransport(EcuState(config=SimConfig())))
        assert minimized.minimized_input == trigger

    def test_flaky_trigger_flagged(self, corpus):
        valid = Frame(0x7DF, bytes([0x01, 0x3E]))
        finding = FuzzFinding(
            trigger_input=valid,
            source_input=valid,
            position=0,
            verdict_evidence={},
            reproduced=True,
        )
        out = minimize(finding, StateTransport(EcuState(config=SimConfig())))
        assert out.reproduced is False
        assert out.minimized_input is None
