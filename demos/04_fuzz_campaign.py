"""Fuzz the virtual ECU at memory speed and minimize what kills it.

The campaign mutates a small corpus of well-formed diagnostic frames and
probes liveness every N frames. A crash ends the probe window at the frame
that caused it, so a silent probe names that frame as the trigger.
Findings are then shrunk to the shortest payload that still reproduces the
silence. Same seed, same findings -- every run is replayable.
"""

from vecuforge.executor import StateTransport
from vecuforge.frames import parse_line
from vecuforge.fuzz_engine import FuzzConfig, minimize, run_campaign
from vecuforge.simulator import EcuState, SimConfig


def main() -> None:
    corpus = tuple(parse_line(l) for l in (
        "7df#013e",    # keep-alive
        "7df#02010d",  # speed read
        "7e0#021003",  # session change
        "7df#022701",  # seed request
    ))
    config = FuzzConfig(seed=7, budget=1500, corpus=corpus, probe_every=50)
    transport = StateTransport(EcuState(config=SimConfig()))

    print(f"fuzzing with seed {config.seed}, budget {config.budget} frames, "
          f"liveness probe every {config.probe_every}...")
    result = run_campaign(config, transport)
    stats = result.stats
    print(f"sent {stats['frames_sent']} frames, {stats['probes']} probes, "
          f"{stats['responses']} responses observed, "
          f"{len(result.findings)} distinct finding(s)\n")

    for finding in result.findings[:3]:
        shrunk = minimize(finding, transport)
        print(f"finding at campaign position {shrunk.position}:")
        print(f"  mutated from: {shrunk.source_input.to_line()}")
        print(f"  trigger:      {shrunk.trigger_input.to_line()} "
              f"(reproduced: {shrunk.reproduced})")
        print(f"  minimized:    {shrunk.minimized_input.to_line()}")
        declared = shrunk.trigger_input.data[0]
        actual = len(shrunk.trigger_input.data) - 1
        print(f"  shape: declared length {declared} > {actual} actual "
              f"payload byte(s)\n")
    if len(result.findings) > 3:
        print(f"(... and {len(result.findings) - 3} more with the same shape)\n")

    # replay determinism: an identical campaign finds identical triggers
    again = run_campaign(config, StateTransport(EcuState(config=SimConfig())))
    same = [f.trigger_input for f in result.findings] == [
        f.trigger_input for f in again.findings
    ]
    print(f"re-run with the same seed reproduces the trigger list: {same}")


if __name__ == "__main__":
    main()
