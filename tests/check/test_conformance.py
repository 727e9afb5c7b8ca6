"""Conformance replay: the abstract model agrees with the real runtime.

Tier-1 gate for the model checker's soundness premise: every
recorded seeded runtime transcript — clean, lossy, reordering, and
crash-at-round runs across the committed corpus, plus supervised
SIGKILL + rejoin runs — must replay through the model with exact
agreement on the phase-1 transcript, dead set, completion flag, round
count, and final hold bitsets.
"""

import pytest

from repro.check.replay import (
    default_cases,
    replay_case,
    replay_rejoin,
    run_conformance,
)

#: Process-host sample of the corpus (the whole corpus replays on that
#: host in CI: ``python -m repro.check.replay``).
PROCESS_SAMPLE = ("path:4/clean", "star:5/drop", "cycle:5/delay",
                  "cycle:6/kill", "complete:5/kill@3")


class TestRecordedCorpus:
    def test_corpus_is_large_enough(self):
        cases = default_cases()
        assert len(cases) >= 50
        assert len({c.seed for c in cases}) == len(cases), "seeds collide"
        assert any(c.kill for c in cases), "corpus lacks kill runs"
        assert any(c.drop_rate for c in cases), "corpus lacks lossy runs"
        assert any(c.delay_rate for c in cases), "corpus lacks reorder runs"

    def test_every_recording_replays_exactly(self):
        reports = run_conformance()
        failures = [
            f"{r.case.name} (seed {r.case.seed}): {'; '.join(r.mismatches)}"
            for r in reports
            if not r.ok
        ]
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("name", PROCESS_SAMPLE)
    def test_process_host_replays_exactly(self, name):
        case = next(c for c in default_cases() if c.name == name)
        report = replay_case(case, host="processes")
        assert report.ok, "; ".join(report.mismatches)


class TestSupervisedRejoinReplay:
    @pytest.mark.parametrize(
        "spec,seed,victim,round_",
        [("cycle:6", 401, 3, 1), ("grid:9", 402, 4, 2)],
    )
    def test_sigkill_rejoin_replays_exactly(self, spec, seed, victim, round_):
        report = replay_rejoin(spec, seed, victim, round_)
        assert report.ok, "; ".join(report.mismatches)
