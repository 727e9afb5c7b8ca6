"""Both runtime hosts compute the same function.

:func:`repro.runtime.run_gossip_network` (peers as asyncio tasks) and
:func:`repro.runtime.run_gossip_processes` (peers as OS processes) are
two hosts under one orchestrator.  On the same seeded case they must
return identical :meth:`~repro.runtime.RuntimeResult.deterministic_summary`
output, apart from the supervision fields (``mode``, ``restarts``) that
only the process front door reports.
"""

import pytest

from repro.core.gossip import gossip
from repro.runtime import (
    NetChaos,
    RuntimeConfig,
    ScaledClock,
    run_gossip_network,
    run_gossip_processes,
)

CONFIG = dict(
    ack_timeout=0.02,
    heartbeat_interval=0.25,
    fail_after=1.5,
    round_timeout=30.0,
    run_timeout=240.0,
)

CASES = [
    ("grid:9", 501, dict()),
    ("grid:9", 502, dict(drop_rate=0.12)),
    ("path:5", 503, dict(kill=((2, 1),))),
    ("star:5", 504, dict(kill=((2, 1),))),
    ("cycle:6", 505, dict(kill=((2, 1),))),
]


@pytest.mark.parametrize(
    "spec,seed,chaos", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_hosts_agree(spec, seed, chaos):
    plan = gossip(spec)
    config = RuntimeConfig(seed=seed, **CONFIG)
    in_process = run_gossip_network(
        plan, chaos=NetChaos(seed=seed, **chaos), config=config,
        clock=ScaledClock(0.1),
    ).deterministic_summary()
    processes = run_gossip_processes(
        plan, chaos=NetChaos(seed=seed, **chaos), config=config,
        time_scale=0.25,
    ).deterministic_summary()
    assert processes.pop("mode") == ("replan" if "kill" in chaos else "fault-free")
    assert processes.pop("restarts") == 0
    assert in_process == processes
