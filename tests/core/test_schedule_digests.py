"""Every schedule producer's output, pinned by digest.

Each case builds one schedule and hashes ``(name, total_time, rows)``
with SHA-256, where a row is ``(round, sender, message, sorted
destination ids)`` in ``(round, sender)`` order.  The declared processor
count ``n`` is left out on purpose: a producer may declare a wider
universe than its largest id without changing a single send.

:data:`DIGESTS` was computed once and must never be edited: a port of a
producer to another construction path is only a refactor if every digest
still matches.  Print the current table with::

    PYTHONPATH=src python -m tests.core.test_schedule_digests
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import pytest

from repro.analysis.sweep import FAMILIES, family_instance
from repro.core.broadcast import broadcast, telephone_broadcast
from repro.core.coded import systematic_coded_schedule
from repro.core.epidemic import epidemic_schedule, run_epidemic
from repro.core.gossip import ALGORITHMS, gossip
from repro.core.online import run_online_gossip
from repro.core.optimal import optimal_schedule
from repro.core.recovery import execute_plan_with_faults, recover
from repro.core.ring import ring_gossip, ring_gossip_on_graph
from repro.core.schedule import Schedule
from repro.core.store_forward import greedy_gossip_on_graph, telephone_gossip_on_graph
from repro.core.survival import survive
from repro.exceptions import ScheduleConflictError
from repro.networks import topologies
from repro.networks.io import schedule_from_json, schedule_to_json
from repro.networks.paper_networks import (
    fig1_ring,
    fig4_network,
    n3_multicast_schedule,
    n3_network,
    petersen,
    petersen_gossip_schedule,
)
from repro.simulator import faults
from repro.simulator.lossy import FaultModel
from repro.tree.labeling import LabeledTree

#: Size the sweep families are built at.
FAMILY_N = 12


def schedule_digest(schedule) -> str:
    """SHA-256 over ``(name, total_time, rows)``; ``n`` is left out."""
    rows, dests = schedule.destination_pairs()
    per_row = [[] for _ in range(schedule.total_messages())]
    for row, dest in zip(rows.tolist(), dests.tolist()):
        per_row[row].append(dest)
    table = tuple(
        (t, s, m, tuple(sorted(d)))
        for t, s, m, d in zip(
            schedule.round.tolist(), schedule.sender.tolist(),
            schedule.message.tolist(), per_row,
        )
    )
    text = repr((schedule.name, schedule.total_time, table))
    return hashlib.sha256(text.encode()).hexdigest()


def _cases() -> Dict[str, Callable]:
    cases: Dict[str, Callable] = {}
    for family in sorted(FAMILIES):
        for algorithm in sorted(ALGORITHMS):
            cases[f"registry/{algorithm}/{family}"] = (
                lambda f=family, a=algorithm: gossip(
                    family_instance(f, FAMILY_N), algorithm=a
                ).schedule
            )
        cases[f"online/{family}"] = lambda f=family: run_online_gossip(
            LabeledTree(gossip(family_instance(f, FAMILY_N)).tree)
        )

    graphs = {
        "petersen": petersen,
        "n3": n3_network,
        "grid-3x4": lambda: topologies.grid_2d(3, 4),
        "star-6": lambda: topologies.star_graph(6),
        "random-tree": lambda: family_instance("random-tree", 14),
    }
    for name, make in graphs.items():
        cases[f"broadcast/{name}/0"] = lambda g=make: broadcast(g(), 0)
        cases[f"broadcast/{name}/2-msg-7"] = lambda g=make: broadcast(g(), 2, 7)
        cases[f"telephone-broadcast/{name}/0"] = lambda g=make: telephone_broadcast(g(), 0)
        cases[f"telephone-broadcast/{name}/3"] = lambda g=make: telephone_broadcast(g(), 3)
        cases[f"greedy-on-graph/{name}"] = lambda g=make: greedy_gossip_on_graph(g())
        cases[f"telephone-on-graph/{name}"] = lambda g=make: telephone_gossip_on_graph(g())
        for seed in (0, 5):
            for variant in ("push", "pull", "push-pull"):
                cases[f"epidemic/{variant}/{name}/{seed}"] = (
                    lambda g=make, v=variant, s=seed: epidemic_schedule(
                        g(), variant=v, seed=s, fanout=2
                    )
                )
            cases[f"coded/{name}/{seed}"] = (
                lambda g=make, s=seed: systematic_coded_schedule(g(), seed=s)
            )
    cases["epidemic-lossy/grid-3x4"] = lambda: run_epidemic(
        topologies.grid_2d(3, 4), seed=3, model=FaultModel(seed=4, drop_rate=0.2)
    ).schedule

    cases["ring/identity-8"] = lambda: ring_gossip(range(8))
    cases["ring/shuffled-7"] = lambda: ring_gossip([3, 0, 6, 1, 5, 2, 4])
    cases["ring/fig1"] = lambda: ring_gossip_on_graph(fig1_ring(8))
    cases["paper/petersen"] = petersen_gossip_schedule
    cases["paper/n3"] = n3_multicast_schedule
    cases["paper/fig4"] = lambda: gossip(fig4_network()).schedule

    for n in (2, 3, 4):
        for telephone in (False, True):
            cases[f"optimal/path-{n}/{'tel' if telephone else 'mc'}"] = (
                lambda k=n, tel=telephone: optimal_schedule(
                    topologies.path_graph(k), telephone=tel
                )
            )
    cases["optimal/star-4/mc"] = lambda: optimal_schedule(topologies.star_graph(4))

    model = FaultModel(seed=11, drop_rate=0.15, crash_rate=0.02, crash_length=2)
    for spec in ("grid:16", "random:20", "path:9"):
        for policy in ("nearest-holder", "unicast"):
            cases[f"recover/{spec}/{policy}"] = lambda s=spec, p=policy: _recovered(s, p, model)
    permanent = FaultModel(seed=5, drop_rate=0.1, fail_stop_rate=0.01, link_fail_rate=0.01)
    for spec in ("grid:16", "random:24", "star:10"):
        cases[f"survive/{spec}"] = lambda s=spec: _survived(s, permanent)

    base = lambda: gossip(topologies.grid_2d(3, 4)).schedule  # noqa: E731
    cases["faults/drop-round"] = lambda: faults.drop_round(base(), 2)
    cases["faults/drop-round-last"] = lambda: faults.drop_round(base(), base().total_time - 1)
    cases["faults/drop-transmission"] = lambda: faults.drop_transmission(base(), 3, 1)
    cases["faults/drop-transmission-negative"] = lambda: faults.drop_transmission(base(), -2, -1)
    cases["faults/corrupt-message"] = lambda: faults.corrupt_message(base(), 1, 0, 9)
    cases["faults/corrupt-message-wide"] = lambda: faults.corrupt_message(base(), 0, 0, 40)
    cases["faults/redirect"] = lambda: faults.redirect_to_nonneighbor(
        base(), topologies.grid_2d(3, 4), 1, 0
    )
    cases["faults/swap-rounds"] = lambda: faults.swap_rounds(base(), 0, 4)
    cases["faults/swap-last-with-empty"] = lambda: faults.swap_rounds(
        _emptied(base(), 1), 1, base().total_time - 1
    )

    for name, make in {
        "grid-3x4": base,
        "petersen": petersen_gossip_schedule,
        "gap": lambda: _emptied(base(), 1),
        "greedy-random": lambda: greedy_gossip_on_graph(family_instance("random", 14)),
    }.items():
        cases[f"json/{name}"] = lambda g=make: schedule_from_json(schedule_to_json(g()))
    return cases


def _emptied(schedule, t):
    """``schedule`` with every transmission of round ``t`` dropped."""
    for _ in range(len(schedule.round_at(t))):
        schedule = faults.drop_transmission(schedule, t, 0)
    return schedule


def _recovered(spec: str, policy: str, model: FaultModel):
    plan = gossip(spec)
    faulty = execute_plan_with_faults(plan, model)
    return recover(plan.graph, plan, faulty, policy=policy).schedule


def _survived(spec: str, model: FaultModel):
    plan = gossip(spec)
    faulty = execute_plan_with_faults(plan, model)
    return survive(plan.graph, plan, faulty).schedule


CASES = _cases()

#: Computed once from the producers as they stood before any was ported
#: to the send packer ``Schedule.from_sends``.  Never edit.
DIGESTS: Dict[str, str] = {
    'broadcast/grid-3x4/0': 'e8a14a46b3b3242eebe89f91a00e3746c911b15fedc519948a83b7282941af9e',
    'broadcast/grid-3x4/2-msg-7': 'a380b1dd1fc3cd6b58e9391437736bb2330877ed5fc9d18f335b2b077302c572',
    'broadcast/n3/0': '1c53962124eeea31fd469e95286edbe14ecb8453728467c7f8ec08e37c6c62bd',
    'broadcast/n3/2-msg-7': '350e1f2483530717e9095b6166723a5404bdee0433be2e1af07060ae480355e0',
    'broadcast/petersen/0': '50d02e84679b1cc4252e45e98ea15b27f397093f14ab169255b66d2f5bd80439',
    'broadcast/petersen/2-msg-7': '865c24fb997972c48380cf6c14f645c347e5ce60e5f6eb8e14d2ff63a21be3c3',
    'broadcast/random-tree/0': 'd46be7ee67f94051ba26a7b73e930632886e112b9c7f112b9d8ed36c5dcfe7cf',
    'broadcast/random-tree/2-msg-7': '72091488b2d0de00e4aa01688b381a2286baca828bd75c2e465f6343348aa132',
    'broadcast/star-6/0': '51c48cd40142f5f8aa3e1d6d5da70f959f73f5a91aafe8110c4a7912801410f3',
    'broadcast/star-6/2-msg-7': 'd7278a408c6a4944a5055000b46a66a39fdc776b5afa79434faed7ab4510f18f',
    'coded/grid-3x4/0': '1ac52613fc31f287fab809a6c2e37b5dbc4edefff5a753d09a1931218d5b8d4f',
    'coded/grid-3x4/5': '4a6123d72b6f7d721563e08f880ddf2af8c9f6d15779e96142b16462d6f36c82',
    'coded/n3/0': '1dd8c7d9f2825554653953d3f0c43e36ea9c4a10986fd9fea7fb4f4893fc1fa5',
    'coded/n3/5': '60384ec069c28e43dcc5f7b792d03e8c42afbd6765c6bcb9de578acba57bca17',
    'coded/petersen/0': '5135885481179937448ae861bdbe08af42cc81c76326f6ecfff371dda0311f63',
    'coded/petersen/5': '3e69ba8617b5773ca3c4d874967f8d14e44bda286f478719c00a9cdc08c816df',
    'coded/random-tree/0': 'd23ec42fe48585c3738a8d221d1c8194f47ab3d880f15e11ade16ef3730b3d84',
    'coded/random-tree/5': 'fe7d12275773315bc8a5d2e659dd63e2d1a124abf573e57bbb6c7b310305cf06',
    'coded/star-6/0': 'e947095fe620e7970cfb59f84d4b7bcd60a5282168f760f50e94fff7a2470c03',
    'coded/star-6/5': 'e6d75b0e62214fb8eee0b007649b4ea312e38fb09c6c3956e006a965b66a07ca',
    'epidemic-lossy/grid-3x4': '8cd5a8c535cc9276b157324f49f7ecc47a4b3ab5bd403a431658d3d6ade798c4',
    'epidemic/pull/grid-3x4/0': 'ea619a420c501091eeb3d66a5b1e3683710faa40cfe127158cfe2eed29733ee6',
    'epidemic/pull/grid-3x4/5': 'd5dace4a937740b930dd57bfc9fb888f66517fa7a3368ddd64270c346c598cb0',
    'epidemic/pull/n3/0': '3a20c195fd51bf10290b31fd5e077bbf84b258a0bbba87f021e3cbaed51e1ce8',
    'epidemic/pull/n3/5': '87ee33c71fb8aeb196e02deda80715e735f54f596cdb70050597acfa153cc9ea',
    'epidemic/pull/petersen/0': 'd870f655fa22e9daa163afc82d853a4ceaaad7a027c8272bbd318e432bf51a6c',
    'epidemic/pull/petersen/5': '4de1375a4aa0c84664dbddfd575b533dfa412063d6ac4bbf594d4ea5c7130c76',
    'epidemic/pull/random-tree/0': 'd885572850ef26f1f7dc825c007afac9959403cd606a78d8bb2d15b53f2675c5',
    'epidemic/pull/random-tree/5': 'cd6e1fc17b6209393fc6d0262223b08bb5bdcf8d421467d1db189226bf76c563',
    'epidemic/pull/star-6/0': 'f953ad3be72e962c50eee2799e303b850fb1c964f3475413ebc79a6da43cdf98',
    'epidemic/pull/star-6/5': 'bdd33adcc30e7007fa52379399ce1ed591148681a89dba0b54bb748ea86646eb',
    'epidemic/push-pull/grid-3x4/0': '4e2abcaeb248ad84d832f5560a529700d9986ceee625d4689e9570420fc6a40f',
    'epidemic/push-pull/grid-3x4/5': '309dd02c4414c923a96353618af7c4d6f11f1b07e38188893f93ea4ecee2da8e',
    'epidemic/push-pull/n3/0': '253b7c228812f4ac1b92a2bd58f16f5e7975d7f3f8815f51d3315d5126dabbec',
    'epidemic/push-pull/n3/5': 'df847b037d49da15e69db1fadbdc1a70c3ece7a533b4434eaf60901447a56f09',
    'epidemic/push-pull/petersen/0': '1c2c391bf0f79ef28d996428ba73227262cdd1e11364788b4f365b8aab5b5a22',
    'epidemic/push-pull/petersen/5': 'ee374d5824c8ab31e54f6d489a2df12275845b4508ff906d03de40c8dc4efb8e',
    'epidemic/push-pull/random-tree/0': '3bc2ccb637da53d8e86e066482c40bfd6c5aaaae17596dff49cb4509096d882f',
    'epidemic/push-pull/random-tree/5': '2362010c974e1d476755d9bec4edd5855769cdd368380aeb49d3de69298e3352',
    'epidemic/push-pull/star-6/0': 'e0c3d9ab20d7efef02162e8dee5f2b0b7dced56f9b5426f96a153c3e90adb5f0',
    'epidemic/push-pull/star-6/5': '113b51262ba3423dd966081b1d79644d6121fd804b605a7a80d5458055f0a3ff',
    'epidemic/push/grid-3x4/0': 'e7b9146106aafc33ce15cf1680fb83188a53999ba284164fc026ca54bb364be7',
    'epidemic/push/grid-3x4/5': '070627075d9d67276957f68a2d90c3c6c7d25d3a682e0452d025ec10cc1a3a00',
    'epidemic/push/n3/0': '3ef28a386dbc2e89cf89eb650b46af19c3af10164e620b46e122814b4f49908c',
    'epidemic/push/n3/5': 'a078c8ddbcd84a7b6aeeafa1b522efdd26a2d8de054baff7cb223a8c8c7ca13c',
    'epidemic/push/petersen/0': '34118f00513b1e1d31d8557a3d2855f505d8fb0a8e4f335174b2c8b139305840',
    'epidemic/push/petersen/5': 'f8517e227e350f9d58ad110b43c64aba8fe2031741ff792dffcdea95934f8166',
    'epidemic/push/random-tree/0': 'cccbb4d448ac725b9b4b1d87a8fe868e77854dd57cc1ee6e2cae8bb774d42b4c',
    'epidemic/push/random-tree/5': 'f388792167f954909f52a432b5a1fbb2177230d178399773b005e104ef2eec5a',
    'epidemic/push/star-6/0': '7a2dffb0afd152faad60936216d30cdaa798bcecd62913e6316b8459bb9340db',
    'epidemic/push/star-6/5': '598297a8a22c34c5e2951f9cf91291e9548a0019e6e37619f26638e1d2d3a946',
    'faults/corrupt-message': '19b441b7dc47122e9a3acdcb7591e234b3d7e94a1e7743779f61aac8820b5cd4',
    'faults/corrupt-message-wide': 'e536c98adefb8e59cf4b5d1d7843fc813a14c22f98b172877f63415b328caae7',
    'faults/drop-round': '2ca2799097d72e26e53ea8c3e51b17859f4968c12376a5ada531b53f576ed165',
    'faults/drop-round-last': 'da137e1b47dc5853546ec17a76c258a794614d9a10eb343d2f2cb2c8c4b5c106',
    'faults/drop-transmission': '7263ccb05f373c7496e3ae64b2cdee53a97a2f372ea8551240211df487d4e8df',
    'faults/drop-transmission-negative': 'da46e6110eccde94bfdb5427d3bc5fd6242bbd9a58f6ef683cf09243afa3eb9a',
    'faults/redirect': 'd081ba0003448fb9498992b67c2201d6ae56abb5fbd3aea73e3c81ab98965e70',
    'faults/swap-last-with-empty': 'c9181908a0cccb26b67e67ec828bafb54bef2c56bf9f5f9a6c4a5be02a3d90c7',
    'faults/swap-rounds': 'dd7d57376751153cca5febbddbbedbf9a383bcbb123320bf880a6cd2bb58d728',
    'greedy-on-graph/grid-3x4': '38329b6265aa1eedf2288053e96c6a290b2d97238630224c1e45bcd014f9ade2',
    'greedy-on-graph/n3': 'eb08ec0f4c029d890e7cbac8fe5d2e83be2776d0133f345931edf2bf892b8e84',
    'greedy-on-graph/petersen': 'fdacb982c6c092fe15e23ae5899bccd49b786ec2fc052407ea037643e0731797',
    'greedy-on-graph/random-tree': 'ccda2fca3cebaa875d66ec885cc519385838597f3d3cc056a762326a60a11a89',
    'greedy-on-graph/star-6': '00c64177faafd2585eb18e3ef1ae6d73d88c8126338658b18d4d9c3b442ca6f7',
    'json/gap': '656dd60188ab882c48ae18d423aff4aba348e502532f52460c3ca2aea1b30a7e',
    'json/greedy-random': '6f7bc798da192b6e7a49025ab850bafd0d8143592aba063e3edc4d2e28dc77d1',
    'json/grid-3x4': '628b85bdf01d008e8030d5e282d0113f1ac2f009887407cbccca77bade05f021',
    'json/petersen': '49934fab4d2976d2a63c1ec5a84c1bad8b34bac68df6a73c1079f20b95551a5c',
    'online/barbell': '2eae755a64b640f2c6763c9773037e847717171dbc8a493fdb9cb5731ccc3f2e',
    'online/binary-tree': 'cba674af58658e6a9f9c6a03830f630de5c4ee57ff7a4a62ff33e0e6f7c06196',
    'online/broom': '7c622af707bd47b2de2c1e391cb5075ba1b43d008324bf5466c6c4ecca9d4824',
    'online/butterfly': '2518fe27c8e2aa06a95431e84b0b1d1c255266698042a2a0c0803e7999c36f79',
    'online/caterpillar': '0ccff475b76e8012d8ad47405b72ab9eb981b6511cd97b6b21a34ceed4f9847a',
    'online/ccc': 'fdf9ce67291c2888aac3bc9eda0b30c54ae99ad683d2549fbcc75d2ed73ecad1',
    'online/complete': '6ed28cf4184b1837cea12d9ee2bc402dc938ca1b5a3a4d426a93da490961e000',
    'online/cycle': '46f2a77dd29f446949d16ea8a0c096f613db3c66ff9884f0eaacd042acc932fe',
    'online/debruijn': '0ca381060ac98745bfcc558b62a246310c2e1720d5af801e2805ed59bcac2307',
    'online/geometric': '315b1fb58f64f8dbf71dcb93731494b1dd8920e5fd222ccadf7b910d7193b077',
    'online/gnp': 'dc33fbc4725b641d3e4fddab83d543615e1804dc87c4f423342db2510b720df9',
    'online/grid': '9cb42c290ad2c5d85c86ce88f75e4d0592215135e93dd4ee08d8d33dc45ed11d',
    'online/hypercube': '1399f1a17c122c911999006979b8a305ca415e8edb756cbf988cd8b6ba2c1c88',
    'online/lollipop': '6ddb786c9e0734eba3d35001da6fa0fbc96a5c0f205276bf637ed73c493f9ff3',
    'online/path': 'c7827693f7d6fb44a48e0fd105d73bd4301441bba959a180e10fe52a9896294d',
    'online/random': '876e7e235203839288cae6d929f9737fa8d5a48e3ed712eeed467cca69156ec2',
    'online/random-tree': '1a687f724d3c1763ae978fa7b7120f0ea1993ed0169f1e2a4e8ea17ef9283ba2',
    'online/spider': '621a99bf00ace59f558bb0b25cf82fc370ec6aee90116d000791b29bc83fed60',
    'online/star': '6ed28cf4184b1837cea12d9ee2bc402dc938ca1b5a3a4d426a93da490961e000',
    'online/torus': 'e3ad3d6a4e1d41590b371ed61c8cd21ab310f06469cad1cc18b60bf4dfa0c452',
    'online/wheel': '6ed28cf4184b1837cea12d9ee2bc402dc938ca1b5a3a4d426a93da490961e000',
    'optimal/path-2/mc': '3e0f4af1bb592b22e80e14b737323a215da52a73e278a12700a74c454e9d6b5d',
    'optimal/path-2/tel': 'c4e225226512c924a7beae966f2449c75b49cff11feb4652d6040947b41212b9',
    'optimal/path-3/mc': 'fc90796453aa830f06ed2d864498c2819d9ababd6df6e6dda961fd18054c7ec6',
    'optimal/path-3/tel': 'e154df08f978a5193c4ddaa08a63e4dd033bd36ed448ac2f606de51cbd516304',
    'optimal/path-4/mc': '240c892e14fe9fd48e7e7dbeef2d1367fae22d6e545350303b6c5edd7c673503',
    'optimal/path-4/tel': '54d8aed01655cbc872cc5e6c68ee6e84c3522f38b04cac2efc1d0ba71741b941',
    'optimal/star-4/mc': 'b97df6c37ae307355700ae69a79915e2fb95dd388431b245d5324efe354adcc2',
    'paper/fig4': 'a902d1c61a6fcc25f2c3076562ee4e10f02228e8c37609a5957bb8488024ed32',
    'paper/n3': '055df8b96211d8b038f331f951a46786765d4cbc2cdb893627c8d13464eb8a94',
    'paper/petersen': '49934fab4d2976d2a63c1ec5a84c1bad8b34bac68df6a73c1079f20b95551a5c',
    'recover/grid:16/nearest-holder': '61d8dc183a3a1107cae2464e3930933eefce3b1ec982f809b68c1702e4e58c35',
    'recover/grid:16/unicast': '8038de64f3820d3d5264145c9770e8c0be6459750c258ff7e142ceed6c39fa7f',
    'recover/path:9/nearest-holder': 'c6fd19accb82ee785417714cee1604708fdd6921719ad4145d5bb09cc76bab6d',
    'recover/path:9/unicast': 'c6fd19accb82ee785417714cee1604708fdd6921719ad4145d5bb09cc76bab6d',
    'recover/random:20/nearest-holder': '0ffaad70dfbfb8472017974d95f6ff34482e25657fa4d7d6bf1144d004dac395',
    'recover/random:20/unicast': '787e63951ca6815b6ba83fb0d27d97333ad33c7e0a4325bf06487b010681796b',
    'registry/coded/barbell': 'f5b72b4f16bc044280fb0845cf442ff722369dcc3702f8cc7c36cb1378d9f1b0',
    'registry/coded/binary-tree': 'bf0cc8c559e720d4f6a9fffd2c08ada39760e718ff63de7ccd586daa35e92474',
    'registry/coded/broom': '5d93a2145cda867a12818e7bf1d8313d5722947aa35eaa0bd185edae9ea9780b',
    'registry/coded/butterfly': '4c87bb09b8e9ba7512b415d564530be69df8bddaee29adf64189566e8358e586',
    'registry/coded/caterpillar': 'b1b86cf2eb70339626f003927320d65563e4b290bb648bc928dae564a4b22c33',
    'registry/coded/ccc': '03195af7d08206888b806ee45b90d36226f9ff585488ad23c814e487ce3dd323',
    'registry/coded/complete': '7e23b92236539528b2fa60668d42c48baa4cecd14e6240de0e3ccd8dc48d0b5a',
    'registry/coded/cycle': '76ab867b9492db46cca9fb2ec53e407b18f4231a8d99321bfdcab9df5a2e9776',
    'registry/coded/debruijn': '55b76cc762439302682b73fae70d020202f91f7590ce250ab4b8a1712225e7fe',
    'registry/coded/geometric': '7eb03e80d6fb97ea7d00fc2429dfcd1868d8820f35a5dc528c4650091ca1c509',
    'registry/coded/gnp': '01d1c8a450a5d43c63adc736e51093169f240ffff32f21b8a168c21e0269fd21',
    'registry/coded/grid': '7455e64d99f5d1195ed49f99b01e431ddb4dce3b7a599a11ec2f3c18fd9186bc',
    'registry/coded/hypercube': '05e1355077766630ab7476def4f508bff24c938cb2ec513562af5b14ee4ac241',
    'registry/coded/lollipop': '8c83ed83d5fc6d3247e3c20f1df35b7a94e525101b1a5ab4f587d0762b0e260f',
    'registry/coded/path': '5eeb48af44b996f1bc5f34b158425292d8e29f5526be6aa1b81df7b7c8383f61',
    'registry/coded/random': '5c40e215604f215a472fd41bca0677005e8b4035bc78ad14ef13a84358693b6b',
    'registry/coded/random-tree': 'ffb473b75122e64705d1e12eb32f82c3838121373496975c41fdf32a11f16b2d',
    'registry/coded/spider': 'e84a4b0e5ed8f3cbba7feb3a272d0b8aa3beb312b1638e633ce7a6d283622fe5',
    'registry/coded/star': '7e23b92236539528b2fa60668d42c48baa4cecd14e6240de0e3ccd8dc48d0b5a',
    'registry/coded/torus': '925e49f8f2acc2b41d2f3ff4aacaf1e00dc7c8b43295f64ce3eebb7b4774dc2d',
    'registry/coded/wheel': '7e23b92236539528b2fa60668d42c48baa4cecd14e6240de0e3ccd8dc48d0b5a',
    'registry/concurrent-updown/barbell': '87c8401b1920fc8210b194089178c4cd971794653ae81bb1664f9c4757b4d160',
    'registry/concurrent-updown/binary-tree': 'eef1ccd0a145bdf86f40711ec2f479f77370ece4abeafdd22077b6d02a72e052',
    'registry/concurrent-updown/broom': 'b86c9f6a4c60b7b0b348336a5f38787154c26aeea6b2e8322c0ce93c597321a1',
    'registry/concurrent-updown/butterfly': '5628ccdf1ecb7f2c7bf63680967f6434964faa3adf388164c7670102a47ca4af',
    'registry/concurrent-updown/caterpillar': '8fa93980b2a1dd3f33e1ed39a5c7e8fb0b97fa8529a6bb7749c68051228333e7',
    'registry/concurrent-updown/ccc': '29a5e7c5172f0dfd0e9c3b4a8ef22b0d73b04d948531b878acc0f84f49d0658a',
    'registry/concurrent-updown/complete': 'a89e066c7068a429de9e370e28918e6a4bd85104ee8bc1acd4a767e3aa1b33bc',
    'registry/concurrent-updown/cycle': 'ce9ef73ccff4efce18f7f79429bcd4b1faccb0a6aad04efbd4dfc9f6840c491f',
    'registry/concurrent-updown/debruijn': '48d444f225970cb0c32f667ad3f982d55cd13474efd0174fc7e8f9e1934acc9e',
    'registry/concurrent-updown/geometric': '0dae04aecf1221d81fba1ab475f92e9951a8925c4d9ae017437cc4eba98c7f80',
    'registry/concurrent-updown/gnp': '9e702bbefa590b2a874b19c09042d7fa750ba4aab214db850fb8c58af71ea674',
    'registry/concurrent-updown/grid': '628b85bdf01d008e8030d5e282d0113f1ac2f009887407cbccca77bade05f021',
    'registry/concurrent-updown/hypercube': 'fe88d013e6f82427233a7ce153191ab48086e804c97c097925f4d256ca54ef0a',
    'registry/concurrent-updown/lollipop': '26e4cd68969d62a8b6b2f3449baf4dbc834312cc92782f8ba65c19620d4cacff',
    'registry/concurrent-updown/path': 'ebe5468d1b69776ec524c0bc8705e4e9958dedab5795f408b535d8daa25c1046',
    'registry/concurrent-updown/random': 'cb99b6f4ee6a3bfc9066b1f21c48f9195c1bb80d6addcc94e7680ddb6c159b37',
    'registry/concurrent-updown/random-tree': '1860f56ef24829dc1fd00f497a208f631169555573d6a46b38c84baf23820a0e',
    'registry/concurrent-updown/spider': '676babaa51d040e74ff3e176b4ce9dd80e954fd44469d5045265b05464044b33',
    'registry/concurrent-updown/star': 'a89e066c7068a429de9e370e28918e6a4bd85104ee8bc1acd4a767e3aa1b33bc',
    'registry/concurrent-updown/torus': '621548571eed4f49351ceacd637046f8c04731c87758e27ea123ca82d93424b9',
    'registry/concurrent-updown/wheel': 'a89e066c7068a429de9e370e28918e6a4bd85104ee8bc1acd4a767e3aa1b33bc',
    'registry/epidemic-pull/barbell': '0b9e66c345b4ebb29513f79a55ad0242f6a288a292fcd9a6be7fba4f3068d1df',
    'registry/epidemic-pull/binary-tree': 'e8ad3f8c67adc4ddac16e296a4fc3431c938423f92859001ff659182bb1932c9',
    'registry/epidemic-pull/broom': '67ebce43da0fcb121f2e3b84066ce98f7c4b569f9b0560a525b8ca0825ce8df0',
    'registry/epidemic-pull/butterfly': '905056bab2110eb6536fbfd4fafe81b1a95e19659c705073eba43e74bc443ac4',
    'registry/epidemic-pull/caterpillar': '0f641e336669b2822f4340dd28ac8365ceaf1872f92182dc689b0035196a7be2',
    'registry/epidemic-pull/ccc': 'faac6a804bd930144dc9a00de0d8ffa324dcbae15aa66ddfac22481aaa4468f1',
    'registry/epidemic-pull/complete': '8ad3585749b86e0ccf108915347ffbfc07c91d27cdfc2ff4eb8f57c9a2157888',
    'registry/epidemic-pull/cycle': 'fa6df53deb176a2e3276468b5a7d37d83c68195985061eb5fe28bf6636d4f7de',
    'registry/epidemic-pull/debruijn': '242f56d21d90da8d06254ed96d2a066b781d15dea2e7d7dddf805dbb6c48be88',
    'registry/epidemic-pull/geometric': '6fa4c81e74387e2391b0031906eed20783facaeb450015f981a6ed75f04c0cca',
    'registry/epidemic-pull/gnp': '42acd118f549f02990770416ee30e861daed841ec89fa5f45e15c00ee7422540',
    'registry/epidemic-pull/grid': 'c33e748c9b74bc7199c07c2953a94048cab0256f1d8705264463b5d37e39d2cb',
    'registry/epidemic-pull/hypercube': '2b3e85492227ee2ac42aed6b380fcb806788e0c07b843cbe642ddfa90aea62ea',
    'registry/epidemic-pull/lollipop': '3310a5c67b4237d90df9f545d25fdc0ff31fa67846603afd8a27d8582ecd1aca',
    'registry/epidemic-pull/path': '80722597193b3185ab87ebe87efabff372ad70ac502550e6f2992c51b72e7a3c',
    'registry/epidemic-pull/random': '4b70b47a5293beb3684ced1fef248fd2818a6f5a44880017b16d819ca0e09e3b',
    'registry/epidemic-pull/random-tree': '3a678e1147f83cabf07aded2c25ee6d7c293adb352a5db6ad3735fd4ee8df8cd',
    'registry/epidemic-pull/spider': '200b225f3df265cc1d89f73df7b88e5399ae642b86d330901b3ee348b1436be3',
    'registry/epidemic-pull/star': '8ad3585749b86e0ccf108915347ffbfc07c91d27cdfc2ff4eb8f57c9a2157888',
    'registry/epidemic-pull/torus': '04e36450b33dbf28e8fcabd9087f92df32e19bfcd851c72e17c98158e816580b',
    'registry/epidemic-pull/wheel': '8ad3585749b86e0ccf108915347ffbfc07c91d27cdfc2ff4eb8f57c9a2157888',
    'registry/epidemic-push-pull/barbell': 'b26c95e1a41f74c9f00213ef83d92693cd478cf312e4955e9b92eb2d9815eea3',
    'registry/epidemic-push-pull/binary-tree': 'bd85b068996f852aa89e8228545f748f0dda3a04e71839aba24585ccb47fb0eb',
    'registry/epidemic-push-pull/broom': 'c3a45ddf2ce326c4d1321c1a24096643ff0a5414a4e85e69acddaf86356f3418',
    'registry/epidemic-push-pull/butterfly': '2ec9301afc7a4b62f99d97cf606d5f3a4787610c5afd88dcf0527baee8a9bf31',
    'registry/epidemic-push-pull/caterpillar': '20957f65cb1b47dd004d465fa60488e5c6321da230206ba6705ef4800d0c71a0',
    'registry/epidemic-push-pull/ccc': '0516abd830c6ed2086f4f6760edb38392392e45a971566c88e1c06ff8698fe3d',
    'registry/epidemic-push-pull/complete': 'b774b490ee97789a270e1a3b950f8d51eb4bf7988c3e334f23e8131bbc74d08f',
    'registry/epidemic-push-pull/cycle': 'c231dd8b13c1753aec889b9ec91ce4b23628e7de7b5ae9124b0c323aa675bc70',
    'registry/epidemic-push-pull/debruijn': '566c1166333efe631d54ee0c6b8c8a6db093117ecb4a6939cce09860c3024f15',
    'registry/epidemic-push-pull/geometric': '709c11dbe77a4ae8d1967555c0d06c61713d8707713827e7e2edea08cf1d3cfc',
    'registry/epidemic-push-pull/gnp': 'fd9b5f8302e8fdaefbd27ad489f7a192b9171e5b4651d5a56d7feb32347899f1',
    'registry/epidemic-push-pull/grid': '9f8d59f7da8cdca32c4429d57d9938cf1d6f2ba95cdfdc6e5730fcdf0d9eeb50',
    'registry/epidemic-push-pull/hypercube': 'bf31a23959bc81df7246c968e87159c0dfa8387a8ad15603adabb5442ef1037d',
    'registry/epidemic-push-pull/lollipop': 'f1829d77e085658814f9b9bf6bd57564aa48bb5bea4dd26a58db6d198a84407b',
    'registry/epidemic-push-pull/path': '055bc2a06f0e1bdf675070f5e13ae3deaaced46e925e810943fa43292d3a8d1c',
    'registry/epidemic-push-pull/random': 'b51665010fb1a11f7848f0bb634c044286f4cdc6e538a260ec8a1df5946db8c3',
    'registry/epidemic-push-pull/random-tree': 'e6279fc99fd318297761c897009d9862ca1986ded7a1c030d29edc38d6660fe6',
    'registry/epidemic-push-pull/spider': '2470478e54ad9bff38bf4fbcbab5221429673497d9729a54c08d6e13abf86c24',
    'registry/epidemic-push-pull/star': 'b774b490ee97789a270e1a3b950f8d51eb4bf7988c3e334f23e8131bbc74d08f',
    'registry/epidemic-push-pull/torus': '4eb10591facb737293b71014c0cbdd614149de1d012b1f5eef469571c9e44034',
    'registry/epidemic-push-pull/wheel': 'b774b490ee97789a270e1a3b950f8d51eb4bf7988c3e334f23e8131bbc74d08f',
    'registry/epidemic-push/barbell': 'a7a5f1494a91b71d0e2bb0b32fbcd5a94aa0033830d75960021f79f10949dfbf',
    'registry/epidemic-push/binary-tree': 'fe62aab5eddc223d4f561329cb7c44af58db253b4c68dff03b9a8bb6892bc1a0',
    'registry/epidemic-push/broom': '59b0115f3c91341f1789921f5f2b75d358df0564536ebf514191415ea42d9812',
    'registry/epidemic-push/butterfly': '09d48717386a31d128863d16a02177f1bd881a7fd321925b57ef54d0de80162a',
    'registry/epidemic-push/caterpillar': '57dc846b39af8e4f46f0474d50f35cad0841dcea94828f8a09cb5bf405e1e839',
    'registry/epidemic-push/ccc': '0912843559a1fe5da6e99a2089986fb86621a14e47e839852b75a55b0d7f31bc',
    'registry/epidemic-push/complete': '300d91f3b0075eadf01dbcab671c9926ac98772875cf256066ddfaabe38e1a72',
    'registry/epidemic-push/cycle': '84466aa7ca64255cedd1dea8faadcd72909d9531587c6b2ca82017d126aaf40e',
    'registry/epidemic-push/debruijn': '0f14f67afeef9c5e35f0eface0cf7463373f0b73194060ba2fb39058c1c216ef',
    'registry/epidemic-push/geometric': 'a656b008d6aca88f83af034782c122bfb7581abac4ca764ee5cd31f51b502acc',
    'registry/epidemic-push/gnp': '27a7f2d7bab8e9b819edab489fa2a117005ebef403ade1814b03b2bf48acd934',
    'registry/epidemic-push/grid': '8c25f3bf0a723f66657dddb929c8a139df81afc7b2b57197adf1ad71bef836bf',
    'registry/epidemic-push/hypercube': '6f722be1486e50ccd82f16c386d03b4dd5b6c67521d2fa632fb8750541c6d876',
    'registry/epidemic-push/lollipop': 'bf67aa5a8f73b7fbfaab4de91b13a38b9f9dd861945c19b22f1a283a1f36b12b',
    'registry/epidemic-push/path': 'ee61d907e2d852b66b05bd15f55194b305b40abd929b486207bfc9eab0bc3155',
    'registry/epidemic-push/random': '52187d591a999b5f5dac8315c167f9001aa07197d82cb2e13cd6d0c1572d4f62',
    'registry/epidemic-push/random-tree': '9c3ba44e7548ba9e276899fcf103adf8dfef6b176df86164757616e6feb28e79',
    'registry/epidemic-push/spider': 'da70d0c242b2e2bb8627465c0178fa95829824666c5cb33d14792c2440e21f88',
    'registry/epidemic-push/star': '300d91f3b0075eadf01dbcab671c9926ac98772875cf256066ddfaabe38e1a72',
    'registry/epidemic-push/torus': '5f54479ccff203bc8a663a51b6ea4a1083a99cdcebfadc2835943f9b0358231c',
    'registry/epidemic-push/wheel': '300d91f3b0075eadf01dbcab671c9926ac98772875cf256066ddfaabe38e1a72',
    'registry/greedy/barbell': '9d200d50ad95006f21be2054f8f9da56295f611e026e02fc50bfa6f9c44fdfaa',
    'registry/greedy/binary-tree': '32d7a4b9462f01c9f387b6f0482be81a93b2901fcfb8afc57b6d5e89b2e7cea1',
    'registry/greedy/broom': '4a35b576785d2c629b50762ef8a7d57e9809e8bb3b688cb04b3bd0b248698144',
    'registry/greedy/butterfly': '1e62047bb7961114a5af0a54954a194b22776ec4004e6d9f6df8c002e84ea30b',
    'registry/greedy/caterpillar': 'fdc87e9ab66124f1cec139303a98a4f99dee2e477f3e1ceb2ef90547da4f1095',
    'registry/greedy/ccc': 'e72f984913446580ea9471951b04c8a0dd7c7c0d83aa6513be701cb96b6e8150',
    'registry/greedy/complete': '5e7fca22c8b501ac578b0202ba0fb6cb54dc330cea7d8c970d3e833f38bf3aac',
    'registry/greedy/cycle': '97a853256906983c09380f986d9286631fe29b949c0a0d167748bf98ef91d4dd',
    'registry/greedy/debruijn': 'dec3e64e2fb24fd446f5ae9f50120531dfa3be34f3f3764c058bc49327081b1f',
    'registry/greedy/geometric': 'd6a28298dc37600aac097a0bc7fa72a827dd80bc06852d4ddc170c79e1818da3',
    'registry/greedy/gnp': '5279b7347218876b67500c3560ba1b70e6a989de1f1f8647877a5fb66e7f53ad',
    'registry/greedy/grid': 'dd4d10753005cd9ab184766293a245e87457306889a5e1285f29e7b9967fb91f',
    'registry/greedy/hypercube': '52c9ff174d190987e716121d59a98128f819d4f4c0e4a5727b261dfd80c365c6',
    'registry/greedy/lollipop': '9f773ae777359037e6278b229cecf11e5bae1fec2182ca75e6f98a20638a2de2',
    'registry/greedy/path': '5167fd18765b5e509297913e47501026c9ed8022a0bef371966fbc8c811ea772',
    'registry/greedy/random': '747095fecdfae032dbc066db913e3c5c3e9c1baa8b6f6cd71e328cb20f785b22',
    'registry/greedy/random-tree': 'cabdbdcc86cea8ac52c8465bf83f17dcf01c6f2c7604a647f73898b4dda42ad1',
    'registry/greedy/spider': '4fd2d796cd0252834252022f6b6f5a6d8bf22cc66ddf93041a38ed9cbdb5e3cd',
    'registry/greedy/star': '5e7fca22c8b501ac578b0202ba0fb6cb54dc330cea7d8c970d3e833f38bf3aac',
    'registry/greedy/torus': '6ba564e8b933f280fee84617f4329384ffd2a48bd91528f23ceb629618bca458',
    'registry/greedy/wheel': '5e7fca22c8b501ac578b0202ba0fb6cb54dc330cea7d8c970d3e833f38bf3aac',
    'registry/simple/barbell': 'b41e60fd2b6473535e29aa60110dadaebda18ef03948e01c6c80146fb1d004c2',
    'registry/simple/binary-tree': 'b5224bdc54bcca0c83108924072fdd289e22cf64259b1c3849a406e8aec5aea1',
    'registry/simple/broom': '19e03e8b6c10b9482641bed38055a9b9c6c31777ecab7f51ad47bb114d8fea83',
    'registry/simple/butterfly': '8d6d98ed43789786f9fccaf791984e6b51f9924127263def945311ee40c69967',
    'registry/simple/caterpillar': 'a0f28b2850df0309989f49b38ee41c57544f53dfbdcfa9609dfb90908b1ee242',
    'registry/simple/ccc': '2ecb7513e3b430fe36dbf4ce3c95fe5559312a0ef0ead97469b1047387b71a44',
    'registry/simple/complete': '790000607dfcb60d75c437c00ccc96cbbcd4c34318724b99571fb969424aacbd',
    'registry/simple/cycle': 'a7fa6e0f435a77b19ae0521e2ea41049ced89ddb4932b7b0f1ea55046a300e26',
    'registry/simple/debruijn': '790408f62fe53507692b02f741a2fb7ca9f1b91508a04326db12afdde94f781d',
    'registry/simple/geometric': '5b15f0231501424c96a9da3c9c55ac31e9e219a0d916cb4bd6144e9689d89d5c',
    'registry/simple/gnp': 'df8ca7cb7b45b89e9881a96700b5e4fee6e29c21461a7408340a0914987fe8f0',
    'registry/simple/grid': '3ac2b6bef1e4b0beadcd595f64d984de2fefde6ecf5f34c80a25771a96aa9212',
    'registry/simple/hypercube': '5e653ee78205a86a917f5a8810e638e31768e84672d1bf2e03114dfceece2a6e',
    'registry/simple/lollipop': 'eeeea3be4105c59666b877adfadc553b908be0dd51d26b274a04d3a2b847ba2f',
    'registry/simple/path': '87d692d9f689e537a530fe45aa05fe506319deda305c9e3ce0f151399d486a2a',
    'registry/simple/random': 'b37828b9dd242cc303a77233a884ef162d03ad18750347e19bd55dcd0a14d3c1',
    'registry/simple/random-tree': '7f13c4d6b7b1cd37e13fb9343d81a19e33e878977d38abc5b9e982c92df0d8a3',
    'registry/simple/spider': '83e451b9bdd9ad98593b341f38e87b408a5dd9580760616ae1b3e1c8fa1df71d',
    'registry/simple/star': '790000607dfcb60d75c437c00ccc96cbbcd4c34318724b99571fb969424aacbd',
    'registry/simple/torus': '5862623381010d70e132e162f02672389c3675f6eb8b8aa02fcddb4fb38cdfd7',
    'registry/simple/wheel': '790000607dfcb60d75c437c00ccc96cbbcd4c34318724b99571fb969424aacbd',
    'registry/telephone/barbell': 'e91e637e8ab68d0b2b53aaa17ae2730ba063b9be80cdad82f81349454716223d',
    'registry/telephone/binary-tree': '077f8a53766d26e943007e95318a8f1c3525a9b2eda0196af61cf2441714ebdc',
    'registry/telephone/broom': 'b1d18a49a17ce1c1e48a6f8391a0fd51bb22c7ea21c52871320fc220a52587a8',
    'registry/telephone/butterfly': '0668346f92ebe1e529e50d16f863a58e1cf53b128955ff472676d48f80e5d340',
    'registry/telephone/caterpillar': '409551fb088404244715ef71c23797dade8fd486c92ceffdb6b31c4d3e0edcbc',
    'registry/telephone/ccc': 'c2cdba5452f7f62fdb983a7e4f856259be1cc48cafbcee19a08acc07409eaaa3',
    'registry/telephone/complete': 'e24ad947f183f8ca833d082fd702dcc25eacb60fa43a0a4be0248d8962d4624b',
    'registry/telephone/cycle': '6c16bfac608f0612575de112679f9550ef39b0fe39173f4cfc49a5a874019e71',
    'registry/telephone/debruijn': '8d842c9fcb357df4e311e45a78d66a6f44273dceb4d06d5fbcc3b23792f6f9a7',
    'registry/telephone/geometric': '7a6527a9a31e272582c1ed349319f618cb46c494fe70d20264a52a479542cda1',
    'registry/telephone/gnp': '97690f480d428190bcdf1fa1d55d23f29a8ade3b10e0c5f60eea1dcafc82a139',
    'registry/telephone/grid': '5604eb4da3865d1a145914bb74770ff31622d85c6a41a77e9b5595c46a2ff7a2',
    'registry/telephone/hypercube': 'e6c4717b235ff2c1412bbf67b26307b878aab6ece08f27c14a3f2bc871c18999',
    'registry/telephone/lollipop': 'd923c2a23ca872f60b954c2d7ee1b3dd1e4b57815b210dc84f3abc03051b71fe',
    'registry/telephone/path': '7c0c8cf468edcf57b5370c461f931bf16cf81fbdb2d380b6e78f5f01ef5a8a14',
    'registry/telephone/random': 'e1b843f1f8d0e8f9212c66936108320630b4648a96f4d22319d84828c9534ec0',
    'registry/telephone/random-tree': '927880c61e5861cec6ddf26a3ca424ce26052249554479713e0837c4face8202',
    'registry/telephone/spider': '47144f11e304429de5d07aa16fa5ed44bd6befabace1c74a996ee3985f2f83cc',
    'registry/telephone/star': 'e24ad947f183f8ca833d082fd702dcc25eacb60fa43a0a4be0248d8962d4624b',
    'registry/telephone/torus': '382dafe694e9bc84a032d194a955a7fd4ede8fa7dbb6c6748278b65db122f1ad',
    'registry/telephone/wheel': 'e24ad947f183f8ca833d082fd702dcc25eacb60fa43a0a4be0248d8962d4624b',
    'registry/updown-greedy/barbell': '697ea1560d9c7437508940824c8c1b7809f67e4e508e45318f227386b0a8d0de',
    'registry/updown-greedy/binary-tree': '4bdb2fb248da2bb3c3ece86546baf599eb5f9970610bb91fc7627b098ebe4208',
    'registry/updown-greedy/broom': 'e48ff1bf8aa9a7a6efeb08828090c2a8bc4b47198e6409b0075f8c1d99f283bd',
    'registry/updown-greedy/butterfly': '4a98e1a397ae3ecb40dc8ebc5d84f91dcd751593fdcad3b80c50fb602d703469',
    'registry/updown-greedy/caterpillar': 'af80442dc96b9d266f3061d3b8dbc1e912d0694e87a64807de87f7a8ea804b87',
    'registry/updown-greedy/ccc': '25d891e75017c54a07e6da890a4c3a8362a535c0f8251f294a07b9286c2be8d3',
    'registry/updown-greedy/complete': '1874b31b469aa4d7a485995b0ba0a27f8846751c352cdbc41b4c052a41e352c5',
    'registry/updown-greedy/cycle': 'e6536133b4f705dec86b1b607f18a4dad159157b18018f5d1c9aba58363b02ac',
    'registry/updown-greedy/debruijn': 'dcf586c653298e91cf8af154a7fcf8e7acfcdfdbc04e9d2cbf14586ba6ce0bd0',
    'registry/updown-greedy/geometric': 'cd83cf4c2c7b11a462698f5bed78bd731928753dab307474226034b37fbe204b',
    'registry/updown-greedy/gnp': 'ad6f5af0fd3e120a2d91a57796afb52ade2326b6e7e06a845f66e84f42dbecea',
    'registry/updown-greedy/grid': '009b9b5f797a5c01fd49fe486c72feb3450c97e531e646ed565c40126b18cf76',
    'registry/updown-greedy/hypercube': 'beb137521e1b7926137d2cb0b752cc3b43f7f4717bf6cb204b1098419005d305',
    'registry/updown-greedy/lollipop': 'ed45a2caebf37ef7ad1349a5df0a4182e6f8fa424d7e76653d8907d6c117d545',
    'registry/updown-greedy/path': '1aad69fd43f9eb9dda964383f5a106098977ec796898e367431c491e18899392',
    'registry/updown-greedy/random': '3e6e3e60aeca9191a31189d0c5a772054e29a613edec00bc4dba9fc8826175c5',
    'registry/updown-greedy/random-tree': '7fdace41ee850c4d4e0a32ba05a4c34a3ae1d9f02ce5b8067475ed33a48470db',
    'registry/updown-greedy/spider': 'bf4566b6aecbc569443bee2a14815074c6730c190a7a4f15bf5f9021bae57630',
    'registry/updown-greedy/star': '1874b31b469aa4d7a485995b0ba0a27f8846751c352cdbc41b4c052a41e352c5',
    'registry/updown-greedy/torus': '97ffb5c3e6280ad856b976e994a64a0a3e036b5ce52c769521827f53acf0cca7',
    'registry/updown-greedy/wheel': '1874b31b469aa4d7a485995b0ba0a27f8846751c352cdbc41b4c052a41e352c5',
    'registry/updown/barbell': 'c557d458eca232029cc2193deafecb9beeff8a24bc236b1d4f22060093d640c7',
    'registry/updown/binary-tree': 'fca5737c1c5cb4d7f96d4e5fcd8992206555f88f866a5c8b14e073e4832c8903',
    'registry/updown/broom': '1fd03ac44b6023d72f67633d13d1090d3f0a982543322a884642e83a3a76afe0',
    'registry/updown/butterfly': '8f7a964478ed15917e8a0e248e1b5e6e088da23ca01bc75cb84b934ea45e4724',
    'registry/updown/caterpillar': '0c99d93c44df79806da97a37ac4983727c958a923274de0e19491ad42dc24059',
    'registry/updown/ccc': '69271a97d28bac044c9c0893752456e918a479f05c6bc164ea3b19c96112b84b',
    'registry/updown/complete': '5b041c4b5f747627500bf7ca5c037036fd084b41b90b2781354741930765886f',
    'registry/updown/cycle': '1c2fa623baea3ddcdc02a582d761905db0e8f9fa50c6b0576f846ee7e182e77b',
    'registry/updown/debruijn': '0c7ff97dbd6a539beea7ed88c46a1a79bcaac55ac5f95186d078f86a644409b5',
    'registry/updown/geometric': '156d2f332b0cbb22a6861bf59b2c0539ffbea269ff821ce6d07dc6ead50df868',
    'registry/updown/gnp': 'b287104f37bac86edeae7b15359e63091de117ac9f89b8dcc7eba3ddc0294a88',
    'registry/updown/grid': '62cacedb6a0dd3f4d58c2fc1e44971aac473701d91e64e7ea48d74b180a4fb13',
    'registry/updown/hypercube': '68c56203da9b8fb7674a1df275477b1a9e1e8f635658808a667f8a0fd0f416e6',
    'registry/updown/lollipop': '863e25dfaae97621a7e89e1c615d05d3c7178d3cf95b55480f8d74b92e558f53',
    'registry/updown/path': 'a5a79a91aaa94a3d9d542c9af196288b273ec2277b624ab05fa79d84ccaafb03',
    'registry/updown/random': '120e04d9d37e4a00cf094228459bb6a0724691e173d7faf21c7fd579d9bb0f88',
    'registry/updown/random-tree': '32baeded512ecf3229fb96229a0a49445aeaabe8c4d487f6bc985ffcf5cbd8d3',
    'registry/updown/spider': '43f3ad7e5be47e367de25976230b7d2d43a0022cb06b45904389cb44f398e14d',
    'registry/updown/star': '5b041c4b5f747627500bf7ca5c037036fd084b41b90b2781354741930765886f',
    'registry/updown/torus': '718a036da1a0e377db5eaf96309b2bcb3b2674ef57d01e1413912780d3303df5',
    'registry/updown/wheel': '5b041c4b5f747627500bf7ca5c037036fd084b41b90b2781354741930765886f',
    'ring/fig1': 'f111723831debf45ad547d9b227392ad538feec48db0916bbadd9177ded5b5b5',
    'ring/identity-8': 'f111723831debf45ad547d9b227392ad538feec48db0916bbadd9177ded5b5b5',
    'ring/shuffled-7': 'a46efafa9b178034f29b31693c3f507bcc739a48fdf9a66419cf4d55df70de50',
    'survive/grid:16': '468109af622f45911ea5d76895452a7f24f3efece8b582680fff7db65193830c',
    'survive/random:24': '928fc6d08db19dbd858ed6069581bca4a5272ab47f55ec392d7c462f8986ce15',
    'survive/star:10': '594ff7ec141f88d0afd8e8409d6a211d364b84c98a3fac663c55ae7b6954462c',
    'telephone-broadcast/grid-3x4/0': '80f42ac02090d80107eeeccb253dfe9e5fd280eae3906149686789a42c6257f5',
    'telephone-broadcast/grid-3x4/3': '295bbb90d1839b1672b405ac661e824f19c81ef5afc39c118b4f2118ff7bfb15',
    'telephone-broadcast/n3/0': 'bd21ac6eb1dcb2f68dbf09514616ffe0bce1b477a6d180bcd5a542fb8bc5b36b',
    'telephone-broadcast/n3/3': '04e61d705fd902e324ec6b892badbe2f769ed042a074e8c653f8c915d29d0bfa',
    'telephone-broadcast/petersen/0': '5beb7705e507cd3f343796b32857450791733fd43eb4ef98c05591375524beb9',
    'telephone-broadcast/petersen/3': '4e20c8518db447c7a973c957485d08fb9b0278dac0e8ac941fd217ba89303b0b',
    'telephone-broadcast/random-tree/0': 'ddb86377dc9f730d34706500ad03d1666726776eddecc7ce13913052bd9105a7',
    'telephone-broadcast/random-tree/3': '49e79db4c7bcd002b1e0f640de7aaa0f4ed486c6170b373b960a688411085fb5',
    'telephone-broadcast/star-6/0': 'ca1038f40b3e10a51b3580b9f1655f4afb862781f038382e582c5485e840d579',
    'telephone-broadcast/star-6/3': 'b9f979766022f8424fd18a54530e5809f581e894a0e4e036b0b992b913613848',
    'telephone-on-graph/grid-3x4': 'baae7cc3c7a23acd7fe36c4d6073cee9c4c473554b17776f9f8d72fb4341e011',
    'telephone-on-graph/n3': '011a638217e5db1b282356b9edda177afc41f040ff787b212b56cbdc45b7dc6f',
    'telephone-on-graph/petersen': 'f058c99fcd3061650733bcc54bbcd2cb8a3320701a4743b1f8cfce91b1f8a6c4',
    'telephone-on-graph/random-tree': '5554b6605e0158c9ad22fc6e48aea1f00c75e4bcd05888ad614ff5768b7a866d',
    'telephone-on-graph/star-6': '8c2578f3fa59205a17e4678b1aea4d8af4d704dc917a7c781be0aa22b0d89a62',
}

#: ``duplicate_receiver`` on each round of the 3x4 mesh plan: the
#: rule-1 refusal, type and text.  Never edit.
DUPLICATE_RECEIVER_ERRORS = (
    'processor 1 receives two messages in one round: 2 and 4',
    'processor 5 receives two messages in one round: 2 and 3',
    'processor 0 receives two messages in one round: 3 and 4',
    'processor 0 receives two messages in one round: 4 and 2',
    'processor 0 receives two messages in one round: 1 and 5',
    'processor 3 receives two messages in one round: 1 and 6',
    'processor 0 receives two messages in one round: 5 and 3',
    'processor 0 receives two messages in one round: 6 and 5',
    'processor 0 receives two messages in one round: 7 and 6',
    'processor 0 receives two messages in one round: 8 and 7',
    'processor 0 receives two messages in one round: 9 and 8',
    'processor 0 receives two messages in one round: 10 and 9',
    'processor 0 receives two messages in one round: 11 and 10',
    'processor 0 receives two messages in one round: 0 and 11',
    'processor 3 receives two messages in one round: 0 and 0',
)


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_producer_output_is_pinned(case):
    schedule = CASES[case]()
    assert type(schedule) is Schedule
    assert schedule_digest(schedule) == DIGESTS[case]


def test_duplicate_receiver_refusals_are_pinned():
    base = gossip(topologies.grid_2d(3, 4)).schedule
    assert base.total_time == len(DUPLICATE_RECEIVER_ERRORS)
    for t, text in enumerate(DUPLICATE_RECEIVER_ERRORS):
        with pytest.raises(ScheduleConflictError) as info:
            faults.duplicate_receiver(base, t)
        assert str(info.value) == text


if __name__ == "__main__":
    for key in sorted(CASES):
        print(f"    {key!r}: {schedule_digest(CASES[key]())!r},")
