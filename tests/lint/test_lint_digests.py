"""Every lint report over a fixed input set, pinned by digest.

Each case lints one plan's schedule with the producing plan and hashes
``lint_schedule(...).to_json()`` with SHA-256, so any change to a
diagnostic's text, locus, order or count shows up.  The inputs are every
sweep family at ``n = 12`` under every registered algorithm, the seven
networks of the certification benchmark, and three large schedules
(``simple`` on geometric:144 and grid:400, ConcurrentUpDown on
grid:400) whose arrival matrices span several packed words and several
round blocks of the idle-sender scan — too big for the object-walk
oracle of ``tests/lint/test_oracle_differential.py``.

:data:`DIGESTS` was computed once, before the idle-sender scan was
rewritten, and must never be edited.  Print the current table with::

    PYTHONPATH=src python -m tests.lint.test_lint_digests
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import pytest

from repro.analysis.sweep import FAMILIES
from repro.core.gossip import ALGORITHMS
from repro.lint import lint_schedule

from tests.lint.cases import CERTIFY_NETWORKS, FAMILY_N, family_plan

#: Large schedules: many rounds, several 64-bit words per hold bitset.
LARGE = (
    ("simple", "geometric", 144),
    ("simple", "grid", 400),
    ("concurrent-updown", "grid", 400),
)


def report_digest(family: str, n: int, algorithm: str) -> str:
    """SHA-256 of the JSON lint report of one plan's schedule."""
    plan = family_plan(family, n, algorithm)
    report = lint_schedule(plan.graph, plan.schedule, plan=plan)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _cases() -> Dict[str, Tuple[str, int, str]]:
    cases: Dict[str, Tuple[str, int, str]] = {}
    for family in sorted(FAMILIES):
        for algorithm in sorted(ALGORITHMS):
            cases[f"family/{algorithm}/{family}"] = (family, FAMILY_N, algorithm)
    for family, n in CERTIFY_NETWORKS:
        cases[f"certify/{family}:{n}"] = (family, n, "concurrent-updown")
    for algorithm, family, n in LARGE:
        cases[f"large/{algorithm}/{family}:{n}"] = (family, n, algorithm)
    return cases


CASES = _cases()

#: Computed once from the lint driver as it stood before the idle-sender
#: scan was rewritten.  Never edit.
DIGESTS: Dict[str, str] = {
    'certify/binary-tree:127': 'b233d63266a8183c0172edfaef457ce073ec527110d68b25dffb29292b0e4a70',
    'certify/caterpillar:144': '0eab361b6dd8ace67ff4f63972f386d5bf52fab2422ac71bc093857c76db76f4',
    'certify/debruijn:128': '013f6979869483575d24ac386ef1a12785ffb24ed4d1b6375dc5dc33db4896e7',
    'certify/geometric:144': '17652d0d070d0fdf56186fe7bbf96af3a16d816ff89b7155518f8e9faedb3917',
    'certify/gnp:144': 'ae60c60f8a622c8e318b5092704ddf2d6e12bc54dc39c30a849b93ef2f1e546c',
    'certify/hypercube:128': 'adeda50b4e5d19a77acc573febeb3fe9c077161203f6fcab6709cc098b1f1218',
    'certify/random:144': '5ff5aab9f1aa7f6a55bb991e31a31b080b64cb8b746f42d05fc3164e8689daf5',
    'family/coded/barbell': 'da94470b407ae70eba05a5fbac90cfd34f76b61d963cac184297e22507a15fb3',
    'family/coded/binary-tree': 'df0693074d81b52b4e9fda16919613026e073daebdf24d6f58fb0e81dd8d585b',
    'family/coded/broom': '63e8187059ddae8f1d5ab82152f03122f883db4c83fb34d8d8718e03c5629f02',
    'family/coded/butterfly': '8409c4ce94521963f157907b889f63a5dc2a33832246f761c8da257c30fb58ee',
    'family/coded/caterpillar': 'bdff97cc4015c17cbe2b4a135ac2297b7f8b6ae9fcd166359f1fdb599a6e909b',
    'family/coded/ccc': '6211e6c89ce8bcd9153380b4bf57af1c4ad4797e2eeea1196ebd8f03f4d13980',
    'family/coded/complete': 'e47831d46c6d4f6aa4a8bc21c99f485ddc8c13527bd946512a3f81425e6662c6',
    'family/coded/cycle': 'cf7967d588ba7c1eba576ecf14592a92b905be4e0fc23ad7f77e8dc50db524fe',
    'family/coded/debruijn': '9e95b39812ae318244e9e93c30ccfa8a40f631e7dedb4bc97d744c39ecd32208',
    'family/coded/geometric': '3b901e4dff4f90927d789a20c782dc610c2ea44fc23000964e93f3160c4d2f15',
    'family/coded/gnp': '33ea284422c711b134faf12c91c4b3b4ea44e78269d745b99bad97f6fb2f9a23',
    'family/coded/grid': '7eed7092536f06ce571638519c14cf7635e50c3e9b03b8e407f9e9ac46d62f04',
    'family/coded/hypercube': '0eaac5ffc2c517c85c6ee95b18d11dd3c7226ead49abe144eb90287f2882ca47',
    'family/coded/lollipop': '7b05a7f509002ac0fb73c2ec320b6af7186ebf6c8166be7d0f036e45eb6c304c',
    'family/coded/path': '224375784b793246fa0f3d78cd4b6766266f0a49bda856e7aeb68cf6242590dc',
    'family/coded/random': 'd0e165da684f6d13efcbb219baa2c14523b8a118736360560754c02f271507f7',
    'family/coded/random-tree': '2fbb169534227164b933f8c32ede7a75e79ae562265d1783864c9916e55c5d81',
    'family/coded/spider': '3d52e3bb1c623dd284da1cdfc9aa5530aa46d394b7beb2dc89231a5a24e05c23',
    'family/coded/star': 'e7d66bc431b3a423c2aa7f1ab1f23faec5d21b9e17c1660dd54285dd45b068a5',
    'family/coded/torus': '0d67946a4b73e0eeaad71d619228ac30701de90112b8fe17e7cb8a7d96561142',
    'family/coded/wheel': 'a1674cb6a9435db6f8809ad0278c6002abc512c55fdf6671f3bd5de9f74cf8be',
    'family/concurrent-updown/barbell': '6daae715350ae8442bc74abadf21079eb77b9b6351e819a8e9d582ab0ca31c48',
    'family/concurrent-updown/binary-tree': 'f7c743535ad7fdd87691d84cb82367044c2e805caa5e5ef4d1e37fe8a934ca60',
    'family/concurrent-updown/broom': '417cac3e7946ccc1550452c8784cd06b6b47b5199aa2a79553cec9fb4b2aea9c',
    'family/concurrent-updown/butterfly': 'aadbfb5f9254295c561633347e159a054375608c533e11b55081ab8fa72a5d6e',
    'family/concurrent-updown/caterpillar': 'cf07226085494819f56a42750144e611e15e8f46320024ca4af1769c5a0e58ae',
    'family/concurrent-updown/ccc': 'e594552a2e5170bc57e051b99e62957efbbd2032b01fd3a76c41c7420de4bf9f',
    'family/concurrent-updown/complete': '27c172f8b881bcf5f222600cef34040071d1a49e2a86099467dc50efb0c63aff',
    'family/concurrent-updown/cycle': '2aab6d3b624ad4d8c190fd49cd41a58b66cbf978bd2bd37e9d53c188a645e13a',
    'family/concurrent-updown/debruijn': 'c33f908fd0258a85d11fc73d6ae35b1dc0ce64524e64f8a033bc36fe1b0534c6',
    'family/concurrent-updown/geometric': '9e82e9a8985c5090a384f70ea6337a2a3e8f57d0886fdfe946e59317e9a2b786',
    'family/concurrent-updown/gnp': '35a0985812f940c9c93dd1ffbbc38c4197c518508cde0080c36a65b4a0d9c7db',
    'family/concurrent-updown/grid': '6037fa9d15878707062545c18fcb921b76158d8a45f4930c4ac0277fe9847100',
    'family/concurrent-updown/hypercube': 'dfdd957913058f5f9fe364f39e88eed2acb91b58fd02f95c640ac448328b3e72',
    'family/concurrent-updown/lollipop': '96c317204a5fd18d7eba4ee9827b40e9da756e9779858fc7e9f42a90d83029af',
    'family/concurrent-updown/path': '804b35c6cf04deaf11c26c8c9384ade26a2d30277cbf8bbe0d70a736990b2382',
    'family/concurrent-updown/random': '9a3370c4821de5d9b7aa4acf8c40698db0f5c8cd6b315ff31eb8b0ad52091764',
    'family/concurrent-updown/random-tree': '6dbce6ed6c8705d7aa7b6ee4e53ba85c868afc76083b7fd411391f0ba394168c',
    'family/concurrent-updown/spider': 'bde9e5fcc3dcd8ec09764a9d942e897000f55fe7bfd994962dff7b85f6781af8',
    'family/concurrent-updown/star': '268e069edd7e09bda05c82cdb1517b17a5624d5d1e9082a39b72e3b7d8028aca',
    'family/concurrent-updown/torus': '2f9b4ba2dc78860be59b5c9829542d2f3719db7cd6cbea086cfaebcc47ff63dc',
    'family/concurrent-updown/wheel': '84ff9655928ca3f028690d929d9b3716a8e13c4465604a366572fb82d4319ad4',
    'family/epidemic-pull/barbell': 'd38c73cec80747b7e09e6a1372fe30b4e9073c040f3a24a64899ee8a67b59e81',
    'family/epidemic-pull/binary-tree': '63bc71e9bd19f47d43d0be0a0f9b3bcd10915b9cb9081637ee6f980df26a7d3c',
    'family/epidemic-pull/broom': '071748fc2d8790ee44b07bb9633a01b4d7247187d9856696a12dc38a015cb9c0',
    'family/epidemic-pull/butterfly': '8fd91dc1ca2fd3597ad3921a22ba7b9a2d5a3ddb2fcd24c6b80dbd0bf92ff942',
    'family/epidemic-pull/caterpillar': 'cf9425b097c3a6a125513edc85dc53ebc928c9bbbc5803e55d861e8f72a05411',
    'family/epidemic-pull/ccc': '7ca4a6aa49becac150fe962c01c9a3ad785ed76d6b9d65a3f56b5a5693819211',
    'family/epidemic-pull/complete': '7346375428e1c819a3d0ccbbd04f3accbb7cf35c4e6ecb377c44f6864a263a22',
    'family/epidemic-pull/cycle': '0a2fdf3b8409518bddf307e5d6545d7d1f42f4974600114f170957b96bdecff2',
    'family/epidemic-pull/debruijn': '83a059f59ba3a864d3b763fa1539b9c259d295e0d8959f79ce68b3c216231641',
    'family/epidemic-pull/geometric': 'e80ee31ef20e985d94359788b4d419d16897b40c281524caa679c12b01cc0dcb',
    'family/epidemic-pull/gnp': 'b89dfe5b129e36f61916aad0bb75c52f3ec00e7ed7309a94311e7a8f123e83c6',
    'family/epidemic-pull/grid': '01e19e9cdf3ff3346d6278310fca9fd5d735a2009232acda58d306ef5704d0a2',
    'family/epidemic-pull/hypercube': '95b6f427e2c351cbf45ce4da013d1882bfef9944e99e48b7e0b79078d831fbad',
    'family/epidemic-pull/lollipop': '9cd19932364b81d8e7967880b2cf1aa82e8cff733eb0f15d95b21193b6ebda10',
    'family/epidemic-pull/path': '895221712814674eb8062bf448c24a5ef8705dda855c2c8ddf4ffc1bdc927adb',
    'family/epidemic-pull/random': '9bb47d56c37a0015541b02851ba32359b2408d9fcd3af7e72c4280a69759581f',
    'family/epidemic-pull/random-tree': '7776f2b5f1f5e423d1e4ab99507cc2285590375ea3954b66b1dbd45ace7d496a',
    'family/epidemic-pull/spider': '9a37d53de8f840c15fadb674591927b3d14cd59b7e178e1b6fe9558e2c949cda',
    'family/epidemic-pull/star': 'd3f70ddac03fc8842ca2d665159e180a1d143d30267b521a496f240534e559c1',
    'family/epidemic-pull/torus': 'b9da8f07c6cdba7b79136c7e284c0198b38e945a2ed71bd94760a295c8901e19',
    'family/epidemic-pull/wheel': '31b2c7c43951ea9369c08cf9c1a1e86f5710ed69d631e0828df9fd33d176a91a',
    'family/epidemic-push-pull/barbell': 'd68caa97774ac5af29f6bd39452a7cf80c8b0736eab7f34a7f7f77151eb1e994',
    'family/epidemic-push-pull/binary-tree': 'af0e95ad8cfcd0f01ff159e8285f4f8eb3f683b0489c2b9ee15ff9350925abfc',
    'family/epidemic-push-pull/broom': '0de5f0811173b9eeca11665c4cac4686df8fa2ac2e3877599a0ccb52fae8b7a8',
    'family/epidemic-push-pull/butterfly': 'c9736073a1b55c756a55347ca952790ed0d7613a07862396b119f71d78667954',
    'family/epidemic-push-pull/caterpillar': '685d6adaabf7f60833bff3f0516e2775b4724c2a69ff5436f2857ee555a66491',
    'family/epidemic-push-pull/ccc': '70b6d0db6ff3009737df464ddfbef16e3a6b8f53f8d7be6439321a305cdf7ec9',
    'family/epidemic-push-pull/complete': '16c5805c7e241030689181ea3de8ed68a7050c012b711612979c8902b9b998ef',
    'family/epidemic-push-pull/cycle': '33331ca3510444cd7c555857b0190ff850da8dd2d971eaab16dc2bf0f2affa66',
    'family/epidemic-push-pull/debruijn': 'd0f8b944c35cf8fcae8a20ec356732697a612f8415a2c3f0cccd0f7b2f1f03f9',
    'family/epidemic-push-pull/geometric': '1e8e6a6b11aabb573925ac1ebfa828709d3640b2ec3a4a263c17d64e2d77690e',
    'family/epidemic-push-pull/gnp': 'a9fef0c3634851f71cb1522219d406d65365bd118883ad167d6fcd262f294a3c',
    'family/epidemic-push-pull/grid': '8d98ca0f75b7c7ea7c7a3b5ee60431c2ed394edaf2355b8a455aaca0ae904b16',
    'family/epidemic-push-pull/hypercube': '7821b52f087435e4246eef5ba29ff8a984fa4c9d72a9d75f70641abf1ec543e8',
    'family/epidemic-push-pull/lollipop': '8377e1a38a6f6e5940654be2ee914f4c84b253838f91bf176167b2b873d51f19',
    'family/epidemic-push-pull/path': '44d5955698cd127ec969e90d5dfaa2b2ba5e81bbeabac4fb4e6fce13667aae98',
    'family/epidemic-push-pull/random': 'd59525c615ed49198200c48f2ae5d4ff314e7e25d6032584bc82aa268ec825c7',
    'family/epidemic-push-pull/random-tree': '5c2f3e3a556269095e66fcb4390666838c982da1ff32eb54855e3923f7411a43',
    'family/epidemic-push-pull/spider': 'f15d958a80be1ac3e568728ccf534987d1e660c676c67b08c952100845a5e515',
    'family/epidemic-push-pull/star': 'e95ea594f5fccb2dcef1a5c42091fe7dc114379c2c61676cc2a85b89256eaf17',
    'family/epidemic-push-pull/torus': '475e00d3e1afd22f92311e3db5bb68275c366fc604f236f8c4852a9914c66d0c',
    'family/epidemic-push-pull/wheel': 'f2f4110a9a578336d40c5b17dd3bf5244dad6696ebf5f035869ddc537b7eab12',
    'family/epidemic-push/barbell': '7a516d9a6394e690897f1dd0922b697ee39e7125a18ec10d0add510c5604a2da',
    'family/epidemic-push/binary-tree': 'b63c8b52197172a6ce62179b97968d361b90a6dc95927035a6dcc2ce11ebb920',
    'family/epidemic-push/broom': '038d53f62dced6790b8aebc8bcdeb66c48d0ab41eebb36dada4bea1e17c6b18e',
    'family/epidemic-push/butterfly': 'c8c58948be13fdd97f17b7c305485bc1dfc97109cc03773eba64a590a518e451',
    'family/epidemic-push/caterpillar': '8b6df7a0482da0449b3f86d016491f22ad142b326459142bd53412b4fabb3b1a',
    'family/epidemic-push/ccc': '3b54e1fbcf3c6e86180078c50273eeddd30e5d02b39361e091d739f8584f5f01',
    'family/epidemic-push/complete': 'c48ee006afdbd1ae91299a76214d56f33619d64fe64de911be835a51b258a996',
    'family/epidemic-push/cycle': '117a903959de5bfed02ef89ee39640d1f9ec37eb992de0b78c94c6fde94d5427',
    'family/epidemic-push/debruijn': 'c2d829556c22a545add215ec1f57e9061861667eb12b68ed42d7cfc8e5a7adcf',
    'family/epidemic-push/geometric': '027cb800d2d71089e7f8682cd705f8c00f95b2f27197469379db3be5f97cc569',
    'family/epidemic-push/gnp': 'fce5a1df5373dd22906289c80df598d8796945c656258ee5f2086e35c1948acb',
    'family/epidemic-push/grid': '403be9b43dfd15c952bb22783513b6f51efbe2adecde506744345dc0a1d53db7',
    'family/epidemic-push/hypercube': '34300653e4cb1433724fe895389729e2ff87ff8ff2f70733be78a668b7c4b0c7',
    'family/epidemic-push/lollipop': '68815422c5ec4b973d9c923a74480e0ae6c8060a23e0f3e7504f94cd9d947986',
    'family/epidemic-push/path': 'b255c5a6180b6bce6e5045892ce5638f75591dd6cdb40e2f95ddfeafe63c0d67',
    'family/epidemic-push/random': 'fd6c248f350b0d9487eb03fa2acf92e0e655c0d6f007666aff1f269c98c69cb0',
    'family/epidemic-push/random-tree': '7eb56d1dfd7a7d13c977b573c8ca2c34b22f49c894363a58efec675f0644238b',
    'family/epidemic-push/spider': 'e74a9022ddd115038a067ea14aee10fadca2fc51ff8f6854882030d696708814',
    'family/epidemic-push/star': '280a0aa87f8644779596a0a2b3010112c7cbfd434c8346f32cc48b97aa25e36c',
    'family/epidemic-push/torus': '4043c95963157806cee908a8c40b7060dd93ce8c796c61b876b7e33decd45598',
    'family/epidemic-push/wheel': 'e37c5a42997a23393b7c7baaf2c493c6d258109eb21d234a95e8d40fca6cd41f',
    'family/greedy/barbell': '7215c15b9a7ba8658d88404d98133418955b2d51cd56dc939a29865e3d834f1d',
    'family/greedy/binary-tree': '7ada143d73cc0c94042707a750ccc01f71f5347413ca42bd23fba9b192defd01',
    'family/greedy/broom': '534c5a11929e3188bfebf19ea61e455eb8b8a80d6ed41dd69fafc8e837a3094a',
    'family/greedy/butterfly': 'f50c4c0ac065798acf445b8a45b2bfa34ecea2b2c5708f60f51f5af6c10ef936',
    'family/greedy/caterpillar': '4bed9006ac42205817e3a2de8ed5ab1eebebd1223fda1977e57c15fc276d93c5',
    'family/greedy/ccc': 'ed706c37ecd454fabf7decb4ed83f636da375a59e1e54f532ddf3fb184ac93a7',
    'family/greedy/complete': 'aebaaedfc9a1883e6fc2a7180b8ddc263d7f0caa7f5d43c91ae420bc00bdea85',
    'family/greedy/cycle': '300b874c4cca8d7edcaded29e402c533ac8635205ffe8681eebb95a29781a617',
    'family/greedy/debruijn': '6fb15fcd71d2dd3081ff5328088bc9f3a28a037368af9c5119925548765dba82',
    'family/greedy/geometric': 'c2800e6ed0dce7b2d4966fa49a863e3e9f25ff45289901787f7676b14d2770e9',
    'family/greedy/gnp': '92ebae8e58af454ef37f6a484ccf6184aefc02fdab75d59fbf43d053e4be6527',
    'family/greedy/grid': 'a9bef020691da6744cbda499bd72d5bda4452d322cafdff9fdadc0a41588d86a',
    'family/greedy/hypercube': '605854c7a37269358bdfce746a1779c4bb5278e80074f6fec101d7b7c4e00c14',
    'family/greedy/lollipop': 'f40de0c62fc9b4ab74b58c006ff13387a5092cbacab529cb0d40be8ac89b8dc8',
    'family/greedy/path': '629bb35b5347b79983465ed193242bff90cf45f0062647b90cd758d865eab41d',
    'family/greedy/random': '67a2f0da9abbfb8b1dda318424fc7a976740f8cf4c51716329d049487e21817e',
    'family/greedy/random-tree': 'b586c9a56358c68a512ccc2de93143de1501157967df367a5ad2f9ce726d7d49',
    'family/greedy/spider': 'f10241a7510de376309f45f6fa3339a3d50ee4c0e6d7ebc10e1afa2e089b0af5',
    'family/greedy/star': 'af6c8bbc8badc5f744ccad2038da482abe54ea563a6ac3cc2dc82dcaca082f02',
    'family/greedy/torus': '4189a72d4f5769372ce966ee2f6d6b16d7fbdf2bb80d41fd9dbb0a0b48199b34',
    'family/greedy/wheel': '98c79afa8fb1ffa784b42e8cbfc38d51385964355c6152390ec5762830d6fb0c',
    'family/simple/barbell': 'd5a3e25ab6e4934c274a4f1f7c7e431003bf63ff2b5d7c8a43ec36168deaff6e',
    'family/simple/binary-tree': 'c3a14902ae45fd8fe3bfd3754759462ebe2d39f709246033fd85d304fd3c55c8',
    'family/simple/broom': '5ff576310d1f9067872cb7b1749980b7144a055cd301c272d10e6b7431f9cc6a',
    'family/simple/butterfly': '17c83235186a84bd87e31c62eb10beb0e1772fb2b0163e160e96f562a14acf2f',
    'family/simple/caterpillar': 'bfca48981daa78f39cca5ad9c4441c8a93f3da253a51b412d5dc5b1e8c1cbd30',
    'family/simple/ccc': '73c056f75b030576a89a7d6ac4ca6283a1ac18a0e35d7be7ec6cccad0e4fbcc0',
    'family/simple/complete': '8ddb8998b7971660500834af9b6ff5e40518ccc945aaabd03d1b1459acd04474',
    'family/simple/cycle': 'ac66cee5f5a41f10a46df7a080696bba0f0443695268af4c60d0e251e22ce0e1',
    'family/simple/debruijn': 'a37a10a534576a7bb9187e28ab8120a0afd4479c045e32ff2c897c14fa038026',
    'family/simple/geometric': '43dd61b3a4b125eaa44bf47be9dcf7aa9248f2b1df667582dbf8401666c98bca',
    'family/simple/gnp': '1f1d638506b730af2758128610c0c10f5b28d89ed6e9be77c62c778a59eb9621',
    'family/simple/grid': '2b92b2f1ada33086aaa8dba213fbce75c6a40893bcd710b54b7b18665d49ea14',
    'family/simple/hypercube': '43e2ce4df897b5f4c6f63059e9fb0e7580bc3d5829b714e4d753db1aa08baae4',
    'family/simple/lollipop': 'df8c5e084195b4cb4fbfbf1fe41ac0cdf14782734ca44f4418003709fe1ac2ea',
    'family/simple/path': '317aed1cc5860e8e1955efaf484fc18814d4282dcb0981c6c9bb4da2bb7c7c1b',
    'family/simple/random': 'c2c68d13db3a7b510b99b77ef45df23ae5ee68679ca9cfdaaebb306fd386c790',
    'family/simple/random-tree': '6d93ec2e56adda55e019d7f03a62e2c33c562b8603c0c5a410382b8a8e5b8714',
    'family/simple/spider': 'd559155d3dcffb1f9203a752540481b36bbc8f58c611b9a1ef671b31be677cc2',
    'family/simple/star': 'ae44cda401c499230237f3482ca68dfda072f1da88294fd40ad17d3208e4dece',
    'family/simple/torus': 'f3a433fa8073671b83e6db2d59209a6a335ebd926a0362186b5e4a755ed2077b',
    'family/simple/wheel': 'caa1c86bbed07cef889f7d784deb8bebe13a33dd36f34947cd3492187495e69e',
    'family/telephone/barbell': '32418c6a9311cf004780267990cb215be3c6684f82f655a43247bb342ed8955d',
    'family/telephone/binary-tree': 'edfec1f8eac6cf7e0f75a951c134665ba7ba0264ae312a08ba40150c45e45124',
    'family/telephone/broom': '0344c9fe8c99cb291602db4dd6a36a68c49879fdbf27774f8578711456a5310b',
    'family/telephone/butterfly': '29d8ffa00af5922b6cc3c306052a1b8fc4a9f7c5c0d246e44e60f576af14297f',
    'family/telephone/caterpillar': '2a9d029fd2d461d1ebdbdf39fe933af463a3675074bf4cafc60a1fedfa899a75',
    'family/telephone/ccc': '0c0b29002a8e45b7e1dfdb8eef391aab99eb6bfcef6907cab02da9635af57e2e',
    'family/telephone/complete': '813fafd634cbb8972f9e4eb372c84fc6452897f6db3b0ba324d129df855418b0',
    'family/telephone/cycle': '2a62766a3735faa56299788c493f59c2496be1ca436cd1bc7278e453f03c5637',
    'family/telephone/debruijn': '989cd114e3bcd8da6ae17649022876655241f2b63ed5f0b86b1844d752774933',
    'family/telephone/geometric': '1b006ef0daaf274c7901b9a247256d7ed9b3c6d492e00ce642f61821ac295cf2',
    'family/telephone/gnp': '2f1044749a5f4d6331ca9dc4828d768e072dc962e93ec7f4fe52e150f04f13f4',
    'family/telephone/grid': 'feeb5a5436d0c45b1e564d96224c128e4d90cfdd4ca2aa35a842c80355eb5540',
    'family/telephone/hypercube': 'b28a96fee22b51b83857390137d14c46f7ec227b00b4182fd9696c25bbcc5a77',
    'family/telephone/lollipop': 'eebc453d56c9f8d7934982833bd9a89e5588b567b929554355e7bba208799369',
    'family/telephone/path': '6fab3e3da62269f77eadf2c2614bf2bb4743fbb12a42d8e888b50bb5a12b03ac',
    'family/telephone/random': '8e5be7109567b682ffc1b1fa2d9464df627f84aa2b8b0c12052b4b126675b5aa',
    'family/telephone/random-tree': '75363b6d365c69358dfe285e1ae6130b50dd7e8374a1d65de554461adc88abc7',
    'family/telephone/spider': 'e8b9e4c8b5eb076e494cded1a928da7b21dc1151ed5648ffc1ff001f21cc510a',
    'family/telephone/star': '287bf45a5fc4bd184be6da30159c31b11d740cda4d889097196b0730dfd98272',
    'family/telephone/torus': 'f7c260d0361284c15016518242239c43af213467021d03c6d23e944689233a33',
    'family/telephone/wheel': '69d0d42cb40369ef42d0976d31ea06e65cbf5e130380e20f54c74222a3172b41',
    'family/updown-greedy/barbell': '1b4eacef0fec6d65bc9f11d576f4ca7fe9182c3511969bf8eb32817694d076da',
    'family/updown-greedy/binary-tree': 'fbbe9e36e34c27b2676afdb7dd99235facd0be3b635de628e45fbad12b0ab779',
    'family/updown-greedy/broom': '70b88cc778cd1d86864b2fdb2e126d07036c3b5dd4984e4f310ddbbe72281f35',
    'family/updown-greedy/butterfly': 'fa4af9b08a7995ff70f9543d5236b7470b17d4197cd620475ebc9b011f860367',
    'family/updown-greedy/caterpillar': '70b88cc778cd1d86864b2fdb2e126d07036c3b5dd4984e4f310ddbbe72281f35',
    'family/updown-greedy/ccc': 'a16f20097e836b2acdbd583cf9918cb2425922db0b501b466934f6cfb5dbcd5b',
    'family/updown-greedy/complete': '931abc7873ad772051aebaffd69de95d966be4076db048cb734ef548d1162563',
    'family/updown-greedy/cycle': '68ca31ef0eb4d15bbd216bbab8f517e454c12bcaab6eb874e7958f97d2cd4181',
    'family/updown-greedy/debruijn': '1679b3060220a1ae123c777e0d952749053950a10f2d439c7ff8f4a71e719729',
    'family/updown-greedy/geometric': 'f20173a00291dfe5cce99371fcd81b7fc5537a5e76b12040bde6b08935167ac9',
    'family/updown-greedy/gnp': '83a19d0a533a8aa13d83370eb7e9a282a1a21b69f1ef353e1cbbc2bafc9b1bce',
    'family/updown-greedy/grid': '1311b79c7b9449256a8bf6b1a175b6ef261d0591c8369f90d617c195c1a3194f',
    'family/updown-greedy/hypercube': '647384a86e55d7ff8d1850f60ce9f1a32608cc7ccf6937ed4fa614b61c42cdb8',
    'family/updown-greedy/lollipop': '9b3a9f37c956da13f7720766bd7a44cd663948d76a25c79122a9fe2e5e2f9c67',
    'family/updown-greedy/path': '370a2bc929a0171806372c851159286c9928fa0d1b322c5de9d1bcc09d6e6d49',
    'family/updown-greedy/random': '72e0a14ea21fb6f1bdbd13edac2d100e0a0107a437b7f868a7b47a6249cd78f6',
    'family/updown-greedy/random-tree': '70b88cc778cd1d86864b2fdb2e126d07036c3b5dd4984e4f310ddbbe72281f35',
    'family/updown-greedy/spider': '70b88cc778cd1d86864b2fdb2e126d07036c3b5dd4984e4f310ddbbe72281f35',
    'family/updown-greedy/star': '70b88cc778cd1d86864b2fdb2e126d07036c3b5dd4984e4f310ddbbe72281f35',
    'family/updown-greedy/torus': '512dbd164d1a8be3cc3665b2554659279c312f8f24eb89b5bd29aba8425299cb',
    'family/updown-greedy/wheel': '89297da8b54e52f172a2303ee776b7523cbdd5353031d181b95f8b9f079a8eb2',
    'family/updown/barbell': 'd2e310635a1ecdf32eb81cc0f7d1a64470b3baa9941d0bb89f867d9090494813',
    'family/updown/binary-tree': '056a00b2a7ab55776fc082ae6cff8b6b1ba6ecfa64eaa314d45d574080e66e25',
    'family/updown/broom': '212325a578251a136276bee70e56c3aa956f6ad0c47ea8faae90f64d792051c7',
    'family/updown/butterfly': '24ec95db5d38ced71e7e08ce45561717cd31bbd5bdfee44d4da1530a55206221',
    'family/updown/caterpillar': '56d3205674723847b86a9b26b57dadec2befd18e78c2b0d54785bb2e79750654',
    'family/updown/ccc': 'a0bf9cf48ee7d3ce969a77ce119eac7f1d44f142089773f6d1bad8ebe037721e',
    'family/updown/complete': '978afe4fd791ba11686d82870933bb1de9bd6df18816303758eca7a57e82326c',
    'family/updown/cycle': '522fccfca07ee7a802fc67c902f7aa756a3b98bfe4f5f7c35c2acde80410035b',
    'family/updown/debruijn': '6f441c9a1ae039301beeb98d2e6ddf769fc68a2ffb653b8b55204a56e2fb9eee',
    'family/updown/geometric': 'b3110345d3d64690dbcb9c93ef8babbdc8543248a0a3edb75cf60357636355a4',
    'family/updown/gnp': '1344532802d229d3f4646e37a2a76bf1c2f2fe140110ec951fc19c34646196e3',
    'family/updown/grid': 'd336165030eb0eebf39c7651e4299b670da216066476b64d2b99361e3be2c5cb',
    'family/updown/hypercube': 'f182e4bde923f3c7682dd125555f5b25afe5344a62ebd70b411e07c86a0d32f7',
    'family/updown/lollipop': '9f7b474ea0c81b743c86f2ae4512124cf7ae35a51e66d40b2b44da8781f8d818',
    'family/updown/path': '90884deae287c1107ea69c239de0aaf44d54fa63349ad8e65eac8983a4b4ddbe',
    'family/updown/random': '5c2ade5dd5d39aa7f94ebc36ee7f065a8292f76eaf823a7cb6751296d8bdd07b',
    'family/updown/random-tree': '4e279aa82109bff3ec30f76ef55b745e6d8a6b47049753ad51ffded1206ddee4',
    'family/updown/spider': '754121d633429057a1bb998b096a7338bc30f7460c0a844983e9d91bd34ead41',
    'family/updown/star': 'f4bb839eedb3559e2c9d3b87c11c35db179b17ce455c13f8b82a4531351ac31f',
    'family/updown/torus': 'db6532781c1ae711415014f86ba1944325745165076fdcb26c4f8deb85e4f4be',
    'family/updown/wheel': 'cca54cbbef99745282abaf31869639119e46c9b198607db93a8338ec4178ad3a',
    'large/concurrent-updown/grid:400': 'd87f911c3ad81c04f889f08eb42fcd43ebaec4a86a50363bbb68392a40dd1775',
    'large/simple/geometric:144': '8b406508896b63bd5958e55811796e6f13de743fc8e2ecd66d590fd6250cd717',
    'large/simple/grid:400': 'c16c0693c504a71ebf0ddfbc4fd23f12a480b507d7880020d3a24c6cf2d1617d',
}


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lint_report_is_pinned(case):
    assert report_digest(*CASES[case]) == DIGESTS[case]


if __name__ == "__main__":
    for key in sorted(CASES):
        print(f"    {key!r}: {report_digest(*CASES[key])!r},")
