"""Byte-level pin of every subcommand's stdout.

Each case runs `cli.main` in-process and compares the exit code, the stdout
length and its sha256 with values recorded before the JSON rendering moved
into `cli.py`.  Any change of key order, spacing or rational formatting shows
up here; a deliberate layout change must re-record the digests.
"""

import hashlib

import pytest

from leonard_lab.cli import main

LAYOUT_CASES = [
    (("params", "--d", "0", "--r", "1/4", "--s", "1/4"),
     330, "693cc864139eb819d815e3c613d8814286f0eeb852abb5811e1d75f182e1de4a"),
    (("params", "--d", "2", "--r", "1/2", "--s", "-1/2"),
     543, "9897612b64441e0140e14a5d07b167c6ab1fc2cdd0285b93601cc680fc65f20c"),
    (("table", "--d", "2", "--r", "1/2", "--s", "-1/2"),
     268, "173b2bdba96c00ba5c0ff44e155641e8e8c67bd2a731213770a1897210def3f7"),
    (("table", "--d", "2", "--r", "1/2", "--s", "-1/2", "--format", "csv"),
     47, "9e07b958b73cdb4173570940db3e85e4027c0a769dd00ec234c6feb93f66d826"),
    (("verify-lp", "--d", "3", "--r", "1/2", "--s", "-1/2"),
     629, "81ace24dc833116300bf5849a74a9c54d4281a2df30738bbef4adfff57231e3f"),
    (("verify-lp", "--d", "3", "--r", "1/2", "--s", "-1/4"),
     674, "b15f9eecb566d8143ef45dc0bb74f48b6472742bcaf04707a67d5c0e279e8010"),
    (("verify-lp", "--d", "1", "--r", "1/4", "--s", "1/4", "--lambda", "-1/2"),
     651, "7a50c141650af5d6796ad4d8f040c422cbf46c7813fbcb63af8c7fb5bb36843f"),
    (("verify-lp", "--d", "4", "--r", "-1/2", "--s", "1/2", "--exhaustive"),
     702, "7810fcb8f38a29c45c801b72667d3faa7de3dff5ff10341a257b764410cfdaaf"),
    (("verify-dual-hahn", "--d", "2", "--r", "3/7", "--s", "2/5"),
     180, "c5df415dec6840271a523fa05a109ef292d38e542e8ebcca6675ecdb5b67b4f9"),
    (("verify-racah", "--d", "4", "--r", "1/2"),
     263, "25735a25beeaf05bc4b9c35a1177c9d62e6bb66d0793d9e80be1260d40fd6f63"),
    (("verify-sl2", "--kind", "0", "--n", "3"),
     103, "19184cc5f19fe764a5e80604d850125643cb8a255a8a5a7562f524a345f4bf93"),
    (("verify-sl2", "--kind", "1", "--n", "5"),
     103, "22c07a6e17693aa117b73fe6c32d11a3b374b029ce773eb3e6795831d52f3bc9"),
    (("search", "--d-min", "3", "--d-max", "6"),
     2047, "28f51f4650a5f18b2497a95d3d7b4deef70f8a1cfb693e4d0459393715cf1213"),
    (("search", "--d-max", "3", "--r-values", "1/2,-1/3", "--s-mode", "list",
      "--s-values", "-1/2,1/3", "--lambda-mode", "list", "--lambda-values", "-5/4,-1/2,0"),
     8850, "eff2244e1e61969aa36f6159795808ed66f83c41539758d7f5e3e94ef1e35c3f"),
    (("search", "--d-min", "2", "--d-max", "2", "--r-values", "1/2",
      "--lambda-mode", "list", "--lambda-values", "-9/8,0", "--hits-only"),
     250, "e2c0ce03a23a235cff11278d394be317c149bacc6fb3f7b3aca6a4057d20d32d"),
    (("search", "--d-max", "5", "--r-values", "1/2,-1/4", "--exhaustive"),
     2513, "43c0ed4fb3e13916bb04199f60faf068284b2f682ce8021c3b08572920d950b1"),
    (("catalog", "--D", "3"),
     483, "b932bc7e553122d52bc8f25d67e24ff2c3b027d5d478d2df84e90968fa09db26"),
    (("catalog", "--D", "6"),
     1347, "c97373ed23e5ce8b32ef61fd739915aa1ac9c1c76cc21e32f21df5c6cbd500ce"),
    # Larger d, where the tables and checks take their integer fast paths.
    (("table", "--d", "16", "--r", "3/7", "--s", "2/5"),
     9759, "e575d36c0908baafe22ba7f05a071a99a939f006dcd4f0c15a44ea6905f02399"),
    (("table", "--d", "16", "--r", "3/7", "--s", "2/5", "--format", "csv"),
     6787, "f21c9a6d32cd5dd945c89567cb54dd40a98259434ee7900d1d549264d1d7ac16"),
    (("verify-dual-hahn", "--d", "16", "--r", "3/7", "--s", "2/5"),
     181, "d4baa1e2c8862471ef881ef4f38254f8c0105ec33ae05f4805ec65e609f0439c"),
    (("verify-racah", "--d", "16", "--r", "-5/9"),
     265, "65963667438ae02b759a3b57f7909289ac933ffc0cb8490822d3093ef8a0113f"),
    # Larger d for the integer parameter-array completion and closed forms.
    (("params", "--d", "16", "--r", "3/7", "--s", "2/5"),
     4135, "10ec3b1295aa37c617135bbafe360be4a78c2a6a38cafbd7ad870459c4e8c75c"),
    (("params", "--d", "12", "--r", "-5/9", "--s", "5/9"),
     2168, "04d17f7c400e59f8395fccf6ea3fde9205e755aa520cbe0f37e9cd9a3f974991"),
    # Every condition row of the integer verdict: a collapsing shift, where
    # only the distinct-entries row is false, and a true d = 2 root at a
    # non-canonical shift with r + s != 0.
    (("verify-lp", "--d", "3", "--r", "1/2", "--s", "-1/2", "--lambda", "-3/2"),
     651, "198c516f1f8db4942e8e9675b35d584c721f9606c0dfbf40127401463a8f5fd2"),
    (("verify-lp", "--d", "2", "--r", "1/2", "--s", "1/4", "--lambda", "-21/22"),
     626, "7042177a4333b90e371cd7818cd9a27fa2f6e9d9481fb565e464cefc0f959d81"),
    # Unsorted r, s and lambda lists still print in (d, r, s, lambda) order.
    (("search", "--d-max", "3", "--r-values", "1/2,-1/3", "--s-mode", "list",
      "--s-values", "1/3,-1/2,0", "--lambda-mode", "list", "--lambda-values", "0,-5/4,-1/2"),
     13236, "07691d3665a581f735fce5cb877ad8c1adf47fbb62d1b6c257e61b4daa029168"),
    # The largest sl2 modules and catalogs of the benchmark's grid, where the
    # matrix sums and scalings meet long zero-filled rows.
    (("verify-sl2", "--kind", "0", "--n", "25"),
     106, "00e88ea7808637f099f5b6f73fe6078435b239d3a8d74c17cdddc2394d5022e7"),
    (("verify-sl2", "--kind", "1", "--n", "25"),
     106, "d9784fec19cb3200c8d8d4cd9a0eb49a718aaff8437108f5156ea4988ecb9fb9"),
    (("catalog", "--D", "12"),
     5276, "ec0ddd575d7af68c4c334dc74913c58d48aa10467d7726c5ad33505b48900bb6"),
    (("catalog", "--D", "25"),
     29746, "d156a5db54fbeb570869b97fdbf29f4e2b30635df445d1b86e1a203d07f08e43"),
]


@pytest.mark.parametrize(
    "argv, size, digest", LAYOUT_CASES, ids=[" ".join(case[0]) for case in LAYOUT_CASES]
)
def test_stdout_bytes_unchanged(capsys, monkeypatch, argv, size, digest):
    monkeypatch.delenv("LEONARD_LAB_THREADS", raising=False)
    code = main(list(argv))
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest
