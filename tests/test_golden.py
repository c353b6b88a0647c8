"""Golden digests of `verify` reports and of `table` outputs.

Each pinned `verify` command line runs in process; its exit code, its
stdout and its `--report` file, with every case's `elapsed_ms` removed, are
hashed together.  Each pinned `table` command line runs in process and its
output file is hashed as written.  A change that is meant to keep these outputs identical is
checked against the digests; a change that means to alter one updates its
digest here and says why.  `PYTHONPATH=src python tests/test_golden.py`
prints the digests of the current tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from geodenums import cli

# sha256 of the masked outputs of `geodenums verify <request>`: every suite
# named alone runs at its defaults; the next five requests are those of
# the benchmark's `identities` workload, the next four run the exact sums
# past that workload's bounds, and the last three run the two-slot checks
# of `thm1`, `thm2` and `two-nonzero` far past their defaults.
REPORT_SHA256 = {
    "wz1": "cd775635d86ea134e4cdc80e0750a4f5d739387f8afd46efe3c2da0b77bcef9f",
    "wz2": "53e3f1bb0443289646bd62fd82415b5929699385d127015dbc1533bf7e860f87",
    "certificate": "4d12e7de21e7d4d1cf3a1272c1bb418975baf5b381365ce3d809a13b40501c5d",
    "all": "1056cddeba9fdf7dbd9623810d11f0891b7a44fd5020cc21c543121061347341",
    "wz1 --max-n 250": "37629e7e55cdd024ee92e729677fa610dc174e5b4b57f03e199702474ab14e5e",
    "wz2 --max-n 120": "00ccfee102474f33c33320dde66980fc011c7eaec34fb3af8028a99964324cbc",
    "certificate --max-n 120": "840e1bbc2e51cca402eec33a8cfb5a6f40f518c2dd01dfe0a5a136eaa11ca22a",
    "eq31 --max-n 8 --max-a 4": "b9a4bdff25de2e3544631d7fd70cd33eec25e5252b737c91d12f88865cfc5ab6",
    "claims --max-n 8 --max-a 3": "4000ddbcc8939564eb8c53f0f622eab496e815088074881a40584e94276c0354",
    "wz1 --max-n 400": "39bd5d38ec703dc3ebc8c730cf01823262cdc1497c1f7b437d048ea60f99c3f4",
    "wz2 --max-n 200 --a 7": "600957bde43d6377ff5a967eadfa002936010ee9afb123b174ab2de1949c8c1c",
    "certificate --max-n 300": "ae007e7f75b92fa0b07f292b6db9b083111c07b31542f5cf04ee1ab790117fd0",
    "eq31 --max-n 30 --max-a 6": "8b17c2515f4c6ca290358c8afbecdaa3d14e2a45725710564b7828e93bad0084",
    "thm1 --max-degree 40": "bde9c15e97e330fbf8d6cf4f22e37517dc122d8b3cccec0dcecd58f4de44bffb",
    "thm2 --max-sum 30": "fdda5baaf10afaff702a276afe8f9800f897c391a070ba36e15bb870887052af",
    "two-nonzero --max-n 20": "14df6da4b5346e0c729ceb03d37b049a582b97b4c1646eaf8a65ddb1f0572ad9",
}

# sha256 of the output of `geodenums table <request>`: the tables `verify
# all` builds, which the benchmark's `tables` workload requests, each in
# both formats, the G table of the README's command-line example, S and G
# at (3, 6) and (6, 4) in both formats, and shapes the benchmark never
# requests: one variable deep, seven variables, a deep G, and many
# variables at a shallow degree.
TABLE_SHA256 = {
    "table --kind G --vars 2 --max-degree 12 --format json": "a2781113ec7cb5fb3740a4d30c38797a6a1e8323c65ac5db7ed48f34ac1a63a4",
    "table --kind G --vars 2 --max-degree 12 --format csv": "167fdd822ff54dda5aa28b5c05b32e346b8df6e8c13f1e03e43aa4b057dbabd3",
    "table --kind G --vars 2 --max-degree 8 --format json": "c247c846cfb85e39ba2d2c40ea0f2fffceb12e5b73356038d3968c81c35f6f22",
    "table --kind G --vars 2 --max-degree 8 --format csv": "35411c079ba5c4c0f948cfd45553d335399e875d18e44f85852aa73810c17e21",
    "table --kind G --vars 3 --max-degree 8 --format json": "44c832bc814bc392cdb403d15bedf2b9e590a5f205ddbab412b50c9e9ec06e18",
    "table --kind G --vars 3 --max-degree 8 --format csv": "0531199ced67cdf89e377b1b36a1961e2d253f47fcf0a2f56187b97c11df4446",
    "table --kind G --vars 4 --max-degree 8 --format json": "a94f9832925ed0f3a052aea2b7af24a9e83a4bc0643b2f7ae5dc1d49ae47faab",
    "table --kind G --vars 4 --max-degree 8 --format csv": "5722be64265bda8ee6862cd4f0588cbcf61db2bd620d67cbda9b739d9b04cc66",
    "table --kind G --vars 5 --max-degree 8 --format json": "42ad70990f2aa35b73225bdb87d6a2591407eecc418558b775104b74bc61608f",
    "table --kind G --vars 5 --max-degree 8 --format csv": "f6f84559aae3cbb82ec5a0f15454a623703d18820bef622d4e5eba8a2d170ab2",
    "table --kind G --vars 6 --max-degree 8 --format json": "3cff7fc71856761829cf1212a441d83cc482ddfa141b3881ae5dd2c6275c8195",
    "table --kind G --vars 6 --max-degree 8 --format csv": "7dbee510735f4e55fc0bd6444604c64128ee886e2a8f6a7679ce68d622b47d92",
    "table --kind G --vars 1 --max-degree 7 --format json": "6594951d9bc5d4e5441ecba5abbcc0f5fc6503bedd1b2e9e817b76bedc8c4f2c",
    "table --kind G --vars 1 --max-degree 7 --format csv": "efca4db6b826b993a6ca2fb1bcaadcb52d5c196048cf93b771885888c020c8ed",
    "table --kind G --vars 2 --max-degree 7 --format json": "bf2ed2303f92cc2637dac990c1f116545de41c0f7b43c561cb8d86b5bf307a25",
    "table --kind G --vars 2 --max-degree 7 --format csv": "d7be1e93165d1d5f46e865554d5df4a766283af88e300b8e5b5a0d6d66600937",
    "table --kind G --vars 3 --max-degree 7 --format json": "be23f354e7fe29cd7f626e219d225d6213822665dded0ce5f5f5d76f5e890e28",
    "table --kind G --vars 3 --max-degree 7 --format csv": "cae0a17ee6951a4dafbdb69413c817519d84cdcde2fe42a67b5d3151c6c2cd7b",
    "table --kind G --vars 4 --max-degree 7 --format json": "3e11640695c517155d165ee8bad336592652ee7a03dcc44a37afb3f97d780b6e",
    "table --kind G --vars 4 --max-degree 7 --format csv": "1ada7576d8d58ddcb1bf5e915cf8303770178e6ca4d2b9b9f68ffaa3a3d65179",
    "table --kind G --vars 5 --max-degree 6 --format json": "e7ab8d7e03124edd1c8548f86f8ece347cfb0746ec2d3d5dea5bd0173ac34a7d",
    "table --kind G --vars 5 --max-degree 6 --format csv": "b5413eac1ab9bb9cd049545e3f09e3d6f30f058fb44c456a2cfe3b94e718d133",
    "table --kind G --vars 4 --max-degree 6 --format json": "0110ae26dc62c74f2f6ef2bbab858b62552b7d4dd43bec7e4deba8eb709dbd16",
    "table --kind G --vars 4 --max-degree 6 --format csv": "694c131c45b4646b2a4ac10dc343901bc19a2c7b642cc09dad03234d9d899254",
    "table --kind S --vars 1 --max-degree 10 --format json": "9c5ac1951ee1e19dccd8e21d30c29a78fc418e39f21d18ccecab4346aa5b5fc6",
    "table --kind S --vars 1 --max-degree 10 --format csv": "2375ecf92c8e42cf3008a5ca4ece9ddd40435eececb7bc36598e3f5ba6de6561",
    "table --kind G --vars 1 --max-degree 10 --format json": "05dc66342077234d932439b5e2d1ba44b32d960d13d83b01e0e6f0eec7f24ea4",
    "table --kind G --vars 1 --max-degree 10 --format csv": "27d5110f0998879f7d5e936d9632b88a3b23b3ab489a4adf1563a7ed21cf2e82",
    "table --kind S --vars 2 --max-degree 10 --format json": "69b4123933901b0e667b5fa79a971f6e7a89ca79b0c0ab4526d940575ceb5a10",
    "table --kind S --vars 2 --max-degree 10 --format csv": "a1992ca3463b28ee162cc4427b2f58c2d94d420e5e9aa28cfb1df3b57b2027d1",
    "table --kind G --vars 2 --max-degree 10 --format json": "1017d963586375497db5cf2fc52b43a7ad940ca78f03bfd517e83e17faab7f33",
    "table --kind G --vars 2 --max-degree 10 --format csv": "b6a10897bdf237b73e7c5ed4215cbe971f2eae4d266326cd7b2687e3cd767bed",
    "table --kind S --vars 3 --max-degree 10 --format json": "ea296e60313fb58d9e44b3e4c00c7210c5fcfb679e4cba9050b6c78f38888fe4",
    "table --kind S --vars 3 --max-degree 10 --format csv": "403908ace4d2f33ca758a9632dfcc17a437cac43f28bd22120b3368dbafad141",
    "table --kind G --vars 3 --max-degree 10 --format json": "756560d2f86c66b21f4fe141a10261782128761390d45649cd4cb1615eba2ce6",
    "table --kind G --vars 3 --max-degree 10 --format csv": "de4b81b72095dbd3c9662ada8e0832e1196a60be639e5a2ac90f148a21218f7a",
    "table --kind S --vars 4 --max-degree 10 --format json": "1c42928f73a95e0d6835b12a09f81d431a04e404fc14dc9113b790255c16aeb7",
    "table --kind S --vars 4 --max-degree 10 --format csv": "35900913a56f82f6378607867e7cac800815425900f56630f04aaff6d236ea48",
    "table --kind G --vars 4 --max-degree 10 --format json": "6a20818d49ba503ad74d51da808f423d229d4dd0716833a2397011190a84a541",
    "table --kind G --vars 4 --max-degree 10 --format csv": "ebf2dfe672407c949efdc2676042614544e87450ca07add1c7c108fb0efaa297",
    "table --vars 2 --max-degree 6 --kind G --format csv": "5bb8d61b6b650dc57fad3952ecfc5870951cbb13f00b944ed5b7b9d5e6dfc6d3",
    "table --kind S --vars 3 --max-degree 6 --format json": "da2ec22b4cb6b927008fa742c690793e174dc81eb9bbf40a42bdc1e2cba0d8e0",
    "table --kind S --vars 6 --max-degree 4 --format json": "84aa2fb2222b3aa427a6983a187d35b11c914212d6ace76f8d68f4d6fea8067e",
    "table --kind S --vars 3 --max-degree 6 --format csv": "c31287d0cd3d0fdc1bca37c07e7d988785e5982119567b76af2217e58ee62fe8",
    "table --kind S --vars 6 --max-degree 4 --format csv": "50e7dbb689b0d88d45d686aa52b6840221698b37250fbba0432630735ce9da28",
    "table --kind G --vars 3 --max-degree 6 --format json": "4980fff66d7a2d346753f85e089dbface8fd0fa5db4ad72a2687a7bd6b4704b6",
    "table --kind G --vars 6 --max-degree 4 --format json": "b075bf0f4495a628acb3e896d25509cb8096b8b982958b86935ef0e3ba9d02be",
    "table --kind G --vars 3 --max-degree 6 --format csv": "833f42ee1b9351f199e3516cb1a06e2872ed92c925af2e159669b2888e8b7bd3",
    "table --kind G --vars 6 --max-degree 4 --format csv": "ff1e8d54035ae34f8dec2d09018631c7598081c1f7972705dbcd7a47489bee50",
    "table --kind S --vars 1 --max-degree 300 --format csv": "f0007ff34f1dc5e93f27e3fb94716574cad7452160db0de7d8246b35f8f4a0a7",
    "table --kind S --vars 7 --max-degree 8 --format csv": "9d52f5f5692b8b9bbccaad0622cc9d6634f87b451727710f3f8a55dbfc657931",
    "table --kind G --vars 2 --max-degree 30 --format json": "c919b7be19e26dea3a93c77cbc5568d98fe9ca9f80ecfd133a7aca10ef115be3",
    "table --kind S --vars 40 --max-degree 2 --format json": "f86a246d7434662fe597a99eb57b560ebf0bd3e33f912f9ce30013233b4568bc",
}


def masked_digest(request: str, directory: Path) -> str:
    """The sha256 of `verify <request>`'s exit code, stdout and report, with
    every `elapsed_ms` removed from the report."""
    path = directory / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", *request.split(), "--report", str(path)])
    report = json.loads(path.read_text(encoding="utf-8"))
    for case in report["cases"]:
        del case["elapsed_ms"]
    masked = json.dumps({"exit": code, "stdout": stdout.getvalue(), "report": report}, indent=2)
    return hashlib.sha256(masked.encode()).hexdigest()


def table_digest(request: str, directory: Path) -> str:
    """The sha256 of the file `table <request>` writes."""
    path = directory / "table.out"
    assert cli.main([*request.split(), "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("request_line", sorted(REPORT_SHA256))
def test_report_equals_its_golden_digest(request_line, tmp_path):
    assert masked_digest(request_line, tmp_path) == REPORT_SHA256[request_line]


@pytest.mark.parametrize("request_line", sorted(TABLE_SHA256))
def test_table_equals_its_golden_digest(request_line, tmp_path):
    assert table_digest(request_line, tmp_path) == TABLE_SHA256[request_line]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for line in REPORT_SHA256:
            print(f'    "{line}": "{masked_digest(line, Path(scratch))}",')
        for line in TABLE_SHA256:
            print(f'    "{line}": "{table_digest(line, Path(scratch))}",')
