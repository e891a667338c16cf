"""Byte-identity oracle for the command line.

Each case runs one small configuration through ``cli.main`` and compares the
sha256 digests of the ``BASE.csv``/``BASE.json`` pair it writes with digests
recorded from commit 3043980, before the recursion helpers were consolidated
(Python 3.11, numpy 2.4).  Every subcommand is covered, ``loynes`` and
``tandem`` also on a non-dyadic ``iid-table`` input, where the partial sums
round, and one case replays a written summary through ``--config``.
Case ``prop2-shallow`` runs band 3, where one complement draw in 32 seeds a
run and is rejected; its digests were recorded from commit 6a416e2, before
the window counter became a prefix count.

The ``binary-markov`` digests (case ``couple``) were recorded from the
sequential Markov sampler and now pin the vectorized one: it reads the same
single draw of uniforms, so its seeded stream is unchanged and the digests
must not be recorded again.

Cases ``tandem-blocks``, ``tandem-non-dyadic-blocks`` and ``gg1-blocks`` write
more rows than the CSV writer's block of ``cli.WRITE_BLOCK`` (8192) rows, so
they pin its block boundaries; their digests were recorded from commit
5fe2d38, before the writer became columnar.

Case ``loynes-blocks`` writes 20001 rows of a non-dyadic ``iid-table``
window, nearly every partial sum a distinct float; its digests were recorded
from commit 6e7bc0f, before numeric blocks were joined without ``csv.writer``.

Cases ``loynes-markov-blocks`` and ``loynes-odometer-blocks`` read the
backward windows of ``binary-markov`` and ``odometer`` input longer than one
``processes.SCAN_BLOCK`` (8192) values; their digests were recorded from
commit fb6716f, before ``lindley.partial_sums`` was folded into
``loynes_sup``.

Cases ``couple-bernoulli-blocks`` and ``couple-non-dyadic-blocks`` meet in the
fourth block of the samplers' ``SCAN_BLOCK`` (8192) values, and
``couple-never-meets`` runs every replica to its horizon; their digests were
recorded from commit a93eccf, before ``couple`` streamed each replica's input
into the coupler.

Case ``couple-far-start`` starts the upper chain at 10000 on the quarter grid
of ``binary-markov`` input, so every replica meets after step 26000, past
``lindley.FIRST_COUPLE_BLOCK`` and three blocks of ``lindley.BLOCK`` (8192)
steps, which the coupler advances without stepping them; its digests were
recorded from commit 50d339f, before ``forward_couple`` skipped any block.

Cases ``cumulant-no-s`` (``"delta": null``), ``cumulant-at-grid-max``,
``cumulant-empty``, ``simulate-no-fit`` (``"fitted_decay": null``) and
``prop2-theta-0`` pin the result JSON on its null and boundary branches;
their digests were recorded from commit dca5aed, before the estimator
results were serialized by one shared ``to_json``.

Case ``prop2-blocks`` counts 20000 windows per sample, three of the window
counter's ``odometer.COUNT_BLOCK`` (8192) blocks; its digests were recorded
from commit b01c64c, before each block walked its shared high bits once.

The JSON digest of case ``cumulant`` was recorded again after commit
176eb9f, when ``estimators.decay_delta`` began to solve the interpolant
in closed form in place of 80 bisections: its ``delta`` moved by one ulp,
from 0.2853868978839691 to 0.28538689788396904.  Its CSV digest was not
recorded again.

The JSON digest of case ``tandem-non-dyadic`` was recorded again after commit
20c341f, when ``tandem`` began to stream its rows and to sum its totals
exactly, rounded once, in place of numpy's pairwise ``np.sum`` of the whole
columns: ``total_input`` moved from 450.69999999999993 to 450.7 and
``total_first_output`` from 448.49999999999994 to 448.5, each now the
``math.fsum`` of its CSV column.  Its CSV digest was not recorded again, and
no other digest moved.
"""

import hashlib

import pytest

from ergoqueue import cli

NON_DYADIC = "iid-table:0,0.3,1.7@0.5,0.3,0.2"

CASES = {
    "simulate": ["simulate", "--process", "odometer", "--s", "0.75", "--horizon", "2000",
                 "--thresholds", "0,0.5,1,2,4", "--seed", "3"],
    "loynes": ["loynes", "--process", "iid-bernoulli:0.6", "--s", "0.75", "--window", "400",
               "--slack", "0.5", "--seed", "5"],
    "loynes-non-dyadic": ["loynes", "--process", NON_DYADIC, "--s", "0.65", "--window", "500",
                          "--seed", "6"],
    "loynes-blocks": ["loynes", "--process", NON_DYADIC, "--s", "0.65", "--window", "20000",
                      "--seed", "24"],
    "loynes-markov-blocks": ["loynes", "--process", "binary-markov:0.3,0.5", "--s", "0.5",
                             "--window", "10000", "--seed", "29"],
    "loynes-odometer-blocks": ["loynes", "--process", "odometer", "--s", "0.5", "--window",
                               "12000", "--seed", "30"],
    "couple": ["couple", "--process", "binary-markov:0.3,0.5", "--s", "0.75", "--x0", "20",
               "--horizon", "3000", "--replicas", "5", "--seed", "7"],
    "couple-bernoulli-blocks": ["couple", "--process", "iid-bernoulli:0.5", "--s", "0.75",
                                "--x0", "8000", "--horizon", "60000", "--replicas", "3",
                                "--seed", "25"],
    "couple-non-dyadic-blocks": ["couple", "--process", NON_DYADIC, "--s", "0.65", "--x0",
                                 "6000", "--horizon", "60000", "--replicas", "3", "--seed", "26"],
    "couple-far-start": ["couple", "--process", "binary-markov:0.3,0.5", "--s", "0.75",
                         "--x0", "10000", "--horizon", "50000", "--replicas", "4",
                         "--seed", "28"],
    "couple-never-meets": ["couple", "--process", NON_DYADIC, "--s", "0.3", "--x0", "50",
                           "--horizon", "20000", "--replicas", "2", "--seed", "27"],
    "gg1": ["gg1", "--service", "iid-table:0.2,1.3@0.5,0.5", "--interarrival",
            "iid-bernoulli:0.9", "--n", "300", "--seed", "8"],
    "tandem": ["tandem", "--process", "odometer", "--s1", "0.75", "--s2", "0.5",
               "--horizon", "1000", "--seed", "9"],
    "tandem-non-dyadic": ["tandem", "--process", NON_DYADIC, "--s1", "0.8", "--s2", "0.7",
                          "--horizon", "1000", "--seed", "10"],
    "tandem-blocks": ["tandem", "--process", "odometer", "--s1", "0.75", "--s2", "0.5",
                      "--horizon", "20000", "--seed", "16"],
    "tandem-non-dyadic-blocks": ["tandem", "--process", NON_DYADIC, "--s1", "0.8", "--s2",
                                 "0.7", "--horizon", "17000", "--seed", "17"],
    "gg1-blocks": ["gg1", "--service", "iid-table:0.2,1.3@0.5,0.5", "--interarrival",
                   "iid-bernoulli:0.9", "--n", "9000", "--seed", "18"],
    "odometer-orbit": ["odometer", "--value", "11/16", "--precision", "16", "--steps", "20",
                       "--direction", "backward"],
    "odometer-measure": ["odometer", "--mode", "measure", "--i-max", "5"],
    "cumulant": ["cumulant", "--process", "odometer", "--theta-grid", "0:2:0.25", "--n", "64",
                 "--m", "200", "--s", "0.75", "--seed", "11"],
    "scaled-cumulant": ["scaled-cumulant", "--process", "iid-bernoulli:0.5", "--theta-grid",
                        "0,0.5,1", "--a-scale", "sqrt", "--v-scale", "log1p", "--n", "20",
                        "--m", "100", "--s", "0.5", "--seed", "12"],
    "prop1": ["prop1", "--i", "7", "--m", "500", "--seed", "13"],
    "prop2": ["prop2", "--i", "7", "--theta", "1", "--m", "500", "--seed", "14"],
    "prop2-shallow": ["prop2", "--i", "3", "--theta", "1", "--m", "2000", "--seed", "15"],
    "cumulant-no-s": ["cumulant", "--process", "iid-bernoulli:0.5", "--theta-grid", "0:2:0.5",
                      "--n", "16", "--m", "100", "--seed", "19"],
    "cumulant-at-grid-max": ["cumulant", "--process", "iid-bernoulli:0.3", "--theta-grid",
                             "0:1:0.25", "--n", "16", "--m", "100", "--s", "0.9", "--seed", "20"],
    "cumulant-empty": ["cumulant", "--process", "iid-bernoulli:0.9", "--theta-grid", "0:1:0.25",
                       "--n", "16", "--m", "100", "--s", "0.2", "--seed", "21"],
    "simulate-no-fit": ["simulate", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--horizon",
                        "500", "--thresholds", "0,5,10", "--seed", "22"],
    "prop2-theta-0": ["prop2", "--i", "5", "--theta", "0", "--m", "300", "--seed", "23"],
    "prop2-blocks": ["prop2", "--i", "11", "--theta", "1", "--m", "20000", "--seed", "16"],
}

# (sha256 of BASE.csv, sha256 of BASE.json) per case
DIGESTS = {
    "couple": (
        "4aa71b3ed211a690bc42f29e786ba3f88d5fc4d3a1d47f58e5548ad6b95b915a",
        "76863e52764bb5e1ad6644a9bb6e6ee46192614d63e729bb02a4c31cac4cc977",
    ),
    "couple-bernoulli-blocks": (
        "c81af309590d28dc530acaf3cfbd1fe8a71b629fdd84c5a8ceac82d0bf1e509e",
        "5f938cf7350e0cbd6f785e17bdeea1fc70156e7371e0ce1078ea55b73b4c221c",
    ),
    "couple-far-start": (
        "15d05e9a8f688316a3899da54f5b10432c3622da7b28d8eafd6f48a103d32b5e",
        "38560fff6bdb2338dabceb3d97c7e0bc91d2a346e14d8dc9604cc684d77c52a5",
    ),
    "couple-never-meets": (
        "dbcc78cd62df3163286bab7cf0bb16d3a94e3a76865569d2ddfabc61893f6746",
        "d817028ad078091ab0ef431791efbe124a4273a23498e000f073d9dc400dd9e7",
    ),
    "couple-non-dyadic-blocks": (
        "8f64aa9a05af7c9390038e9039ad50ffaf6d581401ce1cb3850007466cab531a",
        "10e75e7f2b4b1bcffbca4f03d354343f60e8aef900adbfd9db73b425636b3c01",
    ),
    "cumulant": (
        "8da028c090b6975933906977d8c4f4ac6d80f7a2100006e823c57bfbe3ae4529",
        "2bd4b5ae464c41fb9642f9b9422f2ad635e9a28e9e359a463b15edc774a3e066",
    ),
    "cumulant-at-grid-max": (
        "7fc74c9701818945e3bc03bcc5faf6dfdbf2d01188d3312f75a63fc863455fed",
        "c191dd56b4f61935cf96aa74f9b69759e2bfc450fa05251a0c7dec4e42588db8",
    ),
    "cumulant-empty": (
        "4d3440d6948036a94769ffc886ab03c5be400c21b1bb32d41bd329b9e34812d9",
        "aec8c533ec4dc00ac66181c3fd21cc0a351d68db404467f46c3dfe9dd8736a07",
    ),
    "cumulant-no-s": (
        "fef7df2a053dbb0637d71e91b504e3f53850f2dda9956c64c2deff945c4b62ec",
        "6cc5bf773b4faa512d8a1e912d56995d0a91ae8809a75481c22a7268badbbc13",
    ),
    "gg1": (
        "5080387480a57fe0d5cd772b50611f52690fd80bc4f66d4049d93303af36198b",
        "3df20ebdcbf0af4925be6007f927fbe7149c9318833e9e4ed6d9b8eb1084abf1",
    ),
    "gg1-blocks": (
        "adf385624f19d00369b8a57fc8226da76b22bfcc6f03c1fa1a8f1cd7b741f4ee",
        "6a675fab000ef6a3c9d10be1c07a8a57204362ff065ccb9ada51843ab8392ffd",
    ),
    "loynes": (
        "92340ec97f480a78499f3d779415f1c0991033b8a53122c5bf0dc37f2c6ee64f",
        "9b905b792d6bd4fa97ee4cc9e5d4ed4ab3531cbae1f5360c28d5a18054cf83d2",
    ),
    "loynes-blocks": (
        "396a54f1f8ecfd831f787f1b11579bcef55af214e48cf36502797bb3e160b558",
        "0ee0c086efaf4779b7b728b4eb1607e61808eaac6b7399d36c8d3b7dba83d39b",
    ),
    "loynes-markov-blocks": (
        "606482fbbb2d5d456cf2e85db32f1b444efa6dfa49234987d8c8bb770a19c401",
        "067b7ff3f48d7e8bc78721f1f30ec2f1ed099a46e7d70dbb6cea375be2633bde",
    ),
    "loynes-non-dyadic": (
        "360b83c8710c9508e8b0ba1732e8c20601438ce764899e841a450978d8e5f580",
        "81550a6bbfcd6eaf017764651d9682e571835e587c43f45d528fc02989ebc179",
    ),
    "loynes-odometer-blocks": (
        "5f396c3b52e7db28fadd74d1556c652d0ffa6fa5c2d9e6d92fd213cbd23a80bc",
        "05620d995cb85b64b30c2a820913f064cdb151699bc1b6fc26e7cd1657b2b12a",
    ),
    "odometer-measure": (
        "fc8c332cdf549e785d690f4184cc28f30d2c1638a1d0b24f208f5acf50a9a8dd",
        "2089a5d541a05bb1ef1101fc86c7c038c47e1de5064c64f1ce3e76c6cf4e5cc3",
    ),
    "odometer-orbit": (
        "9adcb19d8488b74611554a38f78ba86d8c9a91bdff70b79763bb3b89ed7d6de3",
        "7c547858d927657e5da229bf86be2dcd4eeb34b7e8fb93e2551e90c6469cb15b",
    ),
    "prop1": (
        "4eb68d3ef635674b046739c133427f50ee8bb56d7412a09adbda38b288c63aaf",
        "f62b5fdab4d1271aa6f33b8e4dedd1a9458a5783352bce268077d8d862019e91",
    ),
    "prop2": (
        "861325c0067a6e4e1547ce593f06f52fb41d747a36dbc1ddcb689e198d40c8d1",
        "227fa4a861adc5683a860a84038008c2d79d7fd8de608c358f6a417a48f56652",
    ),
    "prop2-blocks": (
        "b416b96827b41c221141a590c9a00b15569ec2f2f8f7fd190c67f3a3a3e2d1bb",
        "b1625fbee286452e4df45ae7ea91658394c43ba0552cb9f090b6547fd74ea47f",
    ),
    "prop2-shallow": (
        "39ef413fccd367c5a1f257f1e7a1d8ded96b47a19e7e6aa90356d3dbaa1b5056",
        "23a873e19f91d3567f5f205d4dcd3a621cad1f02a694f13106e367186a339809",
    ),
    "prop2-theta-0": (
        "e5a5c6bcb87e10ea159f210a5a8188dd447960449d467f6699a21332ef35faf9",
        "2adb667e0c467348d88c0d15a6c58cb96459c2e88dcd319310090b09c96e9f60",
    ),
    "scaled-cumulant": (
        "711e319003b8e549513f9c62894a78705db6d6378913f245321b9148dca2bf35",
        "8ec5e2d24b589d00feb9e768e47f581af10560a5608f52dd88cff7596c8c9a3f",
    ),
    "simulate": (
        "048bc79282fa47db13b04285064f86f70203bf97388056a3dac376d840dac7c7",
        "113cf27f87e5fe3944ed72c61e0fa956ef9d631d2ec28f6aea17a2aff68479de",
    ),
    "simulate-no-fit": (
        "1afc352e6d463fe3a8598b77ef861adb98bc59ca22d7d5884ea10e33b35bd94d",
        "0b9b1b5b46f2b058980aa22ebe573e8c5314845c0394afc6e3d0037edf5d13b3",
    ),
    "tandem": (
        "2b478c3f3913d5f215f9ea0c548de7c9918625c508d439e601ae814a3d93ed73",
        "00f346e6b4368a5229e81d43f87fb06d90946da0aa47283e8db00b6524a15e2d",
    ),
    "tandem-blocks": (
        "31f8bc79eb242922efa5751dc39b6c9334e205e01c31ad60eee4d159da0e9804",
        "1b83db20efc350b90a8a58fdd0f4a419e1e8e896ce297d0dd50a87b238c9f4fb",
    ),
    "tandem-non-dyadic": (
        "347966898657bc03b77f93f32474d42cfd324e1f3e5d631a4a5469b6cfbd60f8",
        "36250f5197c25146336dfc9460a792a1fa95d15a9ed06fb68b41f98ba1e0945a",
    ),
    "tandem-non-dyadic-blocks": (
        "887e8fddf3475423edc6d3b9296ea01df6867ed6c87758ac134e3793f1113ad5",
        "ae810349137dfeb35292fa05e5049fe9bcaf1829c7d21a0f47809732e0ecc720",
    ),
}


def _digests(base) -> tuple[str, str]:
    return tuple(
        hashlib.sha256(base.with_name(f"{base.name}.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "json")
    )


def _run(argv, base) -> tuple[str, str]:
    assert cli.main([*argv, "--out", str(base)]) == 0
    return _digests(base)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert _run(CASES[name], tmp_path / name) == DIGESTS[name]


def test_config_replay_matches_recorded_digests(tmp_path):
    first = tmp_path / "first"
    _run(CASES["tandem-non-dyadic"], first)
    again = _run(["--config", f"{first}.json"], tmp_path / "again")
    assert again == DIGESTS["tandem-non-dyadic"]
