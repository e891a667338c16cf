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

Cases ``cumulant-no-s`` (``"delta": null``), ``cumulant-at-grid-max``,
``cumulant-empty``, ``simulate-no-fit`` (``"fitted_decay": null``) and
``prop2-theta-0`` pin the result JSON on its null and boundary branches;
their digests were recorded from commit dca5aed, before the estimator
results were serialized by one shared ``to_json``.
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
    "couple": ["couple", "--process", "binary-markov:0.3,0.5", "--s", "0.75", "--x0", "20",
               "--horizon", "3000", "--replicas", "5", "--seed", "7"],
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
}

# (sha256 of BASE.csv, sha256 of BASE.json) per case
DIGESTS = {
    "couple": (
        "4aa71b3ed211a690bc42f29e786ba3f88d5fc4d3a1d47f58e5548ad6b95b915a",
        "76863e52764bb5e1ad6644a9bb6e6ee46192614d63e729bb02a4c31cac4cc977",
    ),
    "cumulant": (
        "8da028c090b6975933906977d8c4f4ac6d80f7a2100006e823c57bfbe3ae4529",
        "9315c431b6df142608c9520d2b51c1e1f6da7e0ddcd71bbad85b9c88261834f5",
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
    "loynes-non-dyadic": (
        "360b83c8710c9508e8b0ba1732e8c20601438ce764899e841a450978d8e5f580",
        "81550a6bbfcd6eaf017764651d9682e571835e587c43f45d528fc02989ebc179",
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
        "1d87c436ac7459bf5ff9eb2734f1e1c9a07a3fe07a2411b165826301698a1b18",
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
