"""Golden CLI outputs: SHA-256 of every file the four modes write.

The hashes pin the exact bytes of ``sweep``, ``verify``, ``classify`` (CSV
file and text report) and ``heatmap`` (cells and boundary) at their default
resolutions, for the five bundled scenarios and three variants of the
canonical scenario whose two agents weight price and emissions differently.
``heatmap`` is also pinned at off-default ranges and resolution, where the
scan crosses invalid cells below the bus-1 base load and below zero.  A
refactor that claims to keep the outputs must leave every hash alone;
criterion 8 only checks that two runs of the same code agree.
"""

import hashlib

import pytest

import scenario_gen
from gridshift import cli
from gridshift.grid_model import bundled_scenario_path, write_scenario_file

SPLIT_WEIGHT_SCENARIOS = {
    # Price-only bill, emissions-only system view, clean bus 1: the data
    # center stops at the threshold while the system would shift it all.
    "split_reverse": dict(alpha_dc=1.0, alpha_sw=0.0, e1=0.1, F01=2.1),
    "split_classic": dict(alpha_dc=0.6, alpha_sw=0.2, e1=1.6, e2=2.5),
    # Renewable-limited threshold exactly at L, so the last sweep point sits
    # on the degenerate vertex, where verify accepts either side.
    "split_threshold_at_block": dict(alpha_dc=0.3, alpha_sw=0.7, l0=-2.9, F01=2.5),
}

GOLDEN = {
    "aligned_clean_bus1": {
        "sweep": "14e25ee1bab103b17e5d63a5b055121098884bab8998923365078b2f3d00f87a",
        "verify": "2553339fb14f272868309295062ef7655e24c6435d4a6f35497bd9a298e815d0",
        "classify": "e08cd78ce35320ffd1c12eb058e948b911b8bf9c5f65b848c6bba5237ea10840",
        "heatmap": "71d2c9cad720570760e4f2c1822e8d73a551e47ecd8eaf475bc7e99203bfedf5",
        "boundary": "6d3cdecc443406c3895c76473ed0f9ae1a2b578b12fbe3f84d5d3a2b8c1b23d5",
        "classify_text": "8761783cbcf67ea2f8de0e311d887aa8d55f5c72b1cd71690cd8d3ff1cdb11b2",
    },
    "aligned_costly_bus1": {
        "sweep": "488d9182d3ce722668e2e52c80c4d9d428a2fab89e0cfa4a8746707b23506cb2",
        "verify": "44e2f4d7b68d425072312e540bbdda0a01e5bdaf0d54cf60546b78d5c663957a",
        "classify": "7cc3b50b6839fbb9d70b99f1553a89f7213880b71cb2d06b02108d172ed0f652",
        "heatmap": "2b8d6041ee704cac845f5811d2d35ba96aac28fa63fe5108c57d862feb771603",
        "boundary": "fec41b85c6e5a1ace37278063a401387c594d6674397c40d33f729292540295c",
        "classify_text": "a8ae6951a95e91c22f924b09f2de9e143c192298856d19f6b810f16acb4db448",
    },
    "aligned_expanded_line": {
        "sweep": "a64b6654b964eab7e5e8a8c4f2e6340695de19d5aa6426866770b5643cafef38",
        "verify": "56b917a3a3e0ceb04655a454d1d793ea3a883e5199f794a4f6ba8c3d73725228",
        "classify": "2264a26656a46ffa5dcdb18ea0c40d5d6d71b03306ed80c70943ce3fb298254f",
        "heatmap": "a4874db2bb2af17fd6fdac57622675973d5300dccc9e02be59baf4a8fd9cb7f0",
        "boundary": "f3e66b85982c20afa7e02e48cb38b06caae95cf6971449501f77ec374acb797f",
        "classify_text": "f7bdde220ee78ab744cb9f3b5e95015d48b817082092dec6600686508419704a",
    },
    "canonical": {
        "sweep": "04194bd94c98b04c288f9c2aa36c788e1059489831648b3c47867c9474130387",
        "verify": "b8ffbf09d01d8e56e21406a0d7a82ef86d95a15e1a7670a9b4d48eeab9af5617",
        "classify": "f6072b47356582aa788c2f5fabc937340f891a37c06b388b9abc30ab9a871cc2",
        "heatmap": "6ee7acb68ceaa78d7e144723c7f4c2b833f8f907381dcfd05f86ac04285a94df",
        "boundary": "f3e66b85982c20afa7e02e48cb38b06caae95cf6971449501f77ec374acb797f",
        "classify_text": "9a29f4bf8a9823e8fa245f7554c2ff05c7fef89e74e53903d38e06a4d758edfb",
    },
    "misaligned_full_shift": {
        "sweep": "1886e81a911748c6516828afb83318e2052b828c3a985a767893ecc7c0d92de7",
        "verify": "44e2f4d7b68d425072312e540bbdda0a01e5bdaf0d54cf60546b78d5c663957a",
        "classify": "dbad6207e47a4f056c35081b838be9b68f96c1e6a68d1c7f7885bfe71164d391",
        "heatmap": "a4874db2bb2af17fd6fdac57622675973d5300dccc9e02be59baf4a8fd9cb7f0",
        "boundary": "f3e66b85982c20afa7e02e48cb38b06caae95cf6971449501f77ec374acb797f",
        "classify_text": "18079101d6c66000e322abdd8bbbd8bc5d9d6c4b223132ed89b7d389ec408d84",
    },
    "split_classic": {
        "sweep": "02522ea3df829e7d4f95a0bc15d357e7d1a2c587a64d4a47c1bd5498ce14f51b",
        "verify": "44e2f4d7b68d425072312e540bbdda0a01e5bdaf0d54cf60546b78d5c663957a",
        "classify": "a7b661bfacca6f39f1291bb940037f6388479c9ec1fac1a00a1cf151d0f9c86f",
        "heatmap": "c91164fdfa18a0959dd12b724c1618fc5edb61084550ddb1027c79ee43dd8b0c",
        "boundary": "6d2d053088076510110e782c509a432371e651c4dcf4b22c7773c9928137b7ea",
        "classify_text": "25e19dadc6e82c0274121d35dd1cbb865486c96119c951a2ca2c23bdb056ef92",
    },
    "split_reverse": {
        "sweep": "925eecb74e49a238e08058ed8e86315a81a739ddadd8b3053c0816891940680b",
        "verify": "f423a8cc2bca6a4bde48348ebac98ad72c0a9fa97e33eb09695cfa01bc3953b5",
        "classify": "d6f7f16fbd6406ff53b7e7fa10bb83cad5eca14f53999bec004015e4d70dea9e",
        "heatmap": "61934dc8e82063811ce7ebdadd65dd0bdeed1f02af4e59ff0556b45eeae57d5b",
        "boundary": "c4a5a79d6682a2cdf54ff8f805e54e0497b8a9ca6b3cffbab527df7d641d0e1f",
        "classify_text": "dcb6ff00c072cad18daea93bb390d78212938ee103dbd466c84ed818ad4962b2",
    },
    "split_threshold_at_block": {
        "sweep": "7735632848af9d084635892174c2ac0cbf7ba06b8e8028462b551988d64c4df4",
        "verify": "b0d2266e49870a932067177c66bef2e31858c28168d174ab36d298c66d01a7ca",
        "classify": "3278fc68a97a171b32a63efc02972b7e8453a81b5cd246e527fcd4664662c2d2",
        "heatmap": "24459782e0dcbbb0cd6d7a5e9b32d34f22b435dac511c8e63941f25605367467",
        "boundary": "079882f84e06734323b7d47098275ce147483e2d1f05531523cc2a2f02269a84",
        "classify_text": "cdef8fb6c891e5833ee87424b91d78467def3f7bc2f92b76b3177c347afe2796",
    },
}


def _scenario_path(name, tmp_path):
    if name in SPLIT_WEIGHT_SCENARIOS:
        path = tmp_path / f"{name}.txt"
        write_scenario_file(
            scenario_gen.canonical_scenario(**SPLIT_WEIGHT_SCENARIOS[name]), path
        )
        return str(path)
    return bundled_scenario_path(name)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_outputs(name, tmp_path, capsys) -> dict[str, str]:
    scenario = _scenario_path(name, tmp_path)
    files = {
        mode: tmp_path / f"{name}_{mode}.out"
        for mode in ("sweep", "verify", "classify", "heatmap", "boundary")
    }
    for mode in ("sweep", "verify"):
        assert cli.main([mode, "--scenario", scenario, "--out", str(files[mode])]) == 0
    capsys.readouterr()
    assert cli.main(
        ["classify", "--scenario", scenario, "--out", str(files["classify"])]
    ) == 0
    # The first report line echoes the scenario path, which varies per run.
    report = capsys.readouterr().out.split("\n", 1)[1]
    assert cli.main(
        ["heatmap", "--scenario", scenario, "--out", str(files["heatmap"]),
         "--boundary-out", str(files["boundary"])]
    ) == 0
    hashes = {mode: _digest(path.read_bytes()) for mode, path in files.items()}
    hashes["classify_text"] = _digest(report.encode("utf-8"))
    return hashes


@pytest.mark.parametrize(
    "name",
    sorted(
        ["canonical", "misaligned_full_shift", "aligned_expanded_line",
         "aligned_costly_bus1", "aligned_clean_bus1"]
    )
    + sorted(SPLIT_WEIGHT_SCENARIOS),
)
def test_cli_outputs_match_golden_hashes(name, tmp_path, capsys):
    assert _cli_outputs(name, tmp_path, capsys) == GOLDEN[name]


#: ``heatmap`` away from its defaults: an odd resolution, and ranges that run
#: below the bus-1 base load and below zero, so the scan crosses every kind
#: of invalid cell.  Hashes of (cells, boundary), recorded like ``GOLDEN``.
OFF_DEFAULT_HEATMAP_ARGS = ["--f01-range=0.5:2.5", "--f12-range=-0.2:1.2", "--resolution", "37"]

GOLDEN_OFF_DEFAULT_HEATMAP = {
    "aligned_clean_bus1": (
        "292d048d695c021f6cb05e750c20df5f5099ef586affdea98446a6de902a57e5",
        "8651a5d94639d40bba0cd25df2b1be5738f9e6b6d12ef673ef8915c7d7f8bf19",
    ),
    "canonical": (
        "92ff740db9cfd1a17316e3f925f906f55843a5b69ee2782c6f3500e888bfea29",
        "774d7a90d5b39599b6ba816fa9cce0724695ae919c4bdce347c8e16adcd4834a",
    ),
    "split_classic": (
        "cade56563e30e837e68fd8ea739b198ed5175dbd789b20e17ceeb252ff28e3ba",
        "0ffce91c438a946eb846653dfad9c05163380517e6bcc8048a07b2bd951a25f2",
    ),
    "split_reverse": (
        "cfda8069e3405454d62c9e5afafb7c9b6d387032b3ce84c3c2b517c093d3deeb",
        "38291bd2b511d00e89c8cabdab76dc72589bcb6f0ea44afbc4fced543be08d67",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OFF_DEFAULT_HEATMAP))
def test_off_default_heatmap_matches_golden_hashes(name, tmp_path):
    cells, boundary = tmp_path / "heatmap.csv", tmp_path / "boundary.csv"
    assert cli.main(
        ["heatmap", "--scenario", _scenario_path(name, tmp_path), "--out", str(cells),
         "--boundary-out", str(boundary), *OFF_DEFAULT_HEATMAP_ARGS]
    ) == 0
    hashes = (_digest(cells.read_bytes()), _digest(boundary.read_bytes()))
    assert hashes == GOLDEN_OFF_DEFAULT_HEATMAP[name]


def test_main_reuses_the_module_parser(monkeypatch, tmp_path):
    """``main`` parses with the parser built once at import; runs in two
    modes through it still write the golden bytes."""

    def no_new_parser():
        raise AssertionError("main built a new argument parser")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    scenario = _scenario_path("canonical", tmp_path)
    for mode in ("sweep", "verify"):
        out = tmp_path / f"{mode}.out"
        assert cli.main([mode, "--scenario", scenario, "--out", str(out)]) == 0
        assert _digest(out.read_bytes()) == GOLDEN["canonical"][mode]
