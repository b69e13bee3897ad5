"""Byte pins for the outputs whose layout is fixed: the text and structured
reports of every bundled study in every mode, the per-point plot data, and
both reports of a small seeded study shaped like the benchmark's tall
workload (few large populations, scales pinned, all of them pooled).

The text and plot digests were taken before the structured report moved to
schema 2 and acceptance bands became derived from their source parameters,
so they guard both the derived endpoints and the text and plot renderers.
The structured digests were taken before ingest was streamed and merged
samples kept only their part sizes, so they guard every value, fit and
outlier position a run stores.
"""

import csv
import hashlib
import json
import math
import random

import pytest

import uncstat as u
from uncstat.cli import main

# study -> mode -> SHA-256 of the text report
TEXT = {
    "example1": {
        "pipeline": "f9d1355bdf0a5301a6e95ae05ba5e3f7541fd645ba6e9f80fa923ac6bb3841b3",
        "fit": "5b5844d2bac4c10e74186be8de7c35ab49015cc0745dedd64a8fd633ecb5ec1c",
        "homogeneity": "7dc6e4596c39a1dfce61a7db70ad7bea5b9537afb57a11c399e1139ca72f8945",
        "common": "50c294fe9ce7af12184d9e58ef846642ad1ac213e1122768e0cfad20447e1030",
    },
    "example2": {
        "pipeline": "b3491dc4c957ef3aa5807467fd69882ebb69e194575b099804d1249e0e6656c7",
        "fit": "87fcddd4b1c4b10c18ba7146e7225727b03d6290401e24df762c166332929263",
        "homogeneity": "0b0f1361fd7692bf6184af08331e15574bd7fb60d8d106585e84b4c85e1e5041",
        "common": "683bdc16c877815fff933500da5c8947b9f23610c15d3cdd476e6d5b1ccb4253",
    },
    "example3": {
        "pipeline": "bbb7cd81ff29a075cd54d99fdfbabdd7a763698b2344987b0228f4aa84ec0fc2",
        "fit": "b45e58ce82daa25fcb1a426bd317ee25111303c6915fdf80e3ea17327e399f6d",
        "homogeneity": "e6bfb7dfb293d562b90fb747e238a2ff885fe828be92498045b725d52a8d47dd",
        "common": "9472c652ba7917e54a2ce9c05e698f66c9eee8fb09f71c49c681d71fceb90728",
    },
    "toothmarks": {
        "pipeline": "6d0156113e54697e5c168024d9b136a5571f1931c0b9e59b542dbaa10264f3b2",
        "fit": "6a4b3841a95bcaee9dfa57869a82a68a9a37340a8c6d0937966d8202a143a19b",
        "homogeneity": "ef79599d763efba23a4f681f97098aa063af78ca83c59903060fd866ee1cfed7",
        "common": "9e7fc7dde63911974f875974c4692923f199b7e9d0120a86d031d4fed6eecf47",
    },
}

# study -> SHA-256 of the plot data, which does not depend on the mode
PLOT = {
    "example1": "3400bf4589e3cfa4d6c83fdf30b22bb7bdf9a3080b35f71b6b4a5269e4b655cc",
    "example2": "80a16f6ddbd784283168b4e5f9a54b9f1ba516da1b5374653402607930a8d394",
    "example3": "eed0e7eaf64d347f363fe9457f18a96c7bd7b79fad62bd1b88e4fb7d04cb72c2",
    "toothmarks": "6ea5f0c104eed8cb6e15e40629ec021e0339f6ec0c332b583d1b76055813a698",
}


# study -> mode -> SHA-256 of the structured report
STRUCTURED = {
    "example1": {
        "pipeline": "4cb1390397f1275d619b46ee32c82d929326200e3d0e12725f067a0a3a8c9701",
        "fit": "582a11ffe8c4057cc9b3a2a34031a56184883eac7482457c8f576a31efad9636",
        "homogeneity": "e14db06215f5c19a9fefe3821062fd3f93f8c3b2b1fc536e1c513547646a2925",
        "common": "055807e09ffca6d8567296ee57b5aa70243c7179c87d016e58c7ff5e348dfa17",
    },
    "example2": {
        "pipeline": "e45e36821b0bd583186d366a2701b8d81e91afa6364f543a98b7a76411d2d94a",
        "fit": "5fa0190537e3401cb7e1c08dd4c4407d18c351e6bfc08139e6249c09b6ed2d43",
        "homogeneity": "9840bcbde408cd46ea020564b793b0ecde25eb239ac9a9ce8846cc535d281057",
        "common": "c4637732c315478516318bbdfccb2f42d0ba7a9fd8ea0cc1b9a222df817c4b34",
    },
    "example3": {
        "pipeline": "5921bd2dadbf674b6dd85e31b909b0ae37d915b6ec50936fb3f20f88eebd4e4f",
        "fit": "0856590a3e13fd800d6fdd0f43bf35f2c4e2e307caa3f8b1e4b34ae5a2d4e3a1",
        "homogeneity": "d5646fdf8bcb004753adaee871a1ba5b76a7f26c0991d0e7022b787baddcb200",
        "common": "a15bd3187eb1d1f0e7dbacc199753574057cfeaff734fd90f6374f9f542e6825",
    },
    "toothmarks": {
        "pipeline": "fbb9f2cf141a1c086578ae7c16d234b12e7c372866d0f5cbe485b5d72a901637",
        "fit": "fc0644477421b0b5d44a24568a11ae28b2746773d32d818ef49551df08256cc2",
        "homogeneity": "b6969ae46b739df1d47c0f57d3cf20c9bf3326cd9da7415285574c95311d1f26",
        "common": "5d2b0f53f287f0f8372e42768f32384eb52efb6830d710bd353e2b5136a98413",
    },
}

# format -> SHA-256 of the report of tall_shaped_study
TALL = {
    "structured": "6828e78a3a151a646a5474b404bdcd1ba7a767e56980ad4690f0dc759f1ccb96",
    "text": "bb6c5dd38cb8302ec7216f98ec0dec1639e25de6974c9d61d2f3b16faf51fb84",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", ["pipeline", "fit", "homogeneity", "common"])
@pytest.mark.parametrize("study", sorted(TEXT))
def test_text_and_plot_bytes(study, mode, tmp_path):
    data, config = u.dataset_paths(study)
    text, plot = tmp_path / "report.txt", tmp_path / "plot.csv"
    argv = ["--data", str(data), "--config", str(config), "--mode", mode,
            "--report", str(text), "--plot-data", str(plot)]
    assert main(argv) == 0
    assert sha256(text) == TEXT[study][mode]
    assert sha256(plot) == PLOT[study]


@pytest.mark.parametrize("mode", ["pipeline", "fit", "homogeneity", "common"])
@pytest.mark.parametrize("study", sorted(STRUCTURED))
def test_structured_bytes(study, mode, tmp_path):
    data, config = u.dataset_paths(study)
    report = tmp_path / "report.json"
    argv = ["--data", str(data), "--config", str(config), "--mode", mode,
            "--format", "structured", "--report", str(report)]
    assert main(argv) == 0
    assert sha256(report) == STRUCTURED[study][mode]


def tall_shaped_study(directory, n=3, m=500, seed=20240611):
    """Write ``n`` populations of ``m`` draws, every scale pinned and every
    population selected for pooling; returns the data and config paths."""
    rng = random.Random(seed)
    data, config = directory / "tall.csv", directory / "tall.json"
    populations = []
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["population", "value"])
        for i in range(n):
            pid, sigma = f"t{i}", 0.5 + 0.3 * i
            e = 10.0 + rng.gauss(0.0, 0.02)
            for _ in range(m):
                p = rng.random() or 0.5
                # inverse belief function of the distribution (e, sigma)
                z = e + sigma * math.sqrt(3.0) / math.pi * math.log(p / (1.0 - p))
                writer.writerow([pid, repr(z)])
            populations.append({"id": pid, "known_sigma": sigma})
    group = [p["id"] for p in populations]
    config.write_text(json.dumps({"alpha": 0.05, "populations": populations,
                                  "group_selection": group}), encoding="utf-8")
    return data, config


@pytest.mark.parametrize("format", sorted(TALL))
def test_tall_shaped_study_bytes(format, tmp_path):
    data, config = tall_shaped_study(tmp_path)
    report = tmp_path / "report"
    argv = ["--data", str(data), "--config", str(config),
            "--format", format, "--report", str(report)]
    assert main(argv) == 0
    assert sha256(report) == TALL[format]
