"""Byte pins for the outputs whose layout is fixed: the text and structured
reports of every bundled study in every mode, the per-point plot data, and
both reports of a small seeded study shaped like the benchmark's tall
workload (few large populations, scales pinned, all of them pooled).

The text and plot digests were taken before the structured report moved to
schema 2 and acceptance bands became derived from their source parameters,
so they guard both the derived endpoints and the text and plot renderers.
The structured digests were taken when the report moved to schema 4, which
stores only a run's inputs (mode, config, values and pins) and its
homogeneous groups.  Each document they pin is the schema 3 document pinned
before, with the version set to 4 and the case, fits, self-test outliers,
selected group, pooled test and warnings deleted; that was checked on every
document before the digests were replaced.  They guard every value, pin,
config field and group a run stores.
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
        "pipeline": "34cc9c74ab2a92cee34872dcafcf497ffd7a0379ec13f833e79e2fe0029d0ebf",
        "fit": "4a98e63cda05dffe128762c9f450deb1eee4d3be8dc49d9c9bccdc164d22edd3",
        "homogeneity": "66524b85738189567bef3ab6809dd87d7f7e4293814c182e24b0a1f65331a668",
        "common": "cacda628b6655a5ede128cbd3dbe0426fb250c300e7b7254ea6cc3b23c8ed97e",
    },
    "example2": {
        "pipeline": "5683f019a97789138cd0f1a35838274135cf2c992fa5e5c383e80514b905372f",
        "fit": "6a80a6f0e2398f939210a9eb648015e05ec064c2a7072b432b488c3cf59e3de1",
        "homogeneity": "827ab945e7fede91d7ebed4f989c3a963a27f2a8228bd59d68c3b00010e35574",
        "common": "8ee51cbecb6307cdafb5deeedb81d4c76eb3401bee8d3eedcac20b6e165fe178",
    },
    "example3": {
        "pipeline": "e95a942f26208c9286634312e0d173cb9e937407746d748dc4fcc1b995a1c3f5",
        "fit": "6619825f4fb6a854fd4b173ceceb91150a68797c38a012419bf1a577bc23d3bd",
        "homogeneity": "ea1c99647226450e59b44875f120209edd390c2ec3fea5abfe7f2ae0d7da76bd",
        "common": "23094d7744619e29f3eb547844ee11a65fa0c190d9c893438d781d6722f0c93d",
    },
    "toothmarks": {
        "pipeline": "6064a51d12653c9fcb8d5a89c3f52ddbe730e6b3c5825e0ceb74d3b1a4db7469",
        "fit": "4e741c55b670164db123206ab282cb05287e5b1986685968392964d814fe341e",
        "homogeneity": "71f242831c730619a1b9de0c818497c22384c0dfa19fd6b52a9547a8064cc314",
        "common": "812cdd091b5bf4c9afb774dd49ffee809933ec12f609880af4dbf40186b6b743",
    },
}

# format -> SHA-256 of the report of tall_shaped_study
TALL = {
    "structured": "532f6531105033b88a6bad6db1624d209a86bcc4faea2d3943f7e5c33e648d4f",
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
