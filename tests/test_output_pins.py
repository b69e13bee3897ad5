"""Byte pins for the outputs whose layout is fixed: the text and structured
reports of every bundled study in every mode, the per-point plot data, and
both reports of a small seeded study shaped like the benchmark's tall
workload (few large populations, scales pinned, all of them pooled).

The text and plot digests were taken before the structured report moved to
schema 2 and acceptance bands became derived from their source parameters,
so they guard both the derived endpoints and the text and plot renderers.
The structured digests were taken when the report moved to schema 5, which
stores a run's inputs (mode, config, values) and its homogeneous groups,
with each population's pins only in the config.  Each document they pin
was derived from the schema 4 document of the same run: the version set to
5, `known_e` and `known_sigma` deleted from every population entry, and
`config.populations` reduced to the populations that pin a parameter, in
sample order.  A script built each expected document that way from the
previous code's output and compared it byte for byte with the new output,
for all sixteen bundled documents and the tall-shaped study, before the
digests were replaced.  They guard every value, pin, config field and
group a run stores.
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
        "pipeline": "c4a9224510b43a1461f06fc08257f628299d000be80ef7dec8204fa555ded1c0",
        "fit": "ce35914b54856d7b76f4bb2916ba019d0b49c70a0c11b7bd173401677300f03b",
        "homogeneity": "26948c04681c0164324ece6c990af95ce3a4df91c1770927faeaf9105c5f2d1e",
        "common": "1ca7dfcadadf2c8dda2f3801b647ae7dc6c5d2cc2cde577d64d22828d5b1281e",
    },
    "example2": {
        "pipeline": "ea78643b5fb811c22c08e4ddebc1873dc9a681a087c6f336ff3ea43425124cf8",
        "fit": "9509ccd5b3eb2efabe459a01b5747a6ee5b266777f53e1c6c8a43308b03a3c4a",
        "homogeneity": "66fc596445a9a8856c64bedbd8a2e6a52ede6ac9dbba09d081a8c8afb6f2d484",
        "common": "e580b6b660f4042db9466da8db34e6cc113c810de294f598f5a6ee2045901deb",
    },
    "example3": {
        "pipeline": "11d4030230d346337431ed5af1ff6043baeb8bd06225f321d0d44fa001b2d936",
        "fit": "2f78fe5719c17c055bbdc08fbb778ed3316d4eca5d8e7762d552ffcb9a7aa503",
        "homogeneity": "664d77f62eb144a5c8bd9bae697bca0547d050a54efd5401fb6a96c598c27778",
        "common": "fbe38c5a921eae4de51a2be5d0899e16108559159ad9c877db7a4de9478874a1",
    },
    "toothmarks": {
        "pipeline": "a03caeec4be6959c97f0111a3fb95d05d16db19db7fa097baf3bf6c6d4264c4d",
        "fit": "018d118b9e9fb28c2393a4be8263a5feb20f0c9a3cf5d6eed5b8f02eb2a60695",
        "homogeneity": "0d4306f4570ad6e4700a1ccc33ca8072667f7ec91eac2ef5e469ff6e6ac05517",
        "common": "7fab78c2eb39fd71e28b4f7d6e830216705f4ab1f7796fcc798cc6b3dc7c02df",
    },
}

# format -> SHA-256 of the report of tall_shaped_study
TALL = {
    "structured": "6ac878156adc35436345420a1965d491c639d05a9ce5e8f02d2a115eafdbaf58",
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
