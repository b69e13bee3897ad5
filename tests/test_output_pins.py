"""Byte pins for the outputs whose layout is fixed: the text and structured
reports of every bundled study in every mode, the per-point plot data, and
both reports of a small seeded study shaped like the benchmark's tall
workload (few large populations, scales pinned, all of them pooled).

The text and plot digests were taken before the structured report moved to
schema 2 and acceptance bands became derived from their source parameters,
so they guard both the derived endpoints and the text and plot renderers.
The structured digests were taken when the report moved to schema 7, which
stores a run's inputs (mode, config, values) and nothing else, with each
population's pins only in the config, and no setting that the pins decide.
Each document they pin was derived from the schema 6 document of the same
run: the version set to 7 and the config keys `case` and `common_case`
(both always "auto" in the bundled studies) deleted.  A script built each
expected document that way from the previous code's output, re-serialised
with the same separators, and compared it byte for byte with the new
output, for all sixteen bundled documents and the tall-shaped study, before
the digests were replaced.  It also checked that the previous code's
documents still matched the previous digests.  Schema 6 was pinned the same
way, from schema 5 with the `homogeneity` key deleted.  They guard every
value, pin and config field a run stores.
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
        "pipeline": "a90aaeb761f1f7bd1f71b44979fc70dfa25ce0acf9a7c64dc89cf97a76e660f8",
        "fit": "d591943d9fc1bd9d5e7db10b3904945ab80d52b97eb001ba00ab6c6f1de88ae2",
        "homogeneity": "470342e2b6086aca2d62dacdf96bd546d99ff7a6edc517dcb55ecd94ba3f2e1d",
        "common": "987c7ed46ab933b1bceadcd6836c98764370034b064008556427c0194aae59c8",
    },
    "example2": {
        "pipeline": "34f0ac74e033462fd10c8f250557bd51541748ab7d6f926e3e0cb4a28a1f383a",
        "fit": "bde2c3a2e19a101d3749f65afa82aef1bee7a75531c071adc7e1cc32d20079ed",
        "homogeneity": "94b14ddfc2933773553319f7383bb492e26b7ca2cb1797c21ab20368ddf4ce19",
        "common": "9da5419501ad4cc8f4950b7cb38b02da30cc5854d5a3680d1b8ef88528072408",
    },
    "example3": {
        "pipeline": "3c601a1d9d4c3c3d39ab8b8869315823a3d41c215e4d9cc08fd6928ee0a7a543",
        "fit": "2f77945dc022802d388378fb4cc2971851bd1b8441b895bfafec24debb1a1c3b",
        "homogeneity": "e68e2e43ca921f0ec7f9c6391593b901b94e48b3b325e42979a5454a52dc1aa7",
        "common": "d2955666a7220a9611a48037f451041ecb15d0a865e7715524d4c3ec67d9119c",
    },
    "toothmarks": {
        "pipeline": "0434bc7c0d156cca417c8bf1854f87aa4f3e8758d1dd850f9f5e952fbaf18339",
        "fit": "899be74c1e2c1a2bbcbccbef3c3b6c4218ae79440359dc944a1439c1df0b37cc",
        "homogeneity": "078e81e399784a40dc22a43503dd7210d3369e64c5f4a409ad8b9c4317223a5a",
        "common": "78efa6fcf6c008d72cc3acc6e0fe71a7f2c6aca97fcb721937478c4ee32a5da2",
    },
}

# format -> SHA-256 of the report of tall_shaped_study
TALL = {
    "structured": "2593ee4e9fa2b2b9539886448a89aa46fca422e0ef78a20313949ba8fbc388be",
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
