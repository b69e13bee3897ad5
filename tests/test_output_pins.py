"""Byte pins for the outputs whose layout is fixed: the text report of every
bundled study in every mode, and the per-point plot data.

The digests were taken before the structured report moved to schema 2 and
acceptance bands became derived from their source parameters, so they guard
both the derived endpoints and the text and plot renderers.
"""

import hashlib

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
