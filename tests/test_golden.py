"""The byte contract: SHA-256 digests of every command's output on seeded
inputs.

A Gaussian dataset of 300 sequences, with lengths on both sides of the
kernels' 256-frame block (255/256/257, 511/512/513) and one length-1 row
that ``ingest`` drops, and a Poisson dataset of 80 sequences, are written as
JSONL. Each command runs twice over them, first with the ingest cache removed
before every command and then from the cache, and both runs must write the
pinned bytes: ``curve`` (CSV, SVG and
manifest) for all five detectors at 12 thresholds, ``evaluate`` at one
threshold, ``survival --kind arl/add`` and ``oracle`` at a fixed seed. The
integer first-alarm table of ``scan_table`` is pinned per detector on its
own: it is the part that does not depend on how the last bit of a log or an
exp is rounded.

A change that means to move bytes updates these digests and says which in
CHANGES.md. On a mismatch the message names the output, its first line that
differs between the two runs (or says they agree), the numpy version and the
CPU features numpy dispatches to, since float64 exp/log may round their last
bit differently on another CPU.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from qcdeval.cli import main
from qcdeval.detectors import DetectorConfig, LikelihoodModel, detector_levels, scan_table
from qcdeval.harness import ingest
from qcdeval.simulate import LabeledDataset, save_jsonl

GAUSS = "gaussian:0,0.5,1"
POISSON = "poisson:2,4"
WINDOW = ["--window-size", "10", "--burn-in", "10"]
DETECTORS = {
    "gsr": (["--detector", "gsr", "--model", GAUSS], "1:1e5:12-log"),
    "cusum": (["--detector", "cusum", "--model", GAUSS], "0.5:30:12-log"),
    "ewma": (["--detector", "ewma"], "0.5:5:12-log"),
    "window-l1": (["--detector", "window-l1", *WINDOW], "1:10:12-log"),
    "window-normal": (["--detector", "window-normal", *WINDOW], "1:10:12-log"),
    "gsr-poisson": (["--detector", "gsr", "--model", POISSON, "--omega", "1"], "1:1e5:12-log"),
}

PINNED = {
    "curve-gsr.csv": "a0705fc37b959456c7c53501a6daafe2ad62f00903087f3bac3a4261c353c01b",
    "curve-gsr.svg": "d749c3d7f662b9bf575adce92d9b0bff09fdefd26c2e3126aa587808478faa2f",
    "curve-gsr.csv.manifest.json": "45c24d9f9211be94c131fdc634e531a03d75e313b479474f61420f9778524b5d",
    "curve-cusum.csv": "533d81b23b8adb55108a906795bede7206c8d2309c0b34f421e6ba7ac4e082b8",
    "curve-cusum.svg": "9e63f09b4438758b523cdd3d2d14fd45c0d75150b297f91ce98f35be7c94332c",
    "curve-cusum.csv.manifest.json": "6fcfe326cc86bfe4a5b44be8952d60a21e847b4830092f19cbdfa37bfa4411a6",
    "curve-ewma.csv": "95b57e8cf42c3be61408f059d6c90788ac21b5220cfe41051940c4dfbf966aab",
    "curve-ewma.svg": "59a658529bc31fa4739863f8e18f7791cdd65ab33fb4d71c45b69339a60493a5",
    "curve-ewma.csv.manifest.json": "6aa5f65250d7846fc974b09b2dca58d9b47ae8a6aa07805627ad57503fae9cd5",
    "curve-window-l1.csv": "6dcdb5703e496f3403f93650d9db1f583704f2cf75eeb2c21b3bf743ed9d8d93",
    "curve-window-l1.svg": "1992deddb802f7f71d68f23237c8f1109585f4d0c1283c1f226c25900d22ab3d",
    "curve-window-l1.csv.manifest.json": "50322cdb718a83d129cb43c46cc0ecc6ae9325a2070eb9f7fd62a9a987d60623",
    "curve-window-normal.csv": "0ce17691dcde1be6ffc58e86601969827be73e91e3cd9edc48d52996c1d44977",
    "curve-window-normal.svg": "1286a9250c528abb4b095e98187579cccdad3ed6d76074260f1cabae25253eff",
    "curve-window-normal.csv.manifest.json": "d7aa8cfe1acb6f495a335f87257a808ced85302aea75dc9e124b876c19251185",
    "curve-gsr-poisson.csv": "2ecf889d334a01fc85f3b283446dc4996ae1c5ea648a178534b0eefe09207bf2",
    "curve-gsr-poisson.svg": "5eb469c3ce6cbb6864ae85b85371362ac48e87d058d22f62b2befaa1def1e0c2",
    "curve-gsr-poisson.csv.manifest.json": "656f4ee832a2933cef54a65c5185754aed49b5a446eb17851efd876820eb9363",
    "evaluate.json": "3849ce391fda6dc4f2baf3bea5def19da3030316f8b77d6aec5f9f66b3389c27",
    "evaluate.json.manifest.json": "410190042207b9108be3da122c9b0e318c3dd6945b4df93aee5d9a4e19cff392",
    "survival-arl.csv": "15726afa4b0df0fc3a9c0b80b10b372a4b07162e93382538429bdd85aa999c13",
    "survival-arl.csv.manifest.json": "5643814d714b23b1965a13f1a75e52613ebe72034954ed1ae9eec2fdd0cdfefa",
    "survival-add.csv": "ce4feccfd8345d6a13272fe77f4ed641680c349805d7543368d9fba59573b646",
    "survival-add.csv.manifest.json": "8409544d402dfb58f7ca59a92cb68cedcdae8fb902ef09cc6aa2afc3571a13db",
    "oracle.json": "ca25faaedf0e0bc48cc836e49111d54532f12a91b369c9dd5a5446c21316c09c",
    "oracle.json.manifest.json": "bb4c3181bc641a58c854b044775612b91d37e3a02c3d7fcd38456b41f209e73b",
    "scan-gsr": "e7cec999e6e8a461052cc02538d70f20cc6228550e6e19880d5a54f9f168da6b",
    "scan-cusum": "728fa2f1ff86dfbd72d2f27ea426b6556c0e17d5591ebe0451f7375a72f79ff0",
    "scan-ewma": "0ddc3629e7a96f9f9076be12caee947fdf4aeb5c0d2e7d75f86ef85ec192e59a",
    "scan-window-l1": "632b583d09bccf32f0a684475c8ff81eced7e4750eedb2d3dfbea77e7a4e0bac",
    "scan-window-normal": "5b8f0730ec3299f7c94aa50710838a0625af216dd945ed4a4d4e41a9bee4a70e",
    "scan-gsr-poisson": "461d039006aa06269f0a90ac599091d0046fe0088eba7a398d8b971423bb5288",
}


def _gauss_dataset():
    rng = np.random.default_rng(20261019)
    lengths = [255, 256, 257, 511, 512, 513] * 10 + rng.integers(30, 301, 239).tolist() + [1]
    ids, values, nus = [], [], []
    for i, n in enumerate(lengths):
        nu = float(rng.integers(0, n)) if n > 1 and rng.random() < 0.7 else np.inf
        x = rng.normal(0.0, 1.0, n)
        if nu < n:
            x[int(nu):] += 0.5
        ids.append(f"g{i:03d}")
        values.append(x)
        nus.append(nu)
    return LabeledDataset.from_sequences(ids, values, nus)


def _poisson_dataset():
    rng = np.random.default_rng(19102026)
    ids, values, nus = [], [], []
    for i in range(80):
        n = int(rng.integers(30, 300)) if i % 8 else 257
        nu = float(rng.integers(0, n)) if rng.random() < 0.7 else np.inf
        x = rng.poisson(2.0, n).astype(np.float64)
        if nu < n:
            x[int(nu):] = rng.poisson(4.0, n - int(nu))
        ids.append(f"p{i:02d}")
        values.append(x)
        nus.append(nu)
    return LabeledDataset.from_sequences(ids, values, nus)


def _run(argv, cold):
    if cold and "--data" in argv:  # parse the data file again, not its sidecar
        for sidecar in Path(argv[argv.index("--data") + 1]).parent.glob(".*.qcdeval-cache.npz"):
            sidecar.unlink()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


def _outputs(folder, gauss, poisson, cold) -> dict:
    """Every pinned command's output bytes, by output name."""
    out = {}
    for name, (flags, grid) in DETECTORS.items():
        data = poisson if name.endswith("poisson") else gauss
        csv_path = folder / f"curve-{name}.csv"
        _run(["curve", "--data", str(data), *flags, "--thresholds", grid,
              "--out", str(csv_path), "--svg", str(folder / f"curve-{name}.svg")], cold)
    gsr = DETECTORS["gsr"][0]
    _run(["evaluate", "--data", str(gauss), *gsr, "--threshold", "100",
          "--out", str(folder / "evaluate.json")], cold)
    for kind in ("arl", "add"):
        _run(["survival", "--data", str(gauss), *gsr, "--threshold", "100", "--kind", kind,
              "--out", str(folder / f"survival-{kind}.csv")], cold)
    _run(["oracle", *gsr, "--threshold", "20", "--reps", "200", "--horizon-cap", "5000",
          "--seed", "7", "--out", str(folder / "oracle.json")], cold)
    for path in folder.iterdir():
        out[path.name] = path.read_bytes()
    return out


def _scan_tables(gauss, poisson) -> dict:
    out = {}
    for name, (flags, grid) in DETECTORS.items():
        data = ingest(poisson if name.endswith("poisson") else gauss)
        opts = dict(zip(flags[::2], flags[1::2]))
        model = opts.get("--model")
        if model is not None:
            kind, params = model.split(":")
            p = [float(v) for v in params.split(",")]
            model = (LikelihoodModel(kind="gaussian", mu0=p[0], mu1=p[1], var=p[2])
                     if kind == "gaussian" else LikelihoodModel(kind="poisson", lam0=p[0], lam1=p[1]))
        config = DetectorConfig(
            kind=opts["--detector"], threshold=None, model=model,
            omega=float(opts.get("--omega", 0.0)),
            window_size=int(opts.get("--window-size", 30)),
            burn_in=int(opts.get("--burn-in", 30)))
        lo, hi, num = grid.split(":")
        thresholds = np.geomspace(float(lo), float(hi), int(num.split("-")[0]))
        table = scan_table(data, config, detector_levels(config, thresholds))
        out[f"scan-{name}"] = table.astype("<i8").tobytes()
    return out


def _first_difference(a: bytes, b: bytes) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {i}: {x!r} vs {y!r}"
    if a != b:
        return "one run's output is a prefix of the other's"
    return "the two runs agree"


def _platform() -> str:
    from numpy._core._multiarray_umath import __cpu_features__

    features = ",".join(k for k, on in __cpu_features__.items() if on)
    return f"numpy {np.__version__}; CPU features {features}"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    gauss, poisson = root / "gauss.jsonl", root / "poisson.jsonl"
    save_jsonl(_gauss_dataset(), gauss)
    save_jsonl(_poisson_dataset(), poisson)
    results = []
    for run in ("cold", "warm"):
        folder = root / run
        folder.mkdir()
        outputs = _outputs(folder, gauss, poisson, cold=run == "cold")
        results.append({**outputs, **_scan_tables(gauss, poisson)})
    return results


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(runs, name):
    cold, warm = (r[name] for r in runs)
    got = [hashlib.sha256(b).hexdigest() for b in (cold, warm)]
    assert got == [PINNED[name]] * 2, (
        f"{name}: digests {got}, pinned {PINNED[name]}; "
        f"{_first_difference(cold, warm)}; {_platform()}"
    )


def test_every_output_is_pinned(runs):
    assert sorted(runs[0]) == sorted(PINNED)
