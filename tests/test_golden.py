"""Golden outputs: SHA-256 digests of the CLI outputs pinned byte for byte.

Criterion 9 compares two runs of the same build; this test compares every
run against digests recorded once, so a refactor that claims to keep the
outputs byte-identical is held to it.  The cases cover each public route:
`simulate` for all three models (the ou case with jumps), `estimate` on a
bs CSV, `price` for a bs smoothed call, a bs smoothed average call, an ou
discounted integral and a levy terminal value, and `experiment` for a
small bs study (stdout plus its four files) and for the ou oracle.

The digests belong to one floating-point environment (numpy 2.x on
x86-64); a different libm or BLAS may legitimately change the last bits.
A change of the random bitstreams must re-record them once, on purpose.
"""

import contextlib
import hashlib
import io
import json

from plugmc.cli import main

EPS = "0.04472135954999579"

GOLDEN = {
    "simulate_bs": "558177b40c84880fbf53d2b7ece94012931dd14918c179685d6e757e17030ad3",
    "simulate_ou_jumps": "19647cdfa0c97a606056efec55a2b238bc83c3c5b9503b998358941e19d19878",
    "simulate_levy": "6cd61f5290b0a16c761ebc3e650be2cae290471cc741b8096250ff5cd0b313f6",
    "estimate_bs": "789a3e74e84ee45a611d3cc6a4c63afa3746483c895af9447ebbd2052494e101",
    "price_bs_call": "9cec76e973db75a55ed4c5351452a703c5b7fbdfa0c3a0a4006ea9d66aa3eda2",
    "price_bs_average_call": "ae73587bfcbe61e8b9d96252922263009142dabede657356060a9845b94cab4f",
    "price_ou_discounted": "86e87f424cc806a036fa848c5363272587609471ee7c89393dc17eb42ef63672",
    "price_levy_terminal": "8440f58136b5174b6230322f54cba1c6c6a05b58d0ac3649437e310930ebb0ac",
    "experiment_bs_stdout": "87ff4c8789655403ef00fc0b838859542c2bba6a74d565cfe4d98a59fedd7aba",
    "experiment_bs_replications.csv": "29c54eccd73e9ff142dde38896e648700263c6a7d088c3564ab2fe2feaf9e22d",
    "experiment_bs_summary.json": "87ff4c8789655403ef00fc0b838859542c2bba6a74d565cfe4d98a59fedd7aba",
    "experiment_bs_qq.csv": "63d15cf2c0ad454380f1b8d96191bca25cae6cc55037cf5beba64ca481cc2328",
    "experiment_bs_histogram.csv": "a2d92a4733f5483e4718f89bcf6af89959ccb2432901e09f17f160ba8a1724b0",
    "experiment_ou_oracle": "4d7e4761bc6d7d4a128a519eeb1ace30f7c528f736fab120008737c042cebcff",
}


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_json(path, cfg) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _outputs(tmp_path) -> dict:
    out = {}
    out["simulate_bs"] = _run(
        ["simulate", "--model", "bs", "--params", "0.2,1.0", "--epsilon", EPS,
         "--n", "50", "--seed", "5", "--paths", "3"]
    )
    out["simulate_ou_jumps"] = _run(
        ["simulate", "--model", "ou", "--params", "1.0,0.3,0.5",
         "--jump-intensity", "3.0", "--n", "50", "--seed", "1", "--paths", "3"]
    )
    out["simulate_levy"] = _run(
        ["simulate", "--model", "levy", "--params", "0.1,0.3,0.5", "--n", "50",
         "--seed", "2", "--paths", "3"]
    )

    obs = tmp_path / "obs.csv"
    obs.write_text(_run(
        ["simulate", "--model", "bs", "--params", "0.2,1.0", "--epsilon", EPS,
         "--n", "200", "--seed", "7", "--paths", "1"]
    ))
    out["estimate_bs"] = _run(["estimate", "--data", str(obs), "--epsilon", EPS])

    call = {"kind": "smoothed_call_terminal", "K": 0.75, "r": 0.05, "T": 1.0,
            "epsilon_smooth": 0.00075}
    bs_price = {"model": "bs", "params": [0.2, 1.0], "epsilon": float(EPS),
                "x0": 1.0, "B": 1000, "seed": 11, "n": 100, "functional": call}
    out["price_bs_call"] = _run(
        ["price", "--config", _write_json(tmp_path / "bs.json", bs_price)]
    )
    avg = dict(bs_price, functional=dict(call, kind="smoothed_call_average"))
    out["price_bs_average_call"] = _run(
        ["price", "--config", _write_json(tmp_path / "avg.json", avg)]
    )
    ou_price = {"model": "ou", "params": [1.0, 0.3, 0.5], "x0": 1.0,
                "jump": {"intensity": 1.0}, "B": 1000, "seed": 3, "n": 100,
                "functional": {"kind": "discounted_integral", "T": 1.0,
                               "delta": 0.05, "V": "identity"}}
    out["price_ou_discounted"] = _run(
        ["price", "--config", _write_json(tmp_path / "ou.json", ou_price)]
    )
    levy_price = {"model": "levy", "params": [0.1, 0.3, 0.5], "x0": 1.0,
                  "B": 1000, "seed": 4, "n": 100,
                  "functional": {"kind": "terminal", "T": 1.0}}
    out["price_levy_terminal"] = _run(
        ["price", "--config", _write_json(tmp_path / "levy.json", levy_price)]
    )

    study = {"kind": "bs", "theta0": [0.2, 1.0], "n_obs": 50,
             "n_paths_price": 1000, "n_paths_correction": 2000,
             "replications": 30, "root_seed": 2024}
    art = tmp_path / "artifacts"
    out["experiment_bs_stdout"] = _run(
        ["experiment", "--config", _write_json(tmp_path / "study.json", study),
         "--out", str(art)]
    )
    for name in ("replications.csv", "summary.json", "qq.csv", "histogram.csv"):
        out[f"experiment_bs_{name}"] = (art / name).read_text()

    oracle = {"kind": "ou_oracle", "theta0": [1.0, 0.3, 0.5],
              "n_paths_correction": 2000, "n_grid_price": 100, "root_seed": 5}
    out["experiment_ou_oracle"] = _run(
        ["experiment", "--config", _write_json(tmp_path / "oracle.json", oracle)]
    )
    return out


def test_cli_outputs_match_golden_digests(tmp_path):
    digests = {name: _digest(text) for name, text in _outputs(tmp_path).items()}
    assert set(digests) == set(GOLDEN)
    changed = sorted(name for name in GOLDEN if digests[name] != GOLDEN[name])
    assert not changed, f"outputs changed: {changed}"
