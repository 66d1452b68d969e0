"""Golden outputs: SHA-256 digests of the CLI outputs pinned byte for byte.

Criterion 9 compares two runs of the same build; this test compares every
run against digests recorded once, so a refactor that claims to keep the
outputs byte-identical is held to it.  The cases cover each public route:
`simulate` for all three models (the ou case with jumps), `estimate` on a
bs CSV, `price` for a bs smoothed call, a bs smoothed average call and an
ou discounted integral, and `experiment` for a small bs study (stdout plus
its four files) and for the ou oracle.  `price` on the levy model is
pinned to its error: mu and eta enter the drift identically, so its
information matrix is singular.

The digests belong to one floating-point environment (numpy 2.x on
x86-64); a different libm or BLAS may legitimately change the last bits.
A change of the random bitstreams must re-record them once, on purpose.
They were last re-recorded for the block-keyed noise layout (path i is
row i mod BLOCK_PATHS of a Philox block stream, jumps drawn per block)
together with the factored tangent step for Y.  `estimate_bs` kept its
digest: it reads only X of path 0, which is row 0 of block 0 and draws
the same normals as before.

Three digests were re-recorded once more when the normal CDF and quantile
moved from scipy's ndtr/ndtri to the standard library (math.erfc and
statistics.NormalDist.inv_cdf), which differ in the last bits:
`price_ou_discounted` (one ci_low, through z_{alpha/2}),
`experiment_bs_replications.csv` (interval ends, through z_{alpha/2})
and `experiment_bs_qq.csv` (the theoretical quantiles).  No number in
them moved by more than 8.9e-16; the bitstreams are unchanged and every
other digest, the study's summary included, kept its value.
"""

import contextlib
import hashlib
import io
import json

from plugmc.cli import main

EPS = "0.04472135954999579"

GOLDEN = {
    "simulate_bs": "d9f3f866e37eeb71012891153e151a36bf50c589efa11f4d686ca51fb580a42f",
    "simulate_ou_jumps": "f54e933393f812ed15aec5ea3ba53d3b58a3b64d5880f2fa5de4829668f0892e",
    "simulate_levy": "94ae01ba2a53a023589f120ba63a1c92a5383e3e94ed81e0155a76e42d709eee",
    "estimate_bs": "789a3e74e84ee45a611d3cc6a4c63afa3746483c895af9447ebbd2052494e101",
    "price_bs_call": "a33ea553440a5e606475bcb18b97545be05cc075783733b33c6d98aa8fca714e",
    "price_bs_average_call": "1dc6ec3bba34022a008e667641d70b7798d3d0d5ba2a0bc9ae52ee09abc05b16",
    "price_ou_discounted": "f479060643d259dafc0c1eacd2ca3e0ba7ec906528f83d1c3b8b1defd080f1cf",
    "experiment_bs_stdout": "ab5936b6049f778b888ed111bb1a85b28c890bfc7da43e64150e8efc1f12f7c5",
    "experiment_bs_replications.csv": "296cd71469fc45253c7632a09af051152d40d098a1f42fc5517ea11c6f9aeb91",
    "experiment_bs_summary.json": "ab5936b6049f778b888ed111bb1a85b28c890bfc7da43e64150e8efc1f12f7c5",
    "experiment_bs_qq.csv": "8e770737abd42ac2845218a31565ecea4e17d4db9676a2d7da49ac0f46701a47",
    "experiment_bs_histogram.csv": "707a7463302fdd86abd41c2c238f6440c002b50ff9af2e24f39648f45fd95a7b",
    "experiment_ou_oracle": "62b092a6aa056c9506e47f3dd091e739fab7ce8d4aac8659c214d4493a9b5ee3",
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
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["price", "--config", _write_json(tmp_path / "levy.json", levy_price)])
    assert code == 2
    assert err.getvalue() == (
        "plugmc price: error: levy: singular information matrix, "
        "parameter(s) mu, eta not identified\n"
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
