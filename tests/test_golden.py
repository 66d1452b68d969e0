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
They were re-recorded for the block-keyed noise layout (path i is row
i mod BLOCK_PATHS of a block stream, jumps drawn per block) together with
the factored tangent step for Y.

Three digests were re-recorded after that when the normal CDF and quantile
moved from scipy's ndtr/ndtri to the standard library (math.erfc and
statistics.NormalDist.inv_cdf), which differ in the last bits:
`price_ou_discounted` (one ci_low, through z_{alpha/2}),
`experiment_bs_replications.csv` (interval ends, through z_{alpha/2})
and `experiment_bs_qq.csv` (the theoretical quantiles).  No number in
them moved by more than 8.9e-16; the bitstreams did not change, and every
other digest, the study's summary included, kept its value.

Then all 13 were re-recorded when the block streams moved from
Philox to SFC64: the Philox stream keyed by path_seed(root, block) now
only derives two SFC64 states per block, one for the Brownian increments
and one for the jumps, and every normal, count, time and size is drawn
from those.  The layout (rows of a block, draw order within it) did not
change, but every number drawn did, so every output moved, `estimate_bs`
(row 0 of block 0) included.  The statistical criteria and the exact-law
test of the stream (test_acceptance.py) pass at unchanged tolerances.

The five `experiment_bs_*` digests were re-recorded once more when the
study's replications moved onto one shared set of pricing paths: every
replication now prices from path index IDX_PRICING, where replication r
used to start at IDX_PRICING + r * 2**21.  The new files equal those of
the previous code with that one start index set to IDX_PRICING; the
other eight digests kept their values.

The three `price_*` digests were re-recorded once more when the `price`
JSON lost its "z_hat" key, which was always null: no command supplied the
true value it needed, and the study's Z (with C and I at theta0 in its
denominator) is the one normalised error.  Each new output parses to the
previous one without that key, every other value the same; the other ten
digests kept their values.
"""

import contextlib
import hashlib
import io
import json

from plugmc.cli import main

EPS = "0.04472135954999579"

GOLDEN = {
    "simulate_bs": "6a0b43dea127b6e64e69c6ae11455d265a83e0af9209270d263fbba5703b159f",
    "simulate_ou_jumps": "c77d4c4759a4b11956a9454c9f5931792084359f1257c5ebd45bfba228a84b05",
    "simulate_levy": "d94aa4934e421bd4a6502a61c631c912c2ae5db2162d311140b70e81cfed7cf6",
    "estimate_bs": "9c26bbbce4b502cead5e27598b1642c69a1f3ae4c424f2e6ddd8fdfcc6b43ab0",
    "price_bs_call": "1bc87bcbd8b9f0c5a119c01f40b768e9891f8b6914a98004cba4786409d6b19b",
    "price_bs_average_call": "eaf8b319560854ed1b392df91fc34c02a5b3afaa619043027900dd47a4b7ed0d",
    "price_ou_discounted": "d8db7db5959f905cd54daa938218403b51e10c7dab4b1378e683a590b6d02cfc",
    "experiment_bs_stdout": "4e0b5e147ae1b2a35629276664653a13df7a16c24ab1dad055698d0d22a99e88",
    "experiment_bs_replications.csv": "660562e990e89e827d44797c6cf2d2a9f8b6a426b0da8b743c05c46b5f58086a",
    "experiment_bs_summary.json": "4e0b5e147ae1b2a35629276664653a13df7a16c24ab1dad055698d0d22a99e88",
    "experiment_bs_qq.csv": "2e7ebfa19ce75f167a7b0e8de71a8913e95579c3b720587d575053585df8cf61",
    "experiment_bs_histogram.csv": "14412400dd43f1479dc5551aba269963fd822608d723c64ddaa4b62ad3c3681f",
    "experiment_ou_oracle": "2c196bc964a71880abf3571e041ded0d348e9a7f597f75accf7160100a088f2e",
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
                               "delta": 0.05}}
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
    changed = {name: digests[name] for name in sorted(GOLDEN) if digests[name] != GOLDEN[name]}
    # each changed case with its new digest, in GOLDEN's own form, so that an
    # intended re-record takes one run and its diff can be reviewed
    assert not changed, "outputs changed; their new digests:\n" + "\n".join(
        f'    "{name}": "{digest}",' for name, digest in changed.items()
    )
