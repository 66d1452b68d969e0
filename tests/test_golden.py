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

Twelve digests were re-recorded once more when the built-in models moved
to the affine step from their linear tables (simulate's module
docstring): X_{k+1} = X_k g_k + alpha dt + gamma dW_k rounds differently
from (X_k + a dt) + b dW_k - comp dt, and the tangent rows lose the
compensator terms that cancelled.  The noise did not change.  Every
number moved by at most 1.5e-12 relative, most by a few 1e-14 (the
largest in the oracle's C_minus_grad, a difference of nearly equal
values).  `experiment_bs_histogram.csv` kept its bytes: no z_hat crossed
a bin edge.

Six bs digests were re-recorded once more when bs moved to the product
form (simulate's module docstring): X is the same running product, so
it kept its bits, but Y is now X times sums of 1/g_k and dW_k/g_k
instead of the recursion Y g_k + X_k (beta dt + delta dW_k).  The
changed outputs are `simulate_bs` (its Y columns), `price_bs_call`,
`price_bs_average_call` and three `experiment_bs_*` files: stdout,
`summary.json` and `replications.csv`.  No number in them moved by more
than 3.4e-14 relative or 6.7e-16 absolute.  `estimate_bs` reads only X
and kept its bytes, as did `experiment_bs_qq.csv`,
`experiment_bs_histogram.csv` and every ou and levy case.

The four ou and levy digests were re-recorded once more when those
tables moved from the affine recursion to weighted sums of the
increments (simulate's module docstring): X_T = g^n x0 + sum_i
g^(n-1-i) h_i rounds differently from stepping X_k g + h_k, and so do
the recorded rows, the same sums in blocks of 32 steps.  The changed
outputs are `simulate_ou_jumps`, `simulate_levy`, `price_ou_discounted`
and `experiment_ou_oracle`; the noise did not change.  No number moved
by more than 5.7e-15 relative, but for two entries of the oracle's
C_minus_grad, differences of nearly equal values, at 4.1e-14 and
2.9e-13.  Every bs digest kept its bytes.
"""

import contextlib
import hashlib
import io
import json

from plugmc.cli import main

EPS = "0.04472135954999579"

GOLDEN = {
    "simulate_bs": "af6a1f5cb2793072ec751e90c9230b45db42fab0143b0a937eaeb8537b857cb8",
    "simulate_ou_jumps": "6a6a5bac6e95b89daf0dc3f77d8be3f2eb09f6dde1133adfac232767e0328af1",
    "simulate_levy": "976004731a0c29a02edcd5383926268fa3b8738ef7034051268c62d5c22caacf",
    "estimate_bs": "090f7cbb83a3306e4cebcb1ff342085cd9604834fde918aa34f5746dffbd0cc4",
    "price_bs_call": "9af16d5f584eaf1f173057f5eff83fee9445978bead3f6192d40acb2497d6e2b",
    "price_bs_average_call": "6fc044cb677da177a65f9cbfc3191e3f688cf3f0e4d4cd94fe71297a5903a627",
    "price_ou_discounted": "db4870af6118d44192e8b7d975f748cc5588b0192860ff52e9bafb0b8b8dcb47",
    "experiment_bs_stdout": "6a5e87f2c160720085143a4783b4c32cc8b8791a27aa71f625a8be5d4b314fa8",
    "experiment_bs_replications.csv": "6abcd982b3a75616221e4251088701af71dcb22b1296d7040c60c24808d229fb",
    "experiment_bs_summary.json": "6a5e87f2c160720085143a4783b4c32cc8b8791a27aa71f625a8be5d4b314fa8",
    "experiment_bs_qq.csv": "7a77da3fe6b33ff04e97aab032310367a6837b6074fa60900c17edd9f200565f",
    "experiment_bs_histogram.csv": "14412400dd43f1479dc5551aba269963fd822608d723c64ddaa4b62ad3c3681f",
    "experiment_ou_oracle": "b3b8f6d9bc145541eff2f07caaa3e8a6f43935da8e2ef767447d1a44ee54c878",
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
