"""Parametric one-dimensional jump-diffusion models.

A model supplies the coefficients of

    dX_t = a(X_t, theta) dt + b(X_t, theta) dW_t
           + integral of c(X_{t-}, z, theta) against the compensated
             Poisson random measure of a compound-Poisson jump process,

together with their x- and theta-derivatives and the jump law, through two
vectorised callables:

    coefficients(x, theta) -> (a, b, a_x, b_x, a_theta, b_theta)
                              [+ (comp, comp_x, comp_theta) with jumps]
    jump_kernel(x, z, theta) -> (c, c_x, c_theta), None without jumps

The derivatives are what the sensitivity process Y = dX/dtheta needs: Y
solves the linear SDE with coefficients a_x Y + a_theta, b_x Y + b_theta
and c_x Y + c_theta, so one call per step advances both X and Y.
Derivatives are supplied in closed form, not produced by automatic
differentiation; every built-in model has them, and finite differences
exist only as test oracles.

Values and x-derivatives are scalars or arrays shaped like x.  A
theta-gradient is a length-p tuple whose entries are scalars or arrays
shaped like x; constant entries stay scalars and broadcast, so nothing is
stacked per call.

Jump kernels are interpreted against the *compensated* measure, so the
drift `a` must already include any compensator contribution.  The exact
compensator comp(x, theta) = integral of c(x, z, theta) against the Levy
measure is returned in closed form, so the simulator never integrates the
jump law at runtime.

The built-in models are affine in x and linear in theta.  Each is one
LinearTable, a column per parameter holding its part in the drift, the
diffusion and the jump size; its coefficients and jump_kernel come from
the table, so the two cannot disagree, and the simulator steps it from
the table itself.  A user model has no table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray

__all__ = [
    "JumpSpec",
    "NO_JUMPS",
    "JumpDiffusionModel",
    "LinearTable",
    "ValidationReport",
    "bs_small_noise_model",
    "ou_jump_model",
    "levy_model",
    "validate_model",
    "default_probe_grid",
]

# Names of the entries of coefficients(...) and jump_kernel(...), in order;
# validation errors use them.
COEFFICIENT_NAMES = (
    "drift",
    "diffusion",
    "drift_dx",
    "diffusion_dx",
    "drift_dtheta",
    "diffusion_dtheta",
    "compensator",
    "compensator_dx",
    "compensator_dtheta",
)
JUMP_NAMES = ("jump_kernel", "jump_dx", "jump_dtheta")

# Standard deviation of the ou model's centred jump sizes
OU_JUMP_SD = 0.25

# The largest mean numpy's Generator.poisson accepts ("lam value too large")
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _require_finite(name: str, value: float) -> None:
    """Raise a ValueError naming a constant that is inf or NaN.

    Such a constant would pass the sign checks and only surface later as
    a blow-up of every path, or as an error from inside the noise draw.
    """
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class JumpSpec:
    """Compound-Poisson jump specification with a known law.

    intensity : jumps per unit time (lambda >= 0)
    sampler   : draws `count` jump sizes from a numpy Generator; None only
                for the no-jump spec
    """

    intensity: float
    sampler: Callable[[np.random.Generator, int], Array] | None = None

    def __post_init__(self):
        _require_finite("jump intensity", self.intensity)
        if self.intensity < 0:
            raise ValueError(f"jump intensity must be >= 0, got {self.intensity}")
        if self.intensity > 0 and self.sampler is None:
            raise ValueError("positive jump intensity requires a size sampler")

    def poisson_mean(self, horizon: float) -> float:
        """The mean jump count over [0, horizon], which the noise draws use;
        a ValueError naming the intensity if numpy's draw would refuse it."""
        mean = self.intensity * horizon
        if mean > POISSON_MEAN_MAX:
            raise ValueError(
                f"jump intensity {self.intensity} over horizon {horizon} gives a "
                f"Poisson mean above numpy's limit {POISSON_MEAN_MAX:.6g}"
            )
        return mean


NO_JUMPS = JumpSpec(intensity=0.0, sampler=None)


# The table's arithmetic.  A value is None (a term left out), a number, or
# Python source text: run on numbers it gives the theta-scalars, run on
# the names th, x and z it writes the source of the fused calls.


def _src(value) -> str:
    return value if isinstance(value, str) else repr(float(value))


def _plus(u, v):
    """u + v, leaving out a part that is None."""
    if u is None or v is None:
        return v if u is None else u
    if isinstance(u, str) or isinstance(v, str):
        return f"({_src(u)} + {_src(v)})"
    return u + v


def _lin(const, slope, v):
    """const + slope * v, leaving out a part that is None; None if both are.
    A slope of 1.0 adds v itself, which equals 1.0 * v bit for bit."""
    if slope is None:
        return const
    if isinstance(slope, str) or isinstance(v, str):
        term = v if slope == 1.0 else f"({_src(slope)} * {_src(v)})"
    else:
        term = v if slope == 1.0 else slope * v
    return _plus(const, term)


def _weighted(base, entries, theta):
    """base + sum_j theta_j entries[j] over the entries that are not None,
    in order; None if nothing is left."""
    total = base
    for th, entry in zip(theta, entries):
        total = _plus(total, _lin(None, entry, th))
    return total


def _entries(row) -> tuple:
    """A table row as it is read: a 0 entry is None, so its term is left
    out once, and any other entry a finite float."""
    if not all(np.isfinite(row)):
        raise ValueError(f"table entries must be finite, got {row}")
    return tuple(None if v == 0 else float(v) for v in row)


def _render(value) -> str:
    """The source of a fused call's entry: 0.0 for None, a tuple for a list."""
    if isinstance(value, list):
        return "(" + ", ".join(map(_render, value)) + ",)"
    return "0.0" if value is None else _src(value)


@dataclass(frozen=True)
class LinearTable:
    """The linear description of a model, one column per parameter j.

    Entry j of each row is theta_j's part in one term of the dynamics:

        drift net of the compensator   sum_j theta_j (alpha_j + beta_j x)
        diffusion                      sum_j theta_j (gamma_j + delta_j x)
        size of a jump of centred z    kappa_0 + nu_0 z
                                       + sum_j theta_j (kappa_j + nu_j z)

    with (kappa_0, nu_0) = jump_base; kappa and nu default to zeros, for a
    model without jumps.  The compensator is intensity * (kappa(theta) +
    nu(theta) size_mean), size_mean the mean of the jump law's z, and the
    drift of `coefficients` adds it back.  A 0 entry is stored as None,
    and every term it scales is left out, here and in the simulator's step.

    `coefficients(x, th)`, the fused call of the module docstring, is
    compiled once: the same arithmetic run on names writes its source, so
    a call costs what a hand-written one does.  `jump_kernel` runs it on
    numbers; the step reads jump_size and jump_shares once per block.
    """

    alpha: tuple
    beta: tuple
    gamma: tuple
    delta: tuple
    kappa: tuple | None = None
    nu: tuple | None = None
    jump_base: tuple = (0.0, 0.0)
    size_mean: float = 0.0
    intensity: float = 0.0

    def __post_init__(self):
        zeros = (0.0,) * len(self.alpha)
        for name in ("alpha", "beta", "gamma", "delta", "kappa", "nu", "jump_base"):
            row = getattr(self, name)
            object.__setattr__(self, name, _entries(zeros if row is None else row))
        # the theta-scalars that are expressions become locals of the calls
        names = ("alpha", "beta", "gamma", "delta", "kappa", "nu")
        th = [f"th[{j}]" for j in range(len(self.alpha))]
        scalars = self.scalars(th)
        head = "".join(
            f"    {name} = {value}\n"
            for name, value in zip(names, scalars)
            if isinstance(value, str)
        )
        scalars = [name if isinstance(v, str) else v for name, v in zip(names, scalars)]
        coef = self._coefficients("x", scalars)
        source = f"def coefficients(x, th):\n{head}    return {_render(list(coef))}\n"
        calls = {}
        exec(source, calls)  # the source holds only names and float reprs
        object.__setattr__(self, "coefficients", calls["coefficients"])

    def scalars(self, theta) -> tuple:
        """(alpha, beta, gamma, delta, kappa, nu) at theta: each row's base
        (kappa_0, nu_0 or none) plus sum_j theta_j entry_j, None where all
        of them are 0."""
        rows = (self.alpha, self.beta, self.gamma, self.delta, self.kappa, self.nu)
        bases = (None,) * 4 + self.jump_base
        return tuple(_weighted(base, row, theta) for base, row in zip(bases, rows))

    def drift(self, theta) -> Callable[[float], float]:
        """The drift a(x) at theta for a float x, with the arithmetic of
        coefficients' (alpha + beta x) + comp, a term left out where it is
        None; its theta-scalars are taken once."""
        scalars = (None if v is None else float(v) for v in self.scalars(theta))
        alpha, beta, _, _, kappa, nu = scalars
        comp = self._compensator(kappa, nu)

        def drift(x):
            a = _plus(_lin(alpha, beta, x), comp)
            return 0.0 if a is None else a

        return drift

    def jump_size(self, z, theta):
        """kappa(theta) + nu(theta) z, the jump of each centred size z."""
        size = _lin(*self.scalars(theta)[4:], z)
        return 0.0 if size is None else size

    def jump_shares(self, z) -> tuple:
        """kappa_j + nu_j z for each parameter j, the theta-derivative of the
        jump of each centred size z; None for a column without a jump part."""
        return tuple(_lin(k_j, n_j, z) for k_j, n_j in zip(self.kappa, self.nu))

    def jump_kernel(self, x, z, theta) -> tuple:
        """(c, c_x, c_theta) for the centred sizes z, whatever x; a column
        without a jump part has a 0.0 share."""
        shares = tuple(0.0 if share is None else share for share in self.jump_shares(z))
        return self.jump_size(z, theta), 0.0, shares

    def _compensator(self, kappa, nu):
        """intensity * (kappa + nu * size_mean) for the scalars kappa, nu,
        None if both are."""
        mean = _lin(kappa, nu, self.size_mean) if self.size_mean != 0 else kappa
        return _lin(None, self.intensity, mean) if mean is not None else None

    def _coefficients(self, x, scalars) -> tuple:
        """The entries of coefficients(x, th) from the theta-scalars, with
        None for 0.0 and a list for a tuple: the drift is the net drift
        plus the compensator."""
        alpha, beta, gamma, delta, kappa, nu = scalars
        comp = self._compensator(kappa, nu)
        comp_th = [self._compensator(k_j, n_j) for k_j, n_j in zip(self.kappa, self.nu)]
        a = _plus(_lin(alpha, beta, x), comp)
        a_th = [
            _plus(_lin(a_j, b_j, x), c_j) for a_j, b_j, c_j in zip(self.alpha, self.beta, comp_th)
        ]
        b_th = [_lin(g_j, d_j, x) for g_j, d_j in zip(self.gamma, self.delta)]
        coef = (a, _lin(gamma, delta, x), beta, delta, a_th, b_th)
        return coef + (comp, None, comp_th) if self.intensity > 0 else coef


@dataclass(frozen=True)
class JumpDiffusionModel:
    """Coefficients, derivatives and jump law of a parametric jump diffusion.

    ``coefficients`` and ``jump_kernel`` follow the module docstring; x is
    a scalar or an ndarray and theta a length-p vector.  ``epsilon`` is a
    structural noise scale (it is *not* a component of theta): estimation
    divides it out of b.  Models without a small-noise structure leave it
    at 1.  ``jump`` is the law the noise generator draws from.
    ``param_box`` is the parameter set: one [low, high] row per parameter,
    checked by ``require_theta``, which ``theta0`` passes at construction.
    ``table`` is the linear description of a built-in model; a model with
    one takes its coefficients, jump kernel and intensity from it, so one
    that replaces any of them sets ``table=None``.
    """

    name: str
    param_names: tuple[str, ...]
    initial: Callable[[Array], float]
    initial_grad: Callable[[Array], Array]
    coefficients: Callable[..., tuple]
    param_box: Array
    growth_const: float
    theta0: Array
    epsilon: float = 1.0
    jump: JumpSpec = NO_JUMPS
    jump_kernel: Callable[..., tuple] | None = None
    table: LinearTable | None = None

    def __post_init__(self):
        box = np.asarray(self.param_box, dtype=float)
        if box.shape != (self.p, 2):
            raise ValueError(f"param_box must have shape ({self.p}, 2)")
        object.__setattr__(self, "param_box", box)
        object.__setattr__(self, "theta0", self.require_theta(self.theta0))
        if self.jump.intensity > 0 and self.jump_kernel is None:
            raise ValueError("model has jumps but no jump kernel")
        table = self.table
        if table is not None and (
            self.coefficients != table.coefficients
            or self.jump_kernel != (table.jump_kernel if self.has_jumps else None)
            or self.jump.intensity != table.intensity
        ):
            raise ValueError(
                f"{self.name}: a model with a table takes its coefficients, jump "
                "kernel and intensity from it"
            )

    @property
    def p(self) -> int:
        return len(self.param_names)

    @property
    def has_jumps(self) -> bool:
        return self.jump.intensity > 0

    def require_theta(self, theta) -> Array:
        """theta as a float array, or a ValueError naming its first
        coordinate that is not finite or lies outside the parameter box."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"{self.name}: theta must have dimension {self.p}")
        for name, value, (lo, hi) in zip(self.param_names, theta, self.param_box):
            if not (np.isfinite(value) and lo <= value <= hi):
                raise ValueError(f"{self.name}: {name} = {value} outside [{lo}, {hi}]")
        return theta


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    n_probes: int
    violations: tuple[str, ...] = field(default_factory=tuple)


def _check_entries(model: JumpDiffusionModel, names, values, probe) -> None:
    """Raise unless every entry is present and finite, naming the first bad one."""
    if len(values) != len(names):
        raise ValueError(
            f"{model.name}: expected {len(names)} entries "
            f"({', '.join(names)}), got {len(values)}"
        )
    for name, value in zip(names, values):
        parts = (value,)
        if name.endswith("dtheta"):
            parts = value
            if len(parts) != model.p:
                raise ValueError(f"{model.name}: {name} must have {model.p} entries")
        if not all(np.all(np.isfinite(v)) for v in parts):
            raise ValueError(f"non-finite {name} at probe {probe}: {value}")


def validate_model(model: JumpDiffusionModel, probe_points) -> ValidationReport:
    """Spot-check linear-growth bounds and finiteness on probe points.

    Each probe is a tuple (x, z, theta).  Checks, with the model's declared
    growth constant kappa:

        |a| + |b| <= kappa * (1 + |x|)
        |c|       <= kappa * |z| * (1 + |x|)

    and that every coefficient and derivative is present and finite.
    Passing is necessary, not sufficient.  A missing or non-finite entry
    raises, naming it; growth violations are collected into the report.
    """
    kappa = model.growth_const
    names = COEFFICIENT_NAMES if model.has_jumps else COEFFICIENT_NAMES[:6]
    violations: list[str] = []
    n = 0
    for probe in probe_points:
        x, z, theta = probe
        theta = model.require_theta(theta)
        if not (np.isfinite(x) and np.isfinite(z)):
            raise ValueError(f"non-finite probe point {probe}")
        n += 1
        coef = model.coefficients(x, theta)
        _check_entries(model, names, coef, probe)
        a, b = coef[0], coef[1]
        if abs(a) + abs(b) > kappa * (1.0 + abs(x)) + 1e-12:
            violations.append(
                f"|a|+|b| = {abs(a) + abs(b):.6g} exceeds "
                f"kappa*(1+|x|) = {kappa * (1 + abs(x)):.6g} at {probe}"
            )
        if model.jump_kernel is not None:
            kernel = model.jump_kernel(x, z, theta)
            _check_entries(model, JUMP_NAMES, kernel, probe)
            c = kernel[0]
            if abs(c) > kappa * abs(z) * (1.0 + abs(x)) + 1e-12:
                violations.append(
                    f"|c| = {abs(c):.6g} exceeds kappa*|z|*(1+|x|) = "
                    f"{kappa * abs(z) * (1 + abs(x)):.6g} at {probe}"
                )
    return ValidationReport(ok=not violations, n_probes=n, violations=tuple(violations))


def default_probe_grid(model: JumpDiffusionModel, n_x: int = 25):
    """Probe grid at the model's reference parameter.

    x ranges over a symmetric grid around the initial value; z stays away
    from the origin, where kernels with an additive shift cannot satisfy a
    |z|-proportional bound.
    """
    x0 = model.initial(model.theta0)
    xs = np.linspace(-4.0 * abs(x0) - 1.0, 4.0 * abs(x0) + 1.0, n_x)
    zs = (0.5, -0.5, 1.0, -2.0)
    return [(float(x), float(z), model.theta0) for x in xs for z in zs]


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _table_model(table: LinearTable, x0: float, **fields) -> JumpDiffusionModel:
    """A built-in model: coefficients, and with a positive intensity the jump
    kernel, from its table; X_0 = x0 with a zero theta-gradient."""
    return JumpDiffusionModel(
        initial=lambda th: x0, initial_grad=lambda th: np.zeros(len(table.alpha)),
        coefficients=table.coefficients, table=table,
        jump_kernel=table.jump_kernel if table.intensity > 0 else None, **fields,
    )


def bs_small_noise_model(
    mu: float, sigma: float, eps: float, x0: float
) -> JumpDiffusionModel:
    """Black-Scholes dynamics with a small structural noise scale.

        dX = mu X dt + eps * sigma X dW,   X_0 = x0,  theta = (mu, sigma)

    eps is a known constant (typically 1/sqrt(n) for n observations), not a
    parameter.  eps = 0 degenerates to the exponential-growth ODE; a
    positive eps**2, which estimation divides by, must be a normal float.
    """
    _require_finite("eps", eps)
    _require_finite("x0", x0)
    if eps != 0 and not (eps > 0 and np.finfo(float).tiny <= float(eps) * float(eps) < np.inf):
        raise ValueError(f"eps must be 0, or > 0 with a finite, normal square, got {eps}")
    if x0 <= 0:
        raise ValueError(f"x0 must be > 0, got {x0}")

    # columns (mu, sigma): drift mu x, diffusion eps sigma x
    table = LinearTable(alpha=(0, 0), beta=(1, 0), gamma=(0, 0), delta=(0, eps))
    return _table_model(
        table, x0, name="bs_small_noise", param_names=("mu", "sigma"),
        param_box=np.array([[-5.0, 5.0], [1e-8, 10.0]]),
        growth_const=abs(mu) + eps * sigma,
        theta0=np.array([mu, sigma], dtype=float),
        epsilon=eps,
    )


def ou_jump_model(mu: float, sigma: float, eta: float, lam: float, x0: float) -> JumpDiffusionModel:
    """Mean-reverting diffusion with compound-Poisson jumps of mean eta.

        dX = -mu X dt + sigma dW + dZ_t,   theta = (mu, sigma, eta)

    where Z is compound Poisson with intensity lam and jump sizes of mean
    eta.  Written against the centred jump measure (sizes z with E[z] = 0,
    actual jumps z + eta), the compensated form has drift
    -mu x + lam * eta and kernel c(x, z, theta) = z + eta.  The centred
    size law is Normal(0, OU_JUMP_SD^2); JumpSpec checks lam.
    """
    spec = JumpSpec(lam, lambda rng, count: rng.normal(0.0, OU_JUMP_SD, count))
    _require_finite("x0", x0)

    # kappa covers |a|+|b| <= max(mu, lam|eta|+sigma)(1+|x|) and, away from
    # z = 0 (probes use |z| >= 0.5), |z + eta| <= (1 + 2|eta|)|z|.
    kappa = max(mu, lam * abs(eta) + sigma, 1.0 + 2.0 * abs(eta))

    # columns (mu, sigma, eta): drift -mu x, diffusion sigma, jump z + eta
    table = LinearTable(
        alpha=(0, 0, 0), beta=(-1, 0, 0), gamma=(0, 1, 0), delta=(0, 0, 0),
        kappa=(0, 0, 1), jump_base=(0, 1), intensity=lam,
    )
    return _table_model(
        table, x0, name="ou_jump", param_names=("mu", "sigma", "eta"),
        # mu > 0: the closed forms divide by mu
        param_box=np.array([[1e-8, 20.0], [0.0, 10.0], [-10.0, 10.0]]),
        growth_const=kappa,
        theta0=np.array([mu, sigma, eta], dtype=float),
        jump=spec,
    )


def levy_model(mu: float, sigma: float, eta: float, x0: float) -> JumpDiffusionModel:
    """Levy process X_t = x0 + mu t + sigma W_t + eta S_t, theta = (mu, sigma, eta).

    S is a fixed unit-mean compound Poisson process (intensity 1,
    Exponential(1) jump sizes), so all coefficients are affine in theta and
    independent of x: compensated drift mu + eta, kernel eta z.  The
    sensitivity process is exactly (t, W_t, S_t) and the parameter coupling
    is exact path by path.
    """
    _require_finite("x0", x0)
    if eta == 0:
        raise ValueError("eta must be nonzero")

    spec = JumpSpec(intensity=1.0, sampler=lambda rng, count: rng.exponential(1.0, count))

    # columns (mu, sigma, eta): drift mu, diffusion sigma, jump eta z
    table = LinearTable(
        alpha=(1, 0, 0), beta=(0, 0, 0), gamma=(0, 1, 0), delta=(0, 0, 0),
        nu=(0, 0, 1), size_mean=1.0, intensity=spec.intensity,
    )
    return _table_model(
        table, x0, name="levy", param_names=("mu", "sigma", "eta"),
        param_box=np.array([[-10.0, 10.0], [0.0, 10.0], [-10.0, 10.0]]),
        growth_const=abs(mu + eta) + sigma + abs(eta),
        theta0=np.array([mu, sigma, eta], dtype=float),
        jump=spec,
    )
