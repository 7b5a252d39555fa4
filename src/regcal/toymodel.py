"""Self-contained heteroscedastic MC-dropout regressor on synthetic 1-D data.

The network is a two-hidden-layer MLP with dropout after each hidden layer
and two linear heads, one for the predicted mean and one for the log of the
aleatoric variance. Backpropagation is written out by hand so the gradient
of the full loss (both heads, dropout masks fixed, weight decay included)
can be checked against finite differences. Dropout uses the inverted
convention: activations are scaled by 1/(1-p) at mask time, so stochastic
evaluation passes reuse the raw weights with fresh masks.

Everything is deterministic given (seed, config, data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrate import sigma_closed_form_gaussian
from .core import McPredictionSet

PARAM_NAMES = ("W1", "b1", "W2", "b2", "Wm", "bm", "Wv", "bv")

# Initial log-variance head bias; starting sigma^2 near 0.01 keeps the NLL
# from exploding in the first epochs.
INIT_LOG_VAR = math.log(0.01)

# The one training recipe. Every run uses this architecture and optimiser;
# ToyModelConfig holds only what callers vary between runs.
HIDDEN = (64, 64)
BATCH_SIZE = 16
STEP_SIZE = 3e-4
WEIGHT_DECAY = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class SyntheticSpec:
    """Synthetic heteroscedastic regression data: y = x + 0.3 sin(2 pi x) + eps.

    x is uniform on [0, 1] and eps ~ N(0, (a + b*x)^2), so the aleatoric
    noise grows with the input. The true noise level is retained per point
    for oracle checks. The default training split is deliberately tiny
    relative to the network capacity: miscalibration of uncertainty is an
    overparameterized-regime effect, so the toy setup has to live there.
    """

    m_train: int = 32
    m_val: int = 256
    m_test: int = 512
    noise_floor: float = 0.05  # a
    noise_slope: float = 0.10  # b
    seed: int = 0

    def __post_init__(self):
        if min(self.m_train, self.m_val, self.m_test) < 1:
            raise ValueError("all split sizes must be >= 1")
        if self.noise_floor <= 0 or self.noise_slope < 0:
            raise ValueError("noise_floor must be > 0 and noise_slope >= 0")


@dataclass
class LabeledData:
    x: np.ndarray
    y: np.ndarray
    noise_sd: np.ndarray  # true sigma(x)


@dataclass
class SyntheticData:
    train: LabeledData
    val: LabeledData
    test: LabeledData


def true_mean(x: np.ndarray) -> np.ndarray:
    return x + 0.3 * np.sin(2.0 * np.pi * x)


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Draw the three splits deterministically from the spec's seed."""
    rng = np.random.default_rng(spec.seed)

    def draw(m: int) -> LabeledData:
        x = rng.uniform(0.0, 1.0, size=m)
        sd = spec.noise_floor + spec.noise_slope * x
        y = true_mean(x) + rng.normal(0.0, 1.0, size=m) * sd
        return LabeledData(x=x, y=y, noise_sd=sd)

    return SyntheticData(train=draw(spec.m_train), val=draw(spec.m_val), test=draw(spec.m_test))


@dataclass
class ToyModelConfig:
    """The settings of one toy run: dropout rate, training epochs, MC passes
    per dump and seed. Architecture and optimiser are the module constants
    ``HIDDEN``, ``BATCH_SIZE``, ``STEP_SIZE`` and ``WEIGHT_DECAY``."""

    dropout_p: float = 0.2
    epochs: int = 500
    mc_passes: int = 25
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if min(self.epochs, self.mc_passes) < 1:
            raise ValueError("epochs and mc_passes must be >= 1")


def toy_experiment_config(seed: int = 0) -> ToyModelConfig:
    """Training configuration of the end-to-end toy experiment.

    Long training with a small dropout rate drives the network into the
    overfitting regime on the tiny default training split, which is where
    predictive uncertainty genuinely underestimates the test error. The
    plain :class:`ToyModelConfig` defaults are general-purpose settings and
    stay much milder.
    """
    return ToyModelConfig(epochs=4000, dropout_p=0.05, seed=seed)


def init_params(hidden: tuple[int, int], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform fan-in init; first-layer biases spread the ReLU kinks over the
    input range, and the log-variance head starts small and flat."""
    h1, h2 = hidden
    s1, s2 = 1.0 / math.sqrt(h1), 1.0 / math.sqrt(h2)
    return {
        "W1": rng.uniform(-1.0, 1.0, size=(1, h1)),
        "b1": rng.uniform(-1.0, 1.0, size=h1),
        "W2": rng.uniform(-s1, s1, size=(h1, h2)),
        "b2": rng.uniform(-s1, s1, size=h2),
        "Wm": rng.uniform(-s2, s2, size=(h2, 1)),
        "bm": np.zeros(1),
        "Wv": rng.uniform(-0.01, 0.01, size=(h2, 1)),
        "bv": np.full(1, INIT_LOG_VAR),
    }


def draw_masks(rng: np.random.Generator, batch: int, hidden: tuple[int, int], p: float):
    keep = 1.0 - p
    return (
        (rng.random((batch, hidden[0])) < keep).astype(float),
        (rng.random((batch, hidden[1])) < keep).astype(float),
    )


def forward(params, x: np.ndarray, masks=None, p: float = 0.0):
    """Forward pass; masks=None runs the deterministic (no-dropout) path.

    Returns (mu, log_var, cache) with mu/log_var of shape (batch,).
    """
    X = np.asarray(x, dtype=float).reshape(-1, 1)
    z1 = X @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    d1 = a1 if masks is None else a1 * masks[0] / (1.0 - p)
    z2 = d1 @ params["W2"] + params["b2"]
    a2 = np.maximum(z2, 0.0)
    d2 = a2 if masks is None else a2 * masks[1] / (1.0 - p)
    mu = (d2 @ params["Wm"] + params["bm"])[:, 0]
    log_var = (d2 @ params["Wv"] + params["bv"])[:, 0]
    cache = (X, z1, d1, z2, d2)
    return mu, log_var, cache


def loss_and_grads(params, x, y, masks, p: float, weight_decay: float):
    """Mean heteroscedastic Gaussian NLL term plus L2 decay, with gradients.

    Loss = mean_i[ exp(-lv_i) (y_i - mu_i)^2 + lv_i ] + wd * sum(theta^2).
    Masks are taken as given so the gradient is exact for the realized
    stochastic forward pass.
    """
    y = np.asarray(y, dtype=float)
    mu, lv, (X, z1, d1, z2, d2) = forward(params, x, masks=masks, p=p)
    batch = len(y)
    inv_var = np.exp(-lv)
    resid = mu - y
    loss = float(np.mean(inv_var * resid**2 + lv))
    loss += weight_decay * sum(float(np.sum(w**2)) for w in params.values())

    dmu = (2.0 * inv_var * resid / batch)[:, None]  # (B, 1)
    dlv = ((1.0 - inv_var * resid**2) / batch)[:, None]
    grads = {
        "Wm": d2.T @ dmu,
        "bm": dmu.sum(axis=0),
        "Wv": d2.T @ dlv,
        "bv": dlv.sum(axis=0),
    }
    dd2 = dmu @ params["Wm"].T + dlv @ params["Wv"].T
    da2 = dd2 if masks is None else dd2 * masks[1] / (1.0 - p)
    dz2 = da2 * (z2 > 0.0)
    grads["W2"] = d1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dd1 = dz2 @ params["W2"].T
    da1 = dd1 if masks is None else dd1 * masks[0] / (1.0 - p)
    dz1 = da1 * (z1 > 0.0)
    grads["W1"] = X.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    for name in PARAM_NAMES:
        grads[name] = grads[name] + 2.0 * weight_decay * params[name]
    return loss, grads


@dataclass
class ToyModel:
    """Trained weights, named as in ``PARAM_NAMES``, and the dropout rate
    they were trained with. The hidden widths are read off the weights."""

    params: dict[str, np.ndarray]
    dropout_p: float

    @property
    def hidden(self) -> tuple[int, int]:
        return len(self.params["b1"]), len(self.params["b2"])

    def predict(self, x: np.ndarray):
        """Deterministic forward pass (no dropout): (mu, log_var)."""
        mu, lv, _ = forward(self.params, x)
        return mu, lv


@dataclass
class TrainingTrace:
    """Per-epoch diagnostics of :func:`train`: every list holds one float per
    epoch, so ``n_epochs`` equals the configured ``epochs``.

    ``s`` is the closed-form sigma scale fitted on that epoch's deterministic
    validation pass, and ``test_nll_calibrated`` the test NLL after scaling
    the test variances by s^2; the weights are untouched by either.
    """

    train_mse: list[float] = field(default_factory=list)
    test_mse: list[float] = field(default_factory=list)
    train_sigma2: list[float] = field(default_factory=list)
    test_sigma2: list[float] = field(default_factory=list)
    train_nll: list[float] = field(default_factory=list)
    test_nll: list[float] = field(default_factory=list)
    s: list[float] = field(default_factory=list)
    test_nll_calibrated: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.train_mse)


def _flatten(params: dict[str, np.ndarray]):
    """Copy the parameters into one flat vector theta; return theta and a dict
    of named, reshaped views of it, so in-place updates of theta show through."""
    theta = np.concatenate([p.ravel() for p in params.values()])
    views, pos = {}, 0
    for name, p in params.items():
        views[name] = theta[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    return theta, views


def _epoch_eval(params, split: LabeledData):
    mu, lv, _ = forward(params, split.x)
    err_sq = (split.y - mu) ** 2
    sigma2 = np.exp(lv)
    nll = float(np.mean(err_sq / sigma2 + lv))
    return err_sq, sigma2, float(err_sq.mean()), float(sigma2.mean()), nll


def train(data: SyntheticData, cfg: ToyModelConfig | None = None):
    """Train the two-headed MLP for ``cfg.epochs`` epochs; returns (model, trace).

    Minimizes the mean per-sample Gaussian NLL term plus weight decay by
    minibatch Adam steps (``BATCH_SIZE``, ``STEP_SIZE``, ``WEIGHT_DECAY``;
    beta1=0.9, beta2=0.999, eps=1e-8) on one flat parameter vector, at a
    constant step size. Dropout is active on every training step. After each
    epoch sigma scaling is fitted on the validation split and the
    recalibrated test NLL recorded (see :class:`TrainingTrace`). The model
    returned holds the weights after the last epoch. Fully deterministic
    given cfg.seed.
    """
    cfg = cfg or ToyModelConfig()
    rng = np.random.default_rng(cfg.seed)
    theta, params = _flatten(init_params(HIDDEN, rng))
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    step = 0
    trace = TrainingTrace()
    m_train = len(data.train.x)

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(m_train)
        for start in range(0, m_train, BATCH_SIZE):
            idx = perm[start : start + BATCH_SIZE]
            masks = draw_masks(rng, len(idx), HIDDEN, cfg.dropout_p)
            loss, grads = loss_and_grads(
                params, data.train.x[idx], data.train.y[idx], masks, cfg.dropout_p, WEIGHT_DECAY
            )
            if not math.isfinite(loss):
                raise ValueError(
                    f"non-finite training loss at epoch {epoch}, batch {start // BATCH_SIZE}"
                )
            g = np.concatenate([grads[name].ravel() for name in params])
            step += 1
            adam_m = ADAM_BETA1 * adam_m + (1.0 - ADAM_BETA1) * g
            adam_v = ADAM_BETA2 * adam_v + (1.0 - ADAM_BETA2) * g * g
            m_hat = adam_m / (1.0 - ADAM_BETA1**step)
            v_hat = adam_v / (1.0 - ADAM_BETA2**step)
            theta -= STEP_SIZE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        _, _, tr_mse, tr_s2, tr_nll = _epoch_eval(params, data.train)
        te_err, te_s2_arr, te_mse, te_s2, te_nll = _epoch_eval(params, data.test)
        va_err, va_s2_arr, _, _, _ = _epoch_eval(params, data.val)
        s = sigma_closed_form_gaussian(va_err, va_s2_arr)
        scaled = te_s2_arr * (s * s)
        trace.train_mse.append(tr_mse)
        trace.test_mse.append(te_mse)
        trace.train_sigma2.append(tr_s2)
        trace.test_sigma2.append(te_s2)
        trace.train_nll.append(tr_nll)
        trace.test_nll.append(te_nll)
        trace.s.append(s)
        trace.test_nll_calibrated.append(float(np.mean(te_err / scaled + np.log(scaled))))

    return ToyModel(params=params, dropout_p=cfg.dropout_p), trace


def mc_predict(
    model: ToyModel,
    data: LabeledData,
    n_passes: int = 25,
    seed: int = 0,
    id_prefix: str = "rec",
) -> McPredictionSet:
    """Run N stochastic forward passes and package them as a prediction dump.

    Dropout masks are resampled on every pass (per input element, as in
    batched dropout layers). Deterministic given the seed.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    rng = np.random.default_rng(seed)
    m = len(data.x)
    all_mu = np.empty((n_passes, m))
    all_lv = np.empty((n_passes, m))
    for n in range(n_passes):
        masks = draw_masks(rng, m, model.hidden, model.dropout_p)
        mu, lv, _ = forward(model.params, data.x, masks=masks, p=model.dropout_p)
        all_mu[n] = mu
        all_lv[n] = lv
    return McPredictionSet(
        ids=[f"{id_prefix}-{i:05d}" for i in range(m)],
        y=data.y[:, None],
        means=all_mu.T[:, :, None],
        log_vars=all_lv.T,
    )


@dataclass
class UnbiasednessResult:
    mean_estimate: float
    true_sigma2: float
    relative_bias: float


def simulate_unbiasedness(
    mu: float,
    tau: float,
    y: float,
    n_passes: int = 25,
    trials: int = 100_000,
    seed: int = 0,
) -> UnbiasednessResult:
    """Monte-Carlo check that the decomposed variance estimator is unbiased.

    Each trial draws N sample means from N(mu, tau^2) and assigns every pass
    the perfectly calibrated aleatoric variance (mu - y)^2 + tau^2/N (the
    expected squared error of the N-sample mean). The decomposed total is
    then an unbiased estimate of the true variance tau^2 + (mu - y)^2, so
    the trial average converges to it as trials grow.
    """
    if trials < 1 or n_passes < 1:
        raise ValueError("trials and n_passes must be >= 1")
    rng = np.random.default_rng(seed)
    draws = mu + tau * rng.standard_normal((trials, n_passes))
    epistemic = np.mean((draws - draws.mean(axis=1, keepdims=True)) ** 2, axis=1)
    sigma_hat_sq = (mu - y) ** 2 + tau**2 / n_passes
    estimates = epistemic + sigma_hat_sq
    mean_estimate = float(estimates.mean())
    true_sigma2 = tau**2 + (mu - y) ** 2
    if true_sigma2 > 0.0:
        rel = abs(mean_estimate - true_sigma2) / true_sigma2
    else:
        rel = 0.0 if mean_estimate == 0.0 else math.inf
    return UnbiasednessResult(mean_estimate, true_sigma2, rel)

