"""Self-contained heteroscedastic MC-dropout regressor on synthetic 1-D data.

The network is a two-hidden-layer MLP with dropout after each hidden layer
and two linear heads, one for the predicted mean and one for the log of the
aleatoric variance. Backpropagation is written out by hand so the gradient
of the full loss (both heads, dropout masks fixed, weight decay included)
can be checked against finite differences. Dropout uses the inverted
convention: activations are scaled by 1/(1-p) at mask time, so stochastic
evaluation passes reuse the raw weights with fresh masks.

The layer math is written once, in ``_forward_into``, which computes into a
preallocated workspace, and the backprop math once, in
``_loss_and_grads_into``, which writes every gradient into a flat vector
laid out as the parameters. :func:`forward` and :func:`loss_and_grads` give
them fresh buffers per call; :func:`train` makes its workspace, gradient and
Adam buffers once and runs every step and evaluation pass in them, and
:func:`mc_predict` reuses one workspace, so a 512-row pass maps no new pages.
Nothing returned is a view of a reused buffer.

Data, architecture and optimiser are module constants; :class:`ToyModelConfig`
holds the four settings a run varies. :func:`experiment` runs the whole toy
experiment of ``regcal toy`` once: train, MC-predict, fit sigma scaling and
the auxiliary network, and score the test dump. Everything is deterministic
given the data seed and the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrate import AuxConfig, apply_calibration, aux_fit, fit_sigma, sigma_closed_form
from .core import CalibrationArtifact, McPredictionSet, identity_artifact
from .intervals import DEFAULT_LEVELS, coverage
from .likelihood import batch_nll
from .metrics import DEFAULT_BINS, mse, uce, uncertainty_records

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

# The one dataset: y = true_mean(x) + eps, x ~ U[0, 1], eps ~ N(0, sd(x)^2),
# sd(x) = NOISE_FLOOR + NOISE_SLOPE*x. The training split is tiny next to the
# network: underestimated uncertainty is an overparameterized-regime effect.
M_TRAIN, M_VAL, M_TEST = 32, 256, 512
NOISE_FLOOR = 0.05
NOISE_SLOPE = 0.10


@dataclass
class LabeledData:
    x: np.ndarray
    y: np.ndarray


@dataclass
class SyntheticData:
    train: LabeledData
    val: LabeledData
    test: LabeledData


def true_mean(x: np.ndarray) -> np.ndarray:
    return x + 0.3 * np.sin(2.0 * np.pi * x)


def generate(seed: int) -> SyntheticData:
    """Draw the ``M_TRAIN``/``M_VAL``/``M_TEST`` splits deterministically from
    the seed, with noise sd ``NOISE_FLOOR + NOISE_SLOPE * x``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def draw(m: int) -> LabeledData:
        x = rng.uniform(0.0, 1.0, size=m)
        y = true_mean(x) + rng.normal(0.0, 1.0, size=m) * (NOISE_FLOOR + NOISE_SLOPE * x)
        return LabeledData(x=x, y=y)

    return SyntheticData(train=draw(M_TRAIN), val=draw(M_VAL), test=draw(M_TEST))


@dataclass
class ToyModelConfig:
    """The settings of one toy run: dropout rate, training epochs, MC passes
    per dump and seed. The defaults are the toy experiment's: long training
    at a small dropout rate drives the network into the overfitting regime on
    the tiny training split, where predictive uncertainty underestimates the
    test error. Architecture and optimiser are the module constants
    ``HIDDEN``, ``BATCH_SIZE``, ``STEP_SIZE`` and ``WEIGHT_DECAY``."""

    dropout_p: float = 0.05
    epochs: int = 4000
    mc_passes: int = 25
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if min(self.epochs, self.mc_passes) < 1:
            raise ValueError("epochs and mc_passes must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    """Keep masks for both hidden layers from one draw: the first layer's
    uniforms come first in the stream, as with one draw per layer."""
    h1, h2 = hidden
    keep = (rng.random(batch * (h1 + h2)) < 1.0 - p).astype(float)
    return keep[: batch * h1].reshape(batch, h1), keep[batch * h1 :].reshape(batch, h2)


def _workspace(rows: int, params) -> tuple[np.ndarray, ...]:
    """Uninitialised buffers for a forward pass over up to ``rows`` inputs:
    (z1, d1, z2, d2, mu, log_var), hidden widths read off the weights."""
    h1, h2 = len(params["b1"]), len(params["b2"])
    return (np.empty((rows, h1)), np.empty((rows, h1)), np.empty((rows, h2)),
            np.empty((rows, h2)), np.empty((rows, 1)), np.empty((rows, 1)))


def _forward_into(ws, params, x, masks=None, p: float = 0.0):
    """The forward pass, computed into the leading rows of workspace ``ws``.

    Every step writes into a buffer of ``ws`` in the order of the plain
    expressions (``X @ W1 + b1``, then ``maximum``, then ``a * mask / (1 - p)``),
    so results are bit-identical to them. mu, log_var and the cache are views
    of ``ws``: valid until its next use.
    """
    X = np.asarray(x, dtype=float).reshape(-1, 1)
    z1, d1, z2, d2, mu, log_var = (buf[: len(X)] for buf in ws)
    for layer, (a, z, d) in enumerate(((X, z1, d1), (d1, z2, d2)), start=1):
        # X is one column, so X @ W1 is one product per entry: multiply is bit-identical
        (np.multiply if layer == 1 else np.matmul)(a, params[f"W{layer}"], out=z)
        np.add(z, params[f"b{layer}"], out=z)
        np.maximum(z, 0.0, out=d)  # ReLU
        if masks is not None:  # inverted dropout: d * mask / (1 - p)
            np.multiply(d, masks[layer - 1], out=d)
            np.divide(d, 1.0 - p, out=d)
    for head, out in (("m", mu), ("v", log_var)):
        np.matmul(d2, params[f"W{head}"], out=out)
        np.add(out, params[f"b{head}"], out=out)
    return mu[:, 0], log_var[:, 0], (X, z1, d1, z2, d2)


def forward(params, x: np.ndarray, masks=None, p: float = 0.0):
    """Forward pass; masks=None runs the deterministic (no-dropout) path.

    Returns (mu, log_var, cache) with mu/log_var of shape (batch,), all
    computed into a workspace of their own.
    """
    return _forward_into(_workspace(np.size(x), params), params, x, masks, p)


def _loss_and_grads_into(ws, theta, params, g, grads, x, y, masks, p: float, weight_decay: float):
    """The loss of :func:`loss_and_grads`; the gradients are written into the
    flat ``g`` through ``grads``, its named views in ``theta``'s layout. The
    forward pass computes into the leading rows of workspace ``ws``, and the
    backward pass reuses its hidden-layer buffers once they are read."""
    mu, lv, (X, z1, d1, z2, d2) = _forward_into(ws, params, x, masks=masks, p=p)
    batch = len(y)
    inv_var = np.exp(-lv)
    resid = mu - y
    fit = inv_var * resid**2
    loss = float(np.add.reduce(fit + lv) / batch) + weight_decay * float(theta @ theta)

    dmu = (2.0 * inv_var * resid / batch)[:, None]  # (B, 1)
    dlv = ((1.0 - fit) / batch)[:, None]
    for head, dout in (("m", dmu), ("v", dlv)):
        np.matmul(d2.T, dout, out=grads[f"W{head}"])
        np.add.reduce(dout, axis=0, out=grads[f"b{head}"])
    dd = np.matmul(dmu, params["Wm"].T, out=d2)  # d2 is read: dd2 takes its place
    dd += dlv @ params["Wv"].T
    for layer, (a, z) in ((2, (d1, z2)), (1, (X, z1))):
        np.multiply(dd, masks[layer - 1], out=dd)  # through the dropout, then the ReLU
        np.divide(dd, 1.0 - p, out=dd)
        np.multiply(dd, z > 0.0, out=dd)
        np.matmul(a.T, dd, out=grads[f"W{layer}"])
        np.add.reduce(dd, axis=0, out=grads[f"b{layer}"])
        if layer == 2:  # d1 is read: dd1 takes its place
            dd = np.matmul(dd, params["W2"].T, out=d1)
    g += 2.0 * weight_decay * theta
    return loss


def loss_and_grads(params, x, y, masks, p: float, weight_decay: float):
    """Mean heteroscedastic Gaussian NLL term plus L2 decay, with gradients.

    Loss = mean_i[ exp(-lv_i) (y_i - mu_i)^2 + lv_i ] + wd * sum(theta^2).
    Masks are taken as given so the gradient is exact for the realized
    stochastic forward pass. The gradients are views of one fresh flat
    vector, sharing no memory with ``params``.
    """
    theta, _ = _flatten(params)
    g, grads = _flatten(params)
    ws = _workspace(np.size(x), params)
    return _loss_and_grads_into(ws, theta, params, g, grads, x, y, masks, p, weight_decay), grads


@dataclass
class ToyModel:
    """Trained weights, named as in ``PARAM_NAMES``, and the dropout rate
    they were trained with. The hidden widths are read off the weights."""

    params: dict[str, np.ndarray]
    dropout_p: float

    @property
    def hidden(self) -> tuple[int, int]:
        return len(self.params["b1"]), len(self.params["b2"])


@dataclass
class TrainingTrace:
    """Per-epoch diagnostics of :func:`train`: every list holds one float per
    epoch, so ``n_epochs`` equals the configured ``epochs``.

    ``s`` is the closed-form sigma scale fitted on that epoch's deterministic
    validation pass; the weights are untouched by it.
    """

    train_mse: list[float] = field(default_factory=list)
    test_mse: list[float] = field(default_factory=list)
    train_sigma2: list[float] = field(default_factory=list)
    test_sigma2: list[float] = field(default_factory=list)
    train_nll: list[float] = field(default_factory=list)
    test_nll: list[float] = field(default_factory=list)
    s: list[float] = field(default_factory=list)

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


def _epoch_eval(ws, params, split: LabeledData):
    mu, lv, _ = _forward_into(ws, params, split.x)
    n = len(split.x)
    err_sq = (split.y - mu) ** 2
    sigma2 = np.exp(lv)
    nll = float(np.add.reduce(err_sq / sigma2 + lv) / n)  # np.mean without its wrapper
    return err_sq, sigma2, float(np.add.reduce(err_sq) / n), float(np.add.reduce(sigma2) / n), nll


def train(data: SyntheticData, cfg: ToyModelConfig | None = None):
    """Train the two-headed MLP for ``cfg.epochs`` epochs; returns (model, trace).

    Minimizes the mean per-sample Gaussian NLL term plus weight decay by
    minibatch Adam steps (``BATCH_SIZE``, ``STEP_SIZE``, ``WEIGHT_DECAY``;
    beta1=0.9, beta2=0.999, eps=1e-8) on one flat parameter vector, at a
    constant step size. Dropout is active on every training step. After each
    epoch sigma scaling is fitted on the validation split and recorded (see
    :class:`TrainingTrace`). The model returned holds the weights after the
    last epoch. Every training step and the three evaluation passes of every
    epoch write into one workspace sized to the largest split, the smaller
    batches using its leading rows; the trace holds Python floats computed
    from it, never views. Gradients go into one flat vector, and Adam updates
    its moments and theta in place in the order of the plain expressions
    ``B1 m + (1 - B1) g``, ``B2 v + ((1 - B2) g) g`` and
    ``(STEP_SIZE m_hat) / (sqrt(v_hat) + eps)``, so every step is
    bit-identical to them. Fully deterministic given cfg.seed.
    """
    cfg = cfg or ToyModelConfig()
    rng = np.random.default_rng(cfg.seed)
    theta, params = _flatten(init_params(HIDDEN, rng))
    g, grads = _flatten(params)
    adam_m, adam_v, scratch, denom = (np.zeros_like(theta) for _ in range(4))
    step = 0
    trace = TrainingTrace()
    m_train = len(data.train.x)
    ws = _workspace(max(len(split.x) for split in (data.train, data.test, data.val)), params)

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(m_train)
        for start in range(0, m_train, BATCH_SIZE):
            idx = perm[start : start + BATCH_SIZE]
            masks = draw_masks(rng, len(idx), HIDDEN, cfg.dropout_p)
            loss = _loss_and_grads_into(ws, theta, params, g, grads, data.train.x[idx],
                                        data.train.y[idx], masks, cfg.dropout_p, WEIGHT_DECAY)
            if not math.isfinite(loss):
                raise ValueError(
                    f"non-finite training loss at epoch {epoch}, batch {start // BATCH_SIZE}"
                )
            step += 1
            # m = B1 m + (1 - B1) g;  v = B2 v + ((1 - B2) g) g
            adam_m *= ADAM_BETA1
            adam_m += np.multiply(1.0 - ADAM_BETA1, g, out=scratch)
            adam_v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=scratch)
            adam_v += np.multiply(scratch, g, out=scratch)
            # theta -= (STEP_SIZE m_hat) / (sqrt(v_hat) + eps)
            np.divide(adam_m, 1.0 - ADAM_BETA1**step, out=scratch)
            scratch *= STEP_SIZE
            np.divide(adam_v, 1.0 - ADAM_BETA2**step, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            theta -= np.divide(scratch, denom, out=scratch)

        _, _, tr_mse, tr_s2, tr_nll = _epoch_eval(ws, params, data.train)
        _, _, te_mse, te_s2, te_nll = _epoch_eval(ws, params, data.test)
        va_err, va_s2_arr, _, _, _ = _epoch_eval(ws, params, data.val)
        s, _ = sigma_closed_form(va_err, va_s2_arr)
        trace.train_mse.append(tr_mse)
        trace.test_mse.append(te_mse)
        trace.train_sigma2.append(tr_s2)
        trace.test_sigma2.append(te_s2)
        trace.train_nll.append(tr_nll)
        trace.test_nll.append(te_nll)
        trace.s.append(s)

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
    batched dropout layers). Every pass writes into one workspace made for
    this call, and its outputs are copied into the returned arrays, which
    are never views of it. Deterministic given the seed.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    rng = np.random.default_rng(seed)
    m = len(data.x)
    all_mu = np.empty((n_passes, m))
    all_lv = np.empty((n_passes, m))
    ws = _workspace(m, model.params)
    for n in range(n_passes):
        masks = draw_masks(rng, m, model.hidden, model.dropout_p)
        mu, lv, _ = _forward_into(ws, model.params, data.x, masks=masks, p=model.dropout_p)
        all_mu[n] = mu
        all_lv[n] = lv
    return McPredictionSet(
        ids=[f"{id_prefix}-{i:05d}" for i in range(m)],
        y=data.y[:, None],
        means=all_mu.T[:, :, None],
        log_vars=all_lv.T,
    )


@dataclass
class ToyExperiment:
    """What :func:`experiment` computed: the trained model and its trace, the
    MC dumps keyed ``train``/``val``/``test``, the sigma and aux artifacts
    fitted on the val dump, and the summary ``regcal toy`` writes as
    ``summary.json``."""

    model: ToyModel
    trace: TrainingTrace
    dumps: dict[str, McPredictionSet]
    sigma: CalibrationArtifact
    aux: CalibrationArtifact
    summary: dict


def experiment(cfg: ToyModelConfig) -> ToyExperiment:
    """The toy experiment: train on the config's seed, MC-predict each split
    (pass seeds ``seed + 1``..``seed + 3`` for train/val/test), fit sigma
    scaling and the aux network on the val dump, and score the test dump
    under no, sigma and aux calibration.

    Each summary entry holds the test MSE, the NLL under the artifact's
    family, the UCE over ``DEFAULT_BINS`` bins in both modes and the joint
    coverage at ``DEFAULT_LEVELS`` keyed by ``repr(level)``; the sigma entry
    adds ``s``.
    """
    data = generate(cfg.seed)
    model, trace = train(data, cfg)
    splits = (("train", data.train), ("val", data.val), ("test", data.test))
    dumps = {name: mc_predict(model, split, cfg.mc_passes, seed=cfg.seed + i, id_prefix=name)
             for i, (name, split) in enumerate(splits, start=1)}

    val = uncertainty_records(dumps["val"])
    sigma = fit_sigma(val, target="predictive")
    aux = aux_fit(val, AuxConfig(seed=cfg.seed), target="predictive")

    test = uncertainty_records(dumps["test"])
    scores = {}
    for name, calib in (("none", identity_artifact()), ("sigma", sigma), ("aux", aux)):
        unc = apply_calibration(test, calib)
        table = coverage(unc, DEFAULT_LEVELS, calib.likelihood)
        scores[name] = {
            "mse": mse(unc),
            "nll": batch_nll(unc, calib.likelihood),
            "uce_predictive": uce(unc, k=DEFAULT_BINS, mode="predictive").uce,
            "uce_aleatoric_only": uce(unc, k=DEFAULT_BINS, mode="aleatoric_only").uce,
            "coverage": {repr(g): obs for g, obs in zip(table.levels, table.observed)},
        }
    scores["sigma"]["s"] = sigma.s
    summary = {"seed": cfg.seed, "epochs": cfg.epochs, "mc_passes": cfg.mc_passes,
               "interval_membership": "joint", "test": scores}
    return ToyExperiment(model, trace, dumps, sigma, aux, summary)


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

    Each trial is one record of N sample means drawn from N(mu, tau^2), every
    pass given the perfectly calibrated aleatoric variance (mu - y)^2 + tau^2/N
    (the expected squared error of the N-sample mean). The total decomposed by
    ``uncertainty_records`` is then an unbiased estimate of tau^2 + (mu - y)^2,
    so the trial average converges to it as trials grow.
    """
    if trials < 1 or n_passes < 1:
        raise ValueError("trials and n_passes must be >= 1")
    rng = np.random.default_rng(seed)
    draws = mu + tau * rng.standard_normal((trials, n_passes))
    sigma_hat_sq = (mu - y) ** 2 + tau**2 / n_passes
    with np.errstate(divide="ignore"):  # sigma_hat_sq = 0 gives log_var -inf, variance 0
        log_vars = np.full((trials, n_passes), np.log(sigma_hat_sq))
    pset = McPredictionSet([f"t{i}" for i in range(trials)], np.full((trials, 1), float(y)),
                           draws[:, :, None], log_vars)
    mean_estimate = float(uncertainty_records(pset).total.mean())
    true_sigma2 = tau**2 + (mu - y) ** 2
    if true_sigma2 > 0.0:
        rel = abs(mean_estimate - true_sigma2) / true_sigma2
    else:
        rel = 0.0 if mean_estimate == 0.0 else math.inf
    return UnbiasednessResult(mean_estimate, true_sigma2, rel)

