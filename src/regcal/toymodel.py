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
laid out as the parameters. Both take the weights as a tuple unpacked once
by the caller (see :func:`_layers`), so a call is its numpy operations and
little else. The first layer is one matrix product: the inputs as ``[x, 1]``
rows of shape (rows, 2) times ``L1 = [W1; b1]`` of shape (2, h1). In the flat
parameter vector b1 directly follows W1, so there ``L1`` is a view of its
first ``2 * h1`` entries; a dict of weights is stacked once per call. The
backward pass reads x as a contiguous column, and the gradients come in
``PARAM_NAMES`` order. :func:`forward` and :func:`loss_and_grads` give them
fresh buffers per call. :func:`train` takes the ``L1`` view once, so Adam's
in-place updates show through it, and makes its workspaces, gradient and
Adam buffers once. Each epoch draws all its minibatches' dropout masks in
one call, in the stream order of one :func:`draw_masks` call per batch,
and gathers its permuted training rows once, so each batch is a slice of
that gather; the backward pass reads each layer's 0/1 mask as ``d > 0``.
The epoch then ends in one deterministic pass over the concatenated
``[train | test | val]`` inputs, whose per-split means and sigma fit equal
three separate passes bit for bit. That pass has no dropout, so it folds
b2 into its layer-2 product: layer 1 as ``[x, 1] @ [[W1, 0], [b1, 1]]``
ends in a column of ones, which multiplies ``[W2; b2]``, a view of the
flat vector (b2 follows W2). The training steps and :func:`mc_predict`,
whose dropout would make those buffers strided, keep the separate bias
add. :func:`mc_predict` reuses one workspace, so a 512-row pass maps no new
pages. Nothing returned is a view of a reused buffer.

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
    keep = (rng.random(batch * sum(hidden)) < 1.0 - p).astype(float)
    return _split_masks(keep, batch, hidden)


def _split_masks(keep: np.ndarray, batch: int, hidden: tuple[int, int]):
    """The two layers' masks of a batch, views of its flat keep vector: the
    first ``batch * h1`` entries, then the rest."""
    h1, h2 = hidden
    return keep[: batch * h1].reshape(batch, h1), keep[batch * h1 :].reshape(batch, h2)


def _epoch_masks(rows: int, batch: int, hidden: tuple[int, int], p: float):
    """The keep masks of one epoch's minibatches, drawn at once.

    Returns ``(draw, masks)``. ``masks`` lists each batch's pair of masks, for
    batches of ``batch`` consecutive rows out of ``rows`` (the last may be
    shorter), as views of one flat vector of ``rows * (h1 + h2)`` entries.
    ``draw(rng)`` refills that vector with one ``rng.random`` call, laid out
    as successive :func:`draw_masks` calls over the batches draw them, so the
    masks equal theirs and the stream is left where they leave it."""
    width = sum(hidden)
    uniforms, keep = np.empty(rows * width), np.empty(rows * width)
    masks = [_split_masks(keep[start * width : (start + n) * width], n, hidden)
             for start in range(0, rows, batch) for n in [min(batch, rows - start)]]

    def draw(rng: np.random.Generator) -> None:
        rng.random(out=uniforms)
        np.less(uniforms, 1.0 - p, out=keep)

    return draw, masks


def _workspace(rows: int, weights, cache: bool = True) -> tuple[np.ndarray, ...]:
    """Uninitialised buffers for a forward pass over ``rows`` inputs:
    (z1, d1, z2, d2, mu, log_var), hidden widths read off ``weights`` as
    :func:`_layers` gives them.
    Without ``cache`` each activation shares its pre-activation's buffer, so
    the ReLU and the dropout run in place: enough for a pass that no
    backward pass reads, and half the memory."""
    h1, h2 = weights[0].shape[1], weights[1].shape[1]
    z1, z2 = np.empty((rows, h1)), np.empty((rows, h2))
    d1, d2 = (np.empty((rows, h1)), np.empty((rows, h2))) if cache else (z1, z2)
    return z1, d1, z2, d2, np.empty((rows, 1)), np.empty((rows, 1))


def _unpack(named) -> tuple[np.ndarray, ...]:
    """The arrays of a parameter-shaped dict in ``PARAM_NAMES`` order; views
    of a flat vector keep showing its in-place updates."""
    return tuple(named[name] for name in PARAM_NAMES)


def _layers(named, theta: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The weights of a forward pass: ``L1 = [W1; b1]`` of shape (2, h1), then
    W2, b2, Wm, bm, Wv and bv. Given the flat vector ``theta`` whose views
    ``named`` are (:func:`_flatten`), ``L1`` is a view of its first
    ``2 * h1`` entries, since b1 follows W1 in ``PARAM_NAMES`` order, and
    in-place updates of theta show through it; otherwise it is stacked, a
    copy."""
    W1, b1, *rest = _unpack(named)
    L1 = np.vstack((W1, b1)) if theta is None else theta[: W1.size + b1.size].reshape(2, -1)
    return (L1, *rest)


def _inputs(x) -> np.ndarray:
    """The inputs as ``[x, 1]`` rows, shape (rows, 2): ``[x, 1] @ L1`` is
    ``x W1 + b1``."""
    x = np.asarray(x, dtype=float).ravel()
    X1 = np.ones((len(x), 2))
    X1[:, 0] = x
    return X1


def _forward_into(ws, weights, X1, masks=None, p: float = 0.0, parts=(slice(None),)) -> None:
    """The forward pass of the ``[x, 1]`` input rows ``X1`` (rows, 2) into
    workspace ``ws``, whose buffers have exactly as many rows; ``weights`` as
    :func:`_layers` gives them, or as :func:`_folded_layers` does, whose None
    for b2 skips its add.

    Every step writes into a buffer of ``ws`` in the order of the plain
    expressions (``x W1 + b1``, then ``maximum``, then ``a * mask / (1 - p)``),
    so results are bit-identical to them. The elementwise steps and the first
    layer, which rounds every row as ``x W1 + b1`` does, run once over all
    rows; each later matrix product runs once per row range in ``parts``, on
    views, since a BLAS product's rounding of a row may depend on how many
    rows it is given. So every row equals a pass over its part alone.
    """
    L1, W2, b2, Wm, bm, Wv, bv = weights
    z1, d1, z2, d2, mu, log_var = ws
    if min(z1.shape) > 1:
        # K = 2 summed in k order, round(round(x W1) + 1 b1): the rounding of
        # the plain expression (tested bit for bit against it)
        np.matmul(X1, L1, out=z1)
    else:
        # numpy sends a one-row or one-column product to BLAS's matrix-vector
        # kernel, which may fuse x W1 + b1 into one rounding
        np.multiply(X1[:, :1], L1[:1], out=z1)
        np.add(z1, L1[1], out=z1)
    np.maximum(z1, 0.0, out=d1)  # ReLU
    if masks is not None:  # inverted dropout: d * mask / (1 - p)
        np.multiply(d1, masks[0], out=d1)
        np.divide(d1, 1.0 - p, out=d1)
    for rows in parts:
        np.matmul(d1[rows], W2, out=z2[rows])
    if b2 is not None:  # None: folded into W2 (see _folded_layers)
        np.add(z2, b2, out=z2)
    np.maximum(z2, 0.0, out=d2)
    if masks is not None:
        np.multiply(d2, masks[1], out=d2)
        np.divide(d2, 1.0 - p, out=d2)
    for rows in parts:
        np.matmul(d2[rows], Wm, out=mu[rows])
        np.matmul(d2[rows], Wv, out=log_var[rows])
    np.add(mu, bm, out=mu)
    np.add(log_var, bv, out=log_var)


def _column(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1, 1)


def forward(params, x: np.ndarray, masks=None, p: float = 0.0):
    """Forward pass; masks=None runs the deterministic (no-dropout) path.

    Returns (mu, log_var, cache) with mu/log_var of shape (batch,), all
    computed into a workspace of their own.
    """
    X, weights = _column(x), _layers(params)
    z1, d1, z2, d2, mu, log_var = ws = _workspace(len(X), weights)
    _forward_into(ws, weights, _inputs(x), masks, p)
    return mu[:, 0], log_var[:, 0], (X, z1, d1, z2, d2)


def _loss_and_grads_into(ws, theta, weights, g, grads, X, X1, Y, masks, p: float,
                         weight_decay: float) -> float:
    """The loss of :func:`loss_and_grads` for the input column ``X``, the
    same inputs as ``[x, 1]`` rows ``X1`` and the target column ``Y``; the
    gradients are written into the flat ``g`` through ``grads``, its views in
    ``theta``'s layout unpacked in ``PARAM_NAMES`` order. ``weights`` are
    as :func:`_layers` gives them. The forward pass computes into workspace
    ``ws``, and the backward pass reuses its hidden-layer buffers once they
    are read; gW1 reads the contiguous ``X``, not a column of ``X1``, whose
    strided product BLAS may sum in another order.

    The masks are 0/1 keep masks (:func:`draw_masks`). A hidden unit passes
    gradient exactly where its dropped-out activation ``d`` is positive: it
    was kept and its ReLU passed. So the backward pass multiplies by
    ``d > 0``, read into the pre-activation's buffer before ``d``'s is
    overwritten, and then divides by ``1 - p``: multiplying by 0 or 1 is
    exact and keeps a zero's sign, so this equals ``dd * mask / (1 - p) *
    (z > 0)`` bit for bit."""
    _forward_into(ws, weights, X1, masks, p)
    z1, d1, z2, d2, mu, lv = ws
    _, W2, _, Wm, _, Wv, _ = weights
    gW1, gb1, gW2, gb2, gWm, gbm, gWv, gbv = grads
    batch = len(Y)
    inv_var = np.exp(-lv)
    resid = mu - Y
    fit = inv_var * resid**2
    loss = float(np.add.reduce(fit + lv, axis=None) / batch) + weight_decay * float(theta @ theta)

    dmu = 2.0 * inv_var * resid / batch  # (B, 1)
    dlv = (1.0 - fit) / batch
    np.matmul(d2.T, dmu, out=gWm)
    np.add.reduce(dmu, axis=0, out=gbm)
    np.matmul(d2.T, dlv, out=gWv)
    np.add.reduce(dlv, axis=0, out=gbv)
    np.greater(d2, 0.0, out=z2)  # kept and through the ReLU; z2 is read
    dd = np.matmul(dmu, Wm.T, out=d2)  # d2 is read: dd2 takes its place
    dd += dlv @ Wv.T
    np.multiply(dd, z2, out=dd)  # through the ReLU and the dropout
    np.divide(dd, 1.0 - p, out=dd)
    np.matmul(d1.T, dd, out=gW2)
    np.add.reduce(dd, axis=0, out=gb2)
    np.greater(d1, 0.0, out=z1)
    dd = np.matmul(dd, W2.T, out=d1)  # d1 is read: dd1 takes its place
    np.multiply(dd, z1, out=dd)
    np.divide(dd, 1.0 - p, out=dd)
    np.matmul(X.T, dd, out=gW1)
    np.add.reduce(dd, axis=0, out=gb1)
    g += 2.0 * weight_decay * theta
    return loss


def loss_and_grads(params, x, y, masks, p: float, weight_decay: float):
    """Mean heteroscedastic Gaussian NLL term plus L2 decay, with gradients.

    Loss = mean_i[ exp(-lv_i) (y_i - mu_i)^2 + lv_i ] + wd * sum(theta^2).
    Masks are taken as given so the gradient is exact for the realized
    stochastic forward pass. The gradients are views of one fresh flat
    vector, sharing no memory with ``params``.
    """
    theta, views = _flatten(params)
    g, grads = _flatten(params)
    X, weights = _column(x), _layers(views, theta)
    loss = _loss_and_grads_into(_workspace(len(X), weights), theta, weights, g, _unpack(grads), X,
                                _inputs(x), _column(y), masks, p, weight_decay)
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


def _folded_layers(params, theta: np.ndarray) -> tuple[np.ndarray | None, ...]:
    """The weights of a pass without dropout with b2 folded into layer 2's
    product, as :func:`_forward_into` takes them: ``[[W1, 0], [b1, 1]]``,
    ``[W2; b2]``, None in b2's place, then Wm, bm, Wv and bv; ``params`` are
    views of the flat vector ``theta`` (:func:`_flatten`).

    Layer 1's contiguous (rows, h1 + 1) output then ends in a column of exact
    ones (``x 0 + 1``), which the ReLU keeps, and which multiplies b2, the
    last row of ``[W2; b2]``. That matrix and the heads are views of theta,
    since b2 follows W2 in ``PARAM_NAMES`` order, so theta's in-place updates
    show through them; the first layer's matrix is a copy."""
    L1, W2, b2, *heads = _layers(params, theta)
    h1 = len(W2)
    L1_one = np.zeros((2, h1 + 1))
    L1_one[:, :h1] = L1
    L1_one[1, h1] = 1.0
    W2_b2 = theta[L1.size : L1.size + W2.size + b2.size].reshape(h1 + 1, -1)
    return (L1_one, W2_b2, None, *heads)


def _evaluator(data: SyntheticData, params, theta: np.ndarray):
    """The deterministic evaluation that ends every epoch of :func:`train`.

    Returns a function of no arguments that runs one forward pass of the
    current weights, ``params`` as views of the flat vector ``theta``
    (:func:`_flatten`), whose in-place updates it reads at every call, over
    the concatenated ``[train | test | val]`` inputs and returns the trace's
    entries for that epoch, in field order: MSE, mean sigma^2 and NLL term
    of the train and test splits, and the closed-form sigma scale of the val
    split. Squared errors, variances and NLL terms are computed once for all
    rows; each split's mean reduces its contiguous slice, so every value
    equals the per-split expressions bit for bit. Buffers are made once, here.

    The pass runs on :func:`_folded_layers`, b2 inside the layer-2 product;
    the extended first layer, a copy, is refreshed from theta at every call.
    """
    L1 = _layers(params, theta)[0]
    weights = _folded_layers(params, theta)
    W1_b1 = weights[0][:, :-1]
    splits = (data.train, data.test, data.val)
    X1 = _inputs(np.concatenate([split.x for split in splits]))
    y = np.concatenate([split.y for split in splits])
    ws = _workspace(len(y), weights, cache=False)
    mu, log_var = ws[4][:, 0], ws[5][:, 0]
    err_sq, sigma2, nll = np.empty(len(y)), np.empty(len(y)), np.empty(len(y))
    n_train, n_test = len(data.train.x), len(data.test.x)
    train_rows, test_rows = slice(0, n_train), slice(n_train, n_train + n_test)
    val_rows = slice(n_train + n_test, len(y))

    def evaluate() -> tuple[float, ...]:
        np.copyto(W1_b1, L1)
        _forward_into(ws, weights, X1, parts=(train_rows, test_rows, val_rows))
        np.subtract(y, mu, out=err_sq)
        np.square(err_sq, out=err_sq)
        np.exp(log_var, out=sigma2)
        np.divide(err_sq, sigma2, out=nll)
        np.add(nll, log_var, out=nll)
        # np.mean without its wrapper
        tr_mse, tr_s2, tr_nll, te_mse, te_s2, te_nll = (
            float(np.add.reduce(values[rows]) / (rows.stop - rows.start))
            for rows in (train_rows, test_rows) for values in (err_sq, sigma2, nll))
        s, _ = sigma_closed_form(err_sq[val_rows], sigma2[val_rows])
        return tr_mse, te_mse, tr_s2, te_s2, tr_nll, te_nll, s

    return evaluate


def train(data: SyntheticData, cfg: ToyModelConfig | None = None):
    """Train the two-headed MLP for ``cfg.epochs`` epochs; returns (model, trace).

    Minimizes the mean per-sample Gaussian NLL term plus weight decay by
    minibatch Adam steps (``BATCH_SIZE``, ``STEP_SIZE``, ``WEIGHT_DECAY``;
    beta1=0.9, beta2=0.999, eps=1e-8) on one flat parameter vector, at a
    constant step size. Dropout is active on every training step. After each
    epoch one deterministic pass over all three splits gives the trace's
    entries, sigma scaling fitted on the validation split among them (see
    :class:`TrainingTrace` and :func:`_evaluator`). The model returned holds
    the weights after the last epoch.

    Weights and gradients are views of two flat vectors, unpacked once, and
    the first layer's ``L1 = [W1; b1]`` is a view of theta too (see
    :func:`_layers`). Each batch length has a workspace of its own and the
    evaluation one for all rows, all made before the first epoch, and the
    trace holds Python floats computed from them, never views. Each epoch
    draws all its batches' masks at once (:func:`_epoch_masks`) and gathers
    its permuted rows once; a batch is a slice of them. Adam updates
    its moments and theta in place in the order of the plain expressions
    ``B1 m + (1 - B1) g``, ``B2 v + ((1 - B2) g) g`` and
    ``(STEP_SIZE m_hat) / (sqrt(v_hat) + eps)``, so every step is
    bit-identical to them. Fully deterministic given cfg.seed.
    """
    cfg = cfg or ToyModelConfig()
    p = cfg.dropout_p
    rng = np.random.default_rng(cfg.seed)
    theta, params = _flatten(init_params(HIDDEN, rng))
    g, grads = _flatten(params)
    weights, grad_views = _layers(params, theta), _unpack(grads)
    adam_m, adam_v, scratch, denom = (np.zeros_like(theta) for _ in range(4))
    step = 0
    trace = TrainingTrace()
    columns = (trace.train_mse, trace.test_mse, trace.train_sigma2, trace.test_sigma2,
               trace.train_nll, trace.test_nll, trace.s)
    evaluate = _evaluator(data, params, theta)
    train_rows = (_column(data.train.x), _inputs(data.train.x), _column(data.train.y))
    m_train = len(data.train.x)
    draw, masks = _epoch_masks(m_train, BATCH_SIZE, HIDDEN, p)
    workspaces = {len(mask[0]): _workspace(len(mask[0]), weights) for mask in masks}
    batches = [(slice(start, start + len(mask[0])), workspaces[len(mask[0])], mask)
               for start, mask in zip(range(0, m_train, BATCH_SIZE), masks)]

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(m_train)
        draw(rng)  # every batch's masks, in the stream order of one draw per batch
        X, X1, Y = (values[perm] for values in train_rows)  # a batch is a slice of these
        for batch, (rows, ws, mask) in enumerate(batches):
            loss = _loss_and_grads_into(ws, theta, weights, g, grad_views, X[rows], X1[rows],
                                        Y[rows], mask, p, WEIGHT_DECAY)
            if not math.isfinite(loss):
                raise ValueError(f"non-finite training loss at epoch {epoch}, batch {batch}")
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

        for column, value in zip(columns, evaluate()):
            column.append(value)

    return ToyModel(params=params, dropout_p=p), trace


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
    X1 = _inputs(data.x)
    weights = _layers(model.params)
    ws = _workspace(m, weights, cache=False)
    for n in range(n_passes):
        masks = draw_masks(rng, m, model.hidden, model.dropout_p)
        _forward_into(ws, weights, X1, masks, model.dropout_p)
        all_mu[n] = ws[4][:, 0]
        all_lv[n] = ws[5][:, 0]
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

