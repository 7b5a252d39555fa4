"""Seeded Monte-Carlo prediction dumps that underestimate their uncertainty.

Each record has an input x ~ U(0, 1), a ground truth per output dimension
``y = f(x) + sigma(x) * eps`` with noise that grows with x, and N
stochastic forward passes of a model that

* is off by a model error of sd ``0.5 * sigma`` (shared by all passes),
* spreads its passes by only half of that error (epistemic underestimate),
* predicts half of the true noise variance (aleatoric underestimate).

So the predicted total variance is about 0.56 of the observed one and the
fitted sigma-scaling factor comes out near 1.5, the way the paper's
overfitted models behave. A ``noise_scale`` above 1 gives a shifted set
with higher uncertainty.

Dumps are written in the documented JSONL format with this module's own
writer, byte for byte as the program's own ``save_dump`` would write them
(compact separators, shortest round-trip float repr), so the arrays held
here are exactly what the program parses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Dump:
    """One dump as dense arrays: ids (m,), y (m, d), means (m, N, d), log_vars (m, N)."""

    ids: list[str]
    y: np.ndarray
    means: np.ndarray
    log_vars: np.ndarray

    @property
    def array_bytes(self) -> int:
        return self.y.nbytes + self.means.nbytes + self.log_vars.nbytes


def make_dump(name: str, m: int, n: int, d: int, seed: int, stream: int,
              noise_scale: float = 1.0) -> Dump:
    """Draw one dump; (seed, stream) fixes every value."""
    rng = np.random.default_rng([seed, stream])
    x = rng.uniform(0.0, 1.0, size=m)
    phase = np.arange(d) / d
    f = x[:, None] + 0.3 * np.sin(2.0 * np.pi * (x[:, None] + phase))  # (m, d)
    sigma = noise_scale * (0.05 + 0.10 * x)  # (m,)
    y = f + sigma[:, None] * rng.standard_normal((m, d))
    tau = 0.5 * sigma
    center = f + tau[:, None] * rng.standard_normal((m, d))
    means = center[:, None, :] + 0.5 * tau[:, None, None] * rng.standard_normal((m, n, d))
    log_vars = np.log(0.5 * sigma**2)[:, None] + 0.1 * rng.standard_normal((m, n))
    ids = [f"{name}-{i:06d}" for i in range(m)]
    return Dump(ids=ids, y=y, means=means, log_vars=log_vars)


def dump_lines(dump: Dump):
    """Yield the JSONL lines (without newline) of a dump."""
    ys = dump.y.tolist()
    means = dump.means.tolist()
    lvs = dump.log_vars.tolist()
    for rid, y, mu, lv in zip(dump.ids, ys, means, lvs):
        samples = ",".join(
            '{"mean":[%s],"log_var":%r}' % (",".join(map(repr, mu_j)), lv_j)
            for mu_j, lv_j in zip(mu, lv)
        )
        yield '{"id":%s,"y":[%s],"samples":[%s]}' % (json.dumps(rid), ",".join(map(repr, y)), samples)


def write_dump(dump: Dump, path) -> int:
    """Write a dump as JSONL; returns the number of bytes written."""
    text = "".join(line + "\n" for line in dump_lines(dump))
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_dump(path) -> Dump:
    """Parse a JSONL dump with the standard library only (no validation)."""
    ids, ys, means, lvs = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            ids.append(rec["id"])
            ys.append(rec["y"])
            means.append([s["mean"] for s in rec["samples"]])
            lvs.append([s["log_var"] for s in rec["samples"]])
    return Dump(ids=ids, y=np.array(ys, dtype=float), means=np.array(means, dtype=float),
                log_vars=np.array(lvs, dtype=float))
