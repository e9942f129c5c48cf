"""Synthetic benchmarks with known conditional mutual information.

Five families: correlated Gaussian pairs, two linear additive models, a
bounded nonlinear model, and a post-nonlinear conditional-independence
testing model.  Each generator is a pure function of its arguments and seed,
and returns the dataset together with its ground truth (analytic where a
closed form exists, a high-sample neighbor estimate on the nonlinear model's
sufficient statistic otherwise).
"""

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .data import SampleSet
from .knn import ksg_cmi
from .nn import check_type
from .seeding import derive_seed, rng_from

__all__ = [
    "ModelSpec",
    "GroundTruth",
    "NonlinearModel",
    "gen_gauss_corr",
    "gen_linear",
    "gen_nonlinear",
    "nonlinear_ground_truth",
    "gen_post_nonlinear_cit",
    "generate",
    "dataset_metadata",
    "MODEL_KINDS",
    "KIND_FIELDS",
]

# The ModelSpec fields each kind reads besides kind, n and seed: ``generate`` reads no others.
KIND_FIELDS = {
    "gauss-corr": ("d_x", "d_y", "rho"),
    "linear-i": ("d_z", "sigma_eps"),
    "linear-ii": ("d_z", "sigma_eps"),
    "nonlinear": ("d_z",),
    "post-nonlinear": ("d_z", "dependent"),
}
MODEL_KINDS = tuple(KIND_FIELDS)


@dataclass(frozen=True)
class ModelSpec:
    """User-facing knobs for one synthetic dataset; fields its kind does not read keep their defaults."""

    kind: str
    n: int
    d_x: int = 1
    d_y: int = 1
    d_z: int = 0
    rho: float = 0.5
    sigma_eps: float = 0.1
    dependent: bool = True
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.strip().lower())
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            check_type(f.name, f.type, value)
        for name in ("d_x", "d_y", "d_z", "rho", "sigma_eps", "dependent"):
            if name not in KIND_FIELDS[self.kind] and getattr(self, name) != getattr(ModelSpec, name):
                raise ValueError(f"{name} is not read by model {self.kind!r}; leave it at its default")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.sigma_eps <= 0:
            raise ValueError("sigma_eps must be positive")
        if self.kind != "gauss-corr" and self.d_z < 1:
            raise ValueError(f"{self.kind} requires d_z >= 1")


@dataclass(frozen=True)
class GroundTruth:
    value: float
    method: str  # "analytic" | "ksg-on-u" | "label"


def gen_gauss_corr(d: int, rho: float, n: int, seed: int) -> tuple[SampleSet, GroundTruth]:
    """d independent coordinate pairs, each bivariate normal with correlation rho.

    I(X;Y) = -(d/2) ln(1 - rho^2) nats.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    rng = rng_from(seed, 1)
    x = rng.normal(size=(n, d))
    y = rho * x + np.sqrt(1.0 - rho * rho) * rng.normal(size=(n, d))
    truth = -0.5 * d * np.log1p(-rho * rho)
    return SampleSet(x, y, np.empty((n, 0))), GroundTruth(float(truth), "analytic")


def gen_linear(model: str, d_z: int, n: int, sigma_eps: float = 0.1, seed: int = 0) -> tuple[SampleSet, GroundTruth]:
    """Additive models Y = X + eps with conditioning entering only the noise mean.

    Model I: Z uniform on (-0.5, 0.5)^dz, eps ~ N(Z_1, sigma^2).
    Model II: Z standard normal, eps ~ N(w.Z, sigma^2) with a fixed unit-l1
    weight vector drawn once per dataset.

    Given Z, (X, Y) is jointly Gaussian, so I(X;Y|Z) = 0.5 ln(1 + 1/sigma^2)
    regardless of d_z.
    """
    m = model.strip().lower().removeprefix("linear-")
    if m not in ("i", "ii"):
        raise ValueError(f"model must be 'I' or 'II', got {model!r}")
    if d_z < 1:
        raise ValueError("d_z must be >= 1")
    if sigma_eps <= 0:
        raise ValueError("sigma_eps must be positive")
    rng = rng_from(seed, 2)
    x = rng.normal(size=(n, 1))
    if m == "i":
        z = rng.uniform(-0.5, 0.5, size=(n, d_z))
        mean = z[:, 0]
    else:
        z = rng.normal(size=(n, d_z))
        w = rng_from(seed, 3).normal(size=d_z)
        w /= np.sum(np.abs(w))  # unit l1 norm, constant across rows
        mean = z @ w
    y = x[:, 0] + rng.normal(mean, sigma_eps)
    truth = 0.5 * np.log1p(1.0 / sigma_eps**2)
    return SampleSet(x, y[:, None], z), GroundTruth(float(truth), "analytic")


# --- nonlinear model --------------------------------------------------------

_BOUNDED = {
    "cos": np.cos,
    "tanh": np.tanh,
    "exp-abs": lambda t: np.exp(-np.abs(t)),
}


@dataclass(frozen=True)
class NonlinearModel:
    """Realized parameters of one nonlinear dataset: fixed per seed."""

    d_z: int
    f1_name: str
    f2_name: str
    a_zy: np.ndarray  # unit l2 norm, length d_z
    a_xy: float = 2.0
    noise_var: float = 0.1
    seed: int = 0

    def sample(self, n: int, draw_seed: int) -> SampleSet:
        rng = rng_from(draw_seed)
        z = rng.normal(1.0, 1.0, size=(n, self.d_z))
        sd = np.sqrt(self.noise_var)
        x = _BOUNDED[self.f1_name](rng.normal(0.0, sd, size=(n, 1)))
        arg = z @ self.a_zy + self.a_xy * x[:, 0] + rng.normal(0.0, sd, size=n)
        y = _BOUNDED[self.f2_name](arg)
        return SampleSet(x, y[:, None], z)

    def summary(self, z: np.ndarray) -> np.ndarray:
        """The scalar through which z acts on y; conditioning on it equals conditioning on z."""
        return (z @ self.a_zy)[:, None]


def gen_nonlinear(d_z: int, n: int, seed: int = 0) -> tuple[SampleSet, NonlinearModel]:
    """X a bounded transform of noise; Y a bounded transform of a_zy.Z + 2X + noise.

    The transforms and the unit-norm mixing vector are drawn once per seed
    and then held fixed.  Ground truth comes from ``nonlinear_ground_truth``.
    """
    if d_z < 1:
        raise ValueError("d_z must be >= 1")
    rng = rng_from(seed, 4)
    names = sorted(_BOUNDED)
    f1 = names[rng.integers(len(names))]
    f2 = names[rng.integers(len(names))]
    a = rng.normal(size=d_z)
    a /= np.linalg.norm(a)
    model = NonlinearModel(d_z, f1, f2, a, seed=seed)
    return model.sample(n, derive_seed(seed, 5)), model


def nonlinear_ground_truth(model: NonlinearModel, oracle_n: int = 50000, k: int = 3, draw: int = 0) -> GroundTruth:
    """Reference value for the nonlinear model via its scalar conditioning summary.

    Because z enters y only through a_zy.z, I(X;Y|Z) = I(X;Y|a_zy.Z); the
    latter has a 1-dimensional conditioning block where the neighbor
    estimator is reliable, so it is evaluated on fresh samples.
    """
    fresh = model.sample(oracle_n, derive_seed(model.seed, 6, draw))
    d = SampleSet(fresh.x, fresh.y, model.summary(fresh.z))
    return GroundTruth(ksg_cmi(d, k=k, seed=derive_seed(model.seed, 7, draw)), "ksg-on-u")


def gen_post_nonlinear_cit(d_z: int, n: int, dependent: bool, seed: int = 0) -> tuple[SampleSet, bool]:
    """Cosine post-nonlinear model for conditional-independence testing.

    X = cos(a_x.Z + e1) always; Y = cos(b_y.Z + e2) when conditionally
    independent, Y = cos(c X + b_y.Z + e2) otherwise.  The projections and
    the coupling c are fixed within a dataset and redrawn across seeds.
    """
    if d_z < 1:
        raise ValueError("d_z must be >= 1")
    par = rng_from(seed, 8)
    a_x = par.uniform(0.0, 1.0, size=d_z)
    a_x /= np.linalg.norm(a_x)
    b_y = par.uniform(0.0, 1.0, size=d_z)
    b_y /= np.linalg.norm(b_y)
    c = par.uniform(0.0, 2.0)
    rng = rng_from(seed, 9)
    z = rng.normal(1.0, 1.0, size=(n, d_z))
    sigma_e = 0.5
    x = np.cos(z @ a_x + rng.normal(0.0, sigma_e, size=n))
    arg = z @ b_y + rng.normal(0.0, sigma_e, size=n)
    if dependent:
        arg = arg + c * x
    y = np.cos(arg)
    return SampleSet(x[:, None], y[:, None], z), bool(dependent)


# --- dispatch and file output -----------------------------------------------

def generate(spec: ModelSpec) -> tuple[SampleSet, GroundTruth]:
    """Produce the dataset and ground truth described by ``spec``."""
    if spec.kind == "gauss-corr":
        if spec.d_x != spec.d_y:
            raise ValueError("gauss-corr pairs coordinates; d_x must equal d_y")
        return gen_gauss_corr(spec.d_x, spec.rho, spec.n, spec.seed)
    if spec.kind in ("linear-i", "linear-ii"):
        return gen_linear(spec.kind, spec.d_z, spec.n, spec.sigma_eps, spec.seed)
    if spec.kind == "nonlinear":
        d, model = gen_nonlinear(spec.d_z, spec.n, spec.seed)
        return d, nonlinear_ground_truth(model)
    d, label = gen_post_nonlinear_cit(spec.d_z, spec.n, spec.dependent, spec.seed)
    return d, GroundTruth(float(label), "label")


def dataset_metadata(spec: ModelSpec, d: SampleSet, truth: GroundTruth) -> dict:
    """Sidecar payload describing one generated dataset."""
    return {
        "kind": spec.kind,
        "n": d.n,
        "d_x": d.dx,
        "d_y": d.dy,
        "d_z": d.dz,
        "rho": spec.rho,
        "sigma_eps": spec.sigma_eps,
        "dependent": spec.dependent,
        "seed": spec.seed,
        "ground_truth": truth.value,
        "ground_truth_method": truth.method,
    }

