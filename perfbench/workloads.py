"""The four benchmark workloads: how each makes its inputs and checks each output.

Every operation is one in-process ``cmikit.cli.main(argv)`` call.  Inputs are
made from the workload seed during set-up and written as files; the program
sees only those files and the seed flag.  Paths are relative to the checkout
root so that payloads, which echo the input path, are byte-identical across
checkouts.

Sizes are chosen so that a 12-second run holds a fixed number of ops on a
2-core machine (ccmi 2, gencls 3, cit 1, ksg 5-7) even as op times swing by
+-15% with the machine's load, while each op still exercises the code path
its workload exists for (see ``why``).  The linear-I ccmi size keeps the gate-3
error bound (<= 0.3 nats) with margin on every seed tried (0.17-0.25 over
eight seeds at n = 10000, against up to 0.33 at n = 5000).  cit-20 keeps
gate 8's 20 specs at 1000 rows each instead of 2000: at 2000 rows one op
took 30-42 s, longer than a whole run.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

WORK = Path("perfbench") / "out" / "work"

# Gate 3 (tests/test_acceptance.py): ccmi within 0.3 nats of the truth, KSG
# at least 0.8 nats below it; both hold on every seed tried at these sizes.
# Gate 8: cit AuROC of at least 0.85.
CCMI_MAX_ERR = 0.3
KSG_MIN_GAP = 0.8
CIT_MIN_AUROC = 0.85


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def dir(self) -> Path:
        return WORK / self.name

    def outputs(self):
        """(payload path, manifest path) written by one op."""
        out = self.dir() / "result.json"
        return out, Path(str(out) + ".manifest.json")


@dataclass(frozen=True)
class Estimate(Workload):
    """``cmikit estimate`` on a linear-I dataset with d_z = 20."""

    method: str
    n: int
    extra: tuple = ()

    def write_inputs(self, cli, seed: int) -> None:
        argv = ["gen", "--model", "linear-i", "--n", str(self.n), "--dz", "20",
                "--seed", str(seed), "--out", str(self.dir() / "input.csv")]
        if cli.main(argv) != 0:
            raise RuntimeError(f"set-up of {self.name} failed: cmikit {' '.join(argv)}")

    def op_argv(self, seed: int) -> list:
        return ["estimate", "--in", str(self.dir() / "input.csv"), "--method", self.method,
                *self.extra, "--seed", str(seed), "--out", str(self.outputs()[0])]

    def check(self, payload: dict) -> tuple[list, dict]:
        """Gate violations of one payload, plus the accuracy figures it gives."""
        value = payload.get("value")
        truth = payload.get("diagnostics", {}).get("ground_truth")
        if not isinstance(value, float) or not math.isfinite(value) or truth is None:
            return [f"non-finite value {value!r}"], {}
        problems = []
        err = abs(value - truth)
        if self.method == "ccmi" and err > CCMI_MAX_ERR:
            problems.append(f"ccmi error {err:.4f} > {CCMI_MAX_ERR}")
        if self.method == "ksg" and truth - value < KSG_MIN_GAP:
            problems.append(f"ksg gap {truth - value:.4f} < {KSG_MIN_GAP}")
        return problems, {"value": value, "abs_err_nats": err}


@dataclass(frozen=True)
class Cit(Workload):
    """``cmikit cit`` on post-nonlinear specs with d_z = 5, the first half dependent."""

    n: int
    specs: int

    def write_inputs(self, cli, seed: int) -> None:
        # the datasets themselves are generated inside the op, from these spec seeds
        specs = [{"kind": "post-nonlinear", "n": self.n, "d_z": 5,
                  "dependent": i < self.specs // 2, "seed": 1000 * seed + i}
                 for i in range(self.specs)]
        self.dir().mkdir(parents=True, exist_ok=True)
        text = json.dumps({"specs": specs}, sort_keys=True, indent=2)
        (self.dir() / "config.json").write_text(text + "\n", encoding="utf-8")

    def op_argv(self, seed: int) -> list:
        return ["cit", "--config", str(self.dir() / "config.json"), "--seed", str(seed),
                "--out", str(self.outputs()[0])]

    def check(self, payload: dict) -> tuple[list, dict]:
        auroc = payload.get("metrics", {}).get("auroc")
        if not isinstance(auroc, float) or not 0.0 <= auroc <= 1.0:
            return [f"auroc {auroc!r} is not a number in [0, 1]"], {}
        # Gate 8's bound holds on its own seeds, not on every seed (0.81 with
        # estimator seed 2 on gate 8's datasets), so it is recorded, not failed.
        return [], {"auroc": auroc, "meets_gate8": auroc >= CIT_MIN_AUROC}


WORKLOADS = {w.name: w for w in (
    Estimate("ccmi-dz20", "the paper's headline: classifier CMI at d_z=20; nn training dominates, no knn calls",
             method="ccmi", n=10000),
    Estimate("ksg-dz20", "the KSG baseline the paper beats; the z-subspace ball pass dominates, nn does no work",
             method="ksg", n=4000, extra=("--k", "3,5,10")),
    Estimate("gencls-dz20", "generator route: the only user of the knn resampler and of classifier_dkl_paired",
             method="gen-classifier", n=2000),
    Cit("cit-20", "CI testing laid out as in gate 8 (20 post-nonlinear specs, d_z=5) at half the rows: "
        "the only user of cit and datagen, 80 small fits", n=1000, specs=20),
)}
