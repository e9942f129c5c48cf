"""scipy loads on the first kNN call, and before any fork whose workers run kNN code.

Each check runs a script in a fresh interpreter, because this test process
has scipy loaded already (test_acceptance.py and test_cit.py import it).
A script prints the fact it checks as its last stdout line.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script, cwd, threads="1"):
    """Last stdout line of ``script`` run in a new interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), CMIKIT_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    assert run_fresh("""
        import sys
        import cmikit.cli
        print("scipy" in sys.modules)
    """, tmp_path) == "False"


def test_classifier_commands_run_without_scipy(tmp_path):
    # one thread: every fit runs in this process, so its modules are all there is
    (tmp_path / "est.json").write_text(json.dumps(
        {"bootstrap": 1, "divergence": {"train": {"epochs": 1}}}), encoding="utf-8")
    specs = [{"kind": "post-nonlinear", "n": 200, "d_z": 2, "dependent": i == 0, "seed": 600 + i}
             for i in range(2)]
    (tmp_path / "cit.json").write_text(json.dumps(
        {"specs": specs, "estimator": {"divergence": {"train": {"epochs": 1}}}}), encoding="utf-8")
    assert run_fresh("""
        import sys
        from cmikit.cli import main
        assert main(["gen", "--model", "linear-i", "--n", "300", "--dz", "2", "--out", "d.csv"]) == 0
        assert main(["estimate", "--in", "d.csv", "--method", "ccmi", "--config", "est.json",
                     "--out", "ccmi.json"]) == 0
        assert main(["cit", "--config", "cit.json", "--out", "cit_out.json"]) == 0
        print("scipy" in sys.modules)
    """, tmp_path) == "False"


def test_knn_names_load_scipy_on_first_use(tmp_path):
    assert run_fresh("""
        import sys
        from cmikit import knn
        assert "scipy" not in sys.modules
        assert callable(knn.cdist) and callable(knn.cKDTree)
        try:
            knn.no_such_name
        except AttributeError:
            print("scipy.spatial" in sys.modules)
    """, tmp_path) == "True"


def test_ksg_cmi_loads_scipy(tmp_path):
    assert run_fresh("""
        import sys
        from cmikit.datagen import gen_linear
        from cmikit.knn import ksg_cmi
        d, _ = gen_linear("I", d_z=1, n=200, seed=1)
        assert "scipy" not in sys.modules
        ksg_cmi(d, k=3)
        print("scipy.spatial" in sys.modules)
    """, tmp_path) == "True"


def test_a_tree_class_bound_before_the_first_call_is_the_one_built(tmp_path):
    # perfbench's tracer binds a timing subclass this way; the loader must keep it
    assert run_fresh("""
        from scipy.spatial import cKDTree
        from cmikit import knn
        from cmikit.datagen import gen_linear

        built = []

        class Counted(cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        knn.cKDTree = Counted
        d, _ = gen_linear("I", d_z=3, n=300, seed=2)  # width 4 and 6: tree and cdist counts
        knn.ksg_cmi_sweep(d, [3])
        d, _ = gen_linear("I", d_z=5, n=300, seed=2)
        knn.ksg_cmi_sweep(d, [3])
        assert knn.cKDTree is Counted
        print(len(built))
    """, tmp_path) == "5"


def test_generator_route_loads_scipy_before_its_pool(tmp_path):
    # two workers: without the preload only the workers would import scipy
    script = """
        import sys
        import numpy as np
        from cmikit.datagen import gen_linear
        from cmikit.estimators import EstimatorConfig, generator_classifier_cmi, with_train

        def marginal_y(pool, z_query, seed):  # numpy only: ignores z
            return np.random.default_rng(seed).choice(pool.y[:, 0], size=len(z_query))

        d, _ = gen_linear("I", d_z=2, n=400, seed=3)
        cfg = with_train(EstimatorConfig(bootstrap=2), epochs=1)
        generator_classifier_cmi(d, cfg, generator_fn={fn})
        print("scipy.spatial" in sys.modules)
    """
    assert run_fresh(script.format(fn="None"), tmp_path, threads="2") == "True"
    assert run_fresh(script.format(fn="marginal_y"), tmp_path, threads="2") == "False"


def test_sweep_loads_scipy_before_its_pool(tmp_path):
    assert run_fresh("""
        import sys
        from cmikit.cli import main
        assert main(["sweep", "--model", "linear-i", "--method", "ksg", "--n-grid", "200,300",
                     "--dz-grid", "2", "--out", "sweep.csv"]) == 0
        print("scipy.spatial" in sys.modules)
    """, tmp_path, threads="2") == "True"
