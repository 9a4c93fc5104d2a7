"""CSR views over the graph's arrays: bit-identity with scipy.sparse, the
operand guard, the fallback import, and what a cold CLI process loads:
no scipy.sparse, no module its command does not run, no BLAS threads."""

import ast
import importlib.machinery
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import bipush
import bipush.cli
import bipush.csr as csr
from bipush import BipartiteGraph, bhpp_query, build_index_meta, pisp_query, synth_bipartite
from conftest import scipy_adj
from test_push_engine import hub_graph


GRAPHS = {
    "uniform": lambda: synth_bipartite(400, 300, 4000, (0.0, 5.0), seed=1),
    "skew": lambda: synth_bipartite(400, 300, 4000, (0.0, 5.0), degree_skew=1.2, seed=2),
    "hub": hub_graph,
    "loaded": lambda: BipartiteGraph.from_bytes(
        synth_bipartite(300, 400, 3000, (1.0, 2.0), degree_skew=0.8, seed=3).to_bytes()),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def same_bytes(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


class TestBitIdentity:
    def test_matvec_matches_scipy(self, graph):
        rng = np.random.default_rng(4)
        for side, view in (("u", graph.u_adj), ("v", graph.v_adj)):
            ref = scipy_adj(graph, side)
            same_bytes(view.indptr, ref.indptr)
            same_bytes(view.indices, ref.indices)
            same_bytes(view.data, ref.data)
            assert (view.nnz, view.shape) == (ref.nnz, ref.shape)
            n = view.shape[1]
            for x in (rng.random(n), rng.random(2 * n)[::2], np.zeros(n), rng.standard_normal(n) * 1e300):
                same_bytes(view @ x, ref @ x)

    def test_v_side_matches_scipy_tocsc(self, graph):
        csc = scipy_adj(graph, "u").tocsc()
        same_bytes(graph.v_adj.indptr, csc.indptr)
        same_bytes(graph.v_adj.indices, csc.indices)
        same_bytes(graph.v_adj.data, csc.data)

    def test_views_share_the_graph_arrays(self, graph):
        assert graph.v_indices is graph.v_adj.indices and graph.v_weights is graph.v_adj.data
        for view in (graph.u_adj, graph.v_adj):
            assert not (view.indptr.flags.writeable or view.indices.flags.writeable
                        or view.data.flags.writeable)


class TestOperandGuard:
    @pytest.mark.parametrize("make", [
        lambda n: np.ones(n - 1),                     # too short: would read past the end
        lambda n: np.ones(n + 1),
        lambda n: np.ones((n, 1)),                    # 2-D, even as a column
        lambda n: np.ones((1, n)),
        lambda n: np.ones((n, 2)),
        lambda n: np.float64(1.0),
        lambda n: np.ones(n, dtype=np.float32),
        lambda n: np.ones(n, dtype=np.int64),
        lambda n: [1.0] * n,
    ], ids=["short", "long", "column", "row", "matrix", "scalar", "float32", "int64", "list"])
    def test_rejects_anything_but_a_float64_vector_of_length_n(self, make):
        g = synth_bipartite(40, 30, 200, seed=5)
        for view in (g.u_adj, g.v_adj):
            with pytest.raises(ValueError, match="float64 vector of length"):
                view @ make(view.shape[1])


class TestFallback:
    def test_refused_direct_load_falls_back_to_scipy_sparse(self, monkeypatch):
        # The loader function runs again with the extension loader refused,
        # rather than reloading the module, which would replace the CsrView
        # class that bigraph already holds. Both routes end in the same
        # extension module object, so the fallback's is wrapped to show that
        # every call after the switch goes through it.
        def build_and_score():
            g = synth_bipartite(300, 200, 3000, (0.0, 5.0), degree_skew=1.1, seed=6)
            return g, bhpp_query(g, build_index_meta(g), 3, 1e-6).scores, pisp_query(g, 3, 0.15, 1e-4).scores

        direct = build_and_score()

        class Counted:
            def __init__(self, module):
                self.module, self.calls = module, set()

            def __getattr__(self, name):
                self.calls.add(name)
                return getattr(self.module, name)

        refused = []

        class Refused:
            def __init__(self, *args, **kwargs):
                refused.append(args)
                raise ImportError("direct load refused")

        via_scipy = Counted(sp._sparsetools)
        monkeypatch.setattr(sp, "_sparsetools", via_scipy)
        monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", Refused)
        tools = csr._load_sparsetools()
        assert refused and tools is via_scipy
        monkeypatch.setattr(csr, "_sparsetools", tools)
        fallback = build_and_score()
        assert via_scipy.calls == {"csr_tocsc", "csr_matvec"}
        for name in ("indptr", "indices", "data"):
            same_bytes(getattr(fallback[0].v_adj, name), getattr(direct[0].v_adj, name))
        same_bytes(fallback[1], direct[1])
        same_bytes(fallback[2], direct[2])


HEAVY = ("scipy.sparse", "numpy.f2py", "numpy.testing", "numpy.ma")
# Modules only `eval-*`, `bench --threads N` and the tests need.
UNUSED = ("bipush.evalkit", "concurrent.futures")

PROBE = """
import io, json, sys
loaded = lambda names: [m for m in names if m in sys.modules]
report = {{}}
import bipush.cli as cli
report["import"] = {{"heavy": loaded({heavy!r}), "unused": loaded({unused!r})}}
for argv in {argvs!r}:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    report[argv[0]] = {{"code": code, "heavy": loaded({heavy!r}), "unused": loaded({unused!r}),
                        "stderr": err.getvalue()}}
print(json.dumps(report))
"""


def _child_env(**extra):
    """This process's environment with `src` on PYTHONPATH, plus `extra`;
    a value of None drops the variable."""
    src = str(Path(bipush.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(extra)
    return {key: value for key, value in env.items() if value is not None}


@pytest.fixture(scope="module")
def probe_report(tmp_path_factory):
    # Run in a fresh interpreter: this test process has loaded every module.
    tmp_path = tmp_path_factory.mktemp("probe")
    g = synth_bipartite(60, 50, 400, (0.0, 3.0), seed=7)
    g.save(tmp_path / "graph.bin")
    bipush.save_meta(build_index_meta(g), tmp_path / "meta.json")
    edges = tmp_path / "g.tsv"
    assert bipush.cli.main(["synth", "--u-count", "60", "--v-count", "50", "--edge-count", "400",
                            "--seed", "7", "--out", str(edges)], out=io.StringIO()) == 0
    study = ["--graph", str(edges), "--methods", "jaccard,ssbipush,naive-ppr", "--ks", "3"]
    report = {}
    # eval-rec runs in a process of its own, so what it loads is its own.
    for argvs in (
        [["topk", "--index", str(tmp_path), "--query", "u1", "--k", "5"],
         ["bench", "--index", str(tmp_path), "--methods", "ssbipush,pisp",
          "--epsilons", "1e-3", "--queries", "3"],
         ["eval-qr", *study, "--queries", "4"]],
        [["eval-rec", *study, "--kcore", "2", "--users", "4", "--negatives", "10"]],
    ):
        proc = subprocess.run([sys.executable, "-c", PROBE.format(heavy=HEAVY, unused=UNUSED, argvs=argvs)],
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        report.update(json.loads(proc.stdout))
    return report


def test_cli_paths_never_import_scipy_sparse(probe_report):
    assert {cmd: row["heavy"] for cmd, row in probe_report.items()} == dict.fromkeys(
        ("import", "topk", "bench", "eval-qr", "eval-rec"), [])
    assert {cmd: (row["code"], row["stderr"]) for cmd, row in probe_report.items() if cmd != "import"} == (
        dict.fromkeys(("topk", "bench", "eval-qr", "eval-rec"), (0, "")))


def test_cold_commands_load_only_what_they_run(probe_report):
    # The package's evalkit names load on first use, and only a
    # threaded bench starts a pool; each eval-* imports what it needs and runs.
    assert {cmd: probe_report[cmd]["unused"] for cmd in ("import", "topk", "bench")} == dict.fromkeys(
        ("import", "topk", "bench"), [])
    for cmd in ("eval-qr", "eval-rec"):
        assert probe_report[cmd]["code"] == 0
        assert "bipush.evalkit" in probe_report[cmd]["unused"]


def _imports_scipy_sparse(path: Path) -> bool:
    """Whether the module at `path` has an import of scipy.sparse or of
    anything in it, at any depth, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
            return True
    return False


def test_no_module_but_csr_imports_scipy_sparse():
    # The probe above sees only the paths its commands run; this holds the
    # rule for every module of the package. csr's fallback import is found,
    # so the scan does see such an import.
    src = Path(bipush.__file__).parent
    found = {path.relative_to(src).as_posix() for path in src.rglob("*.py") if _imports_scipy_sparse(path)}
    assert found == {"csr.py"}


OPENBLAS_PROBE = """
import json, os
import bipush.cli
task = "/proc/self/task"
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir(task)) if os.path.isdir(task) else None]))
"""


def _openblas_child(value):
    proc = subprocess.run([sys.executable, "-c", OPENBLAS_PROBE], capture_output=True, text=True,
                          env=_child_env(OPENBLAS_NUM_THREADS=value), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_starts_no_blas_thread_pool():
    # The variable is dropped: this process's own `import bipush` set it, and
    # a child would inherit it.
    setting, threads = _openblas_child(None)
    assert setting == "1"
    if threads is None:
        pytest.skip("no /proc/self/task to count the process's threads")
    assert threads == 1


def test_a_user_set_blas_thread_count_is_kept():
    assert _openblas_child("2")[0] == "2"
