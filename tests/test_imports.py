"""The package namespace loads its submodules on first use, and a CLI
process imports only the modules its subcommand runs."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latinplex
from latinplex import cli, constructions, core
from latinplex.core import format_ls, gen_cyclic

from conftest import cli_env

#: the public names of the package, by the submodule that defines them
PUBLIC = {
    "core": [
        "Isotopy", "LatinSquare", "StepTypeSpec", "apply_isotopy", "format_ls", "gen_cyclic",
        "gen_qstep", "gen_two_step_pow2", "is_qstep_type", "parse_ls", "validate",
    ],
    "cellsets": [
        "CellSet", "check_kplex", "check_near_transversal", "check_quasi_transversal",
        "check_transversal",
    ],
    "plexes": [
        "PlexCensus", "complement_plex", "conjecture_sweep", "enumerate_transversals",
        "extendibility_report", "find_kplex", "find_near_transversal", "find_orthogonal_mate",
        "find_quasi_transversal", "max_disjoint_quasi_transversals", "max_disjoint_transversals",
    ],
    "lsgraph": [
        "DominationCertificate", "LatinSquareGraph", "build_graph", "gamma_k_exact",
        "has_mate_coloring", "is_k_dominating", "is_lk_independent_dominating",
        "quasi_3ds_correspondence", "transversal_equivalence_check", "verify_domatic_partition",
    ],
    "constructions": [
        "WitnessCertificate", "build_2plex_general", "build_2plex_m2", "build_2plex_q1",
        "build_3ds_q1", "build_3ds_qgen", "build_domatic_partition_cyclic", "decompose_two_step",
        "near_from_quasi", "quasi_from_near", "quasi_from_transversal", "transversal_in_quasi",
        "verify_certificate",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env=cli_env(), stdin=subprocess.DEVNULL)


class TestPackageSurface:
    def test_fifty_names(self):
        assert len(NAMES) == len(set(NAMES)) == 50
        assert sorted(latinplex.__all__) == sorted(NAMES)
        assert latinplex.__version__ == "0.1.0"

    @pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
    def test_name_is_the_module_object(self, module, name):
        source = importlib.import_module(f"latinplex.{module}")
        assert getattr(latinplex, name) is getattr(source, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from latinplex import *", namespace)
        assert set(NAMES) <= namespace.keys()

    def test_dir_lists_every_name(self):
        assert set(NAMES) <= set(dir(latinplex))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            latinplex.no_such_name

    def test_bare_import_loads_on_first_use(self):
        code = """if True:
            import json, logging, sys
            import latinplex
            loaded = sorted(m for m in sys.modules if m.startswith("latinplex"))
            kplex = latinplex.find_kplex
            handlers = [type(h).__name__ for h in logging.getLogger("latinplex").handlers]
            modules = {m: getattr(latinplex, m) is sys.modules["latinplex." + m]
                       for m in ("core", "cellsets", "plexes", "lsgraph", "constructions",
                                 "errors")}
            print(json.dumps({"loaded": loaded, "kplex": kplex is latinplex.plexes.find_kplex,
                              "handlers": handlers, "modules": modules}))
        """
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["loaded"] == ["latinplex"]
        assert got["kplex"] and got["handlers"] == []
        assert all(got["modules"].values()), got["modules"]

    def test_checker_loads_no_search_engine(self):
        code = """if True:
            import json, sys
            import latinplex
            ok = latinplex.check_transversal(latinplex.gen_cyclic(3), [(1, 1), (2, 2), (3, 3)])
            print(json.dumps([ok, sorted(m for m in sys.modules if m.startswith("latinplex"))]))
        """
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            [True, None], ["latinplex", "latinplex.cellsets", "latinplex.core", "latinplex.errors"]]


class TestLazyLogger:
    def test_searches_never_load_logging(self):
        code = """if True:
            import sys
            from latinplex.core import gen_cyclic
            from latinplex.lsgraph import build_graph, gamma_k_exact
            from latinplex.plexes import find_kplex
            assert find_kplex(gen_cyclic(5), 3) is not None
            assert gamma_k_exact(build_graph(gen_cyclic(4)), 2)[0] == 4
            print("logging" in sys.modules)
        """
        proc = run_python(code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_handler_attached_after_import_receives_debug_lines(self):
        # lines logged before the application imports logging have no handler to reach
        code = """if True:
            from latinplex.core import gen_cyclic
            from latinplex.plexes import find_kplex
            find_kplex(gen_cyclic(4), 3)
            import logging
            logging.basicConfig(level=logging.DEBUG,
                                format="%(name)s %(levelname)s %(funcName)s: %(message)s")
            find_kplex(gen_cyclic(5), 3)
        """
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(r"latinplex\.plexes DEBUG find_kplex: 3-plex search: \d+ nodes\n",
                            proc.stderr), proc.stderr


class TestSingleSource:
    def test_one_generator_registry(self):
        assert constructions.GENERATORS is core.GENERATORS
        assert constructions.square_descriptor is core.square_descriptor
        assert constructions.square_from_descriptor is core.square_from_descriptor

    def test_claim_names_follow_claims(self):
        assert cli.CLAIM_NAMES == tuple(constructions.CLAIMS)

    @pytest.mark.parametrize("command,text", [
        ("gen", """\
usage: latinplex gen [-h] [--m M] [--q Q] [--k K] [--format {text,json}]
                     [--out OUT]
                     {cyclic,qstep,twostep} [n]

positional arguments:
  {cyclic,qstep,twostep}
  n                     order (cyclic)

options:
  -h, --help            show this help message and exit
  --m M
  --q Q
  --k K
  --format {text,json}
  --out OUT             write output to this path
"""),
        ("construct", """\
usage: latinplex construct [-h] [--n N] [--m M] [--q Q] [--k K]
                           [--gen {cyclic,qstep,twostep}] [--out OUT]
                           {twostep-decomp,3ds-q1,3ds-qgen,domatic-cyclic,2plex-q1,2plex-m2,2plex-gen,qt-nt-transforms}

positional arguments:
  {twostep-decomp,3ds-q1,3ds-qgen,domatic-cyclic,2plex-q1,2plex-m2,2plex-gen,qt-nt-transforms}

options:
  -h, --help            show this help message and exit
  --n N
  --m M
  --q Q
  --k K
  --gen {cyclic,qstep,twostep}
  --out OUT             write output to this path
"""),
    ])
    def test_help_text(self, command, text, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


#: run the CLI as `python -m` does, then report the latinplex modules it
#: loaded and which of the standard modules it has no use for
FOOTPRINT = """if True:
    import json, runpy, sys
    report, sys.argv = sys.argv[1], ["latinplex", *sys.argv[2:]]
    try:
        runpy.run_module("latinplex.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(report, "w") as fh:
            json.dump(sorted(m for m in sys.modules if m.startswith("latinplex.")
                             or m in ("dataclasses", "inspect", "logging")), fh)
"""

LIGHT = {"latinplex.core", "latinplex.errors"}
SEARCH = LIGHT | {"latinplex.cellsets", "latinplex.plexes"}
CHECK = LIGHT | {"latinplex.cellsets", "latinplex.lsgraph", "latinplex.constructions"}


class TestImportFootprint:
    @pytest.fixture
    def files(self, tmp_path):
        square = tmp_path / "sq5.ls"
        square.write_text(format_ls(gen_cyclic(5)), encoding="utf-8")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(constructions.build_3ds_q1(10).to_json_dict()),
                        encoding="utf-8")
        return {"square": str(square), "cert": str(cert)}

    @pytest.mark.parametrize("argv,expected", [
        (["gen", "cyclic", "7"], LIGHT),
        (["search", "near", "{square}"], SEARCH),
        (["sweep", "--max-order", "4"], SEARCH),
        (["construct", "3ds-q1", "--n", "10"], CHECK),
        (["construct", "qt-nt-transforms", "--n", "5"], CHECK | SEARCH),
        (["verify", "{cert}"], CHECK),
    ], ids=["gen", "search-near", "sweep", "construct", "construct-search", "verify"])
    def test_subcommand_loads_only_its_modules(self, argv, expected, files, tmp_path):
        # no subcommand loads dataclasses, inspect or logging; only one that
        # searches loads the search engines
        argv = [a.format(**files) for a in argv]
        report = tmp_path / "modules.json"
        traced = run_python(FOOTPRINT, str(report), *argv)
        normal = subprocess.run([sys.executable, "-m", "latinplex.cli", *argv],
                                capture_output=True, text=True, timeout=120, env=cli_env(),
                                stdin=subprocess.DEVNULL)
        assert (traced.returncode, traced.stdout, traced.stderr) == (
            normal.returncode, normal.stdout, normal.stderr)
        assert normal.returncode == 0, normal.stderr
        assert set(json.loads(report.read_text(encoding="utf-8"))) == expected


@pytest.mark.parametrize("path", sorted(Path(latinplex.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10: no newer syntax may slip in
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
