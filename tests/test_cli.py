import hashlib
import json
import os
import threading
import weakref

import numpy as np
import pytest

from irrev import (
    EmbeddingConfig,
    IaaftParams,
    ModelSpec,
    generate,
    iaaft,
    measure,
    measures,
    percentile_nearest_rank,
    surrogates,
)
from irrev.cli import main
from irrev.io import write_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def increasing_file(tmp_path):
    path = tmp_path / "inc.txt"
    path.write_text("".join(f"{v}\n" for v in range(1, 101)))
    return str(path)


@pytest.fixture()
def constant_file(tmp_path):
    path = tmp_path / "const.txt"
    path.write_text("5\n" * 100)
    return str(path)


class TestGenerate:
    def test_logistic_file(self, capsys, tmp_path):
        out = tmp_path / "lo.txt"
        code, stdout, _ = run(capsys, "generate", "logistic", "--n", "50",
                              "--out", str(out))
        assert code == 0
        assert stdout == "logistic 50 -\n"
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        assert float(lines[1]) == pytest.approx(0.0396, abs=1e-15)

    def test_gaussian_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(capsys, "generate", "gaussian", "--n", "10",
                             "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gaussian_requires_seed(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "gaussian", "--n", "10",
                           "--out", str(tmp_path / "g.txt"))
        assert code == 1
        assert "seed" in err

    def test_memory_error_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def out_of_memory(spec):
            raise MemoryError
        monkeypatch.setattr("irrev.cli.generate_series", out_of_memory)
        out = tmp_path / "big.txt"
        code, stdout, err = run(capsys, "generate", "logistic", "--n",
                                str(10**12), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("usage error: --n 1000000000000 ")
        assert not out.exists()

    def test_diverging_orbit_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "logistic", "--n", "50",
                           "--x1", "2.0", "--out", str(tmp_path / "x.txt"))
        assert code == 3
        assert "diverged" in err

    @pytest.mark.parametrize("model, flag, value", [
        ("gaussian", "--sd", "nan"), ("gaussian", "--mean", "inf"),
        ("logistic", "--r", "nan"), ("logistic", "--x1", "nan"),
        ("henon", "--alpha", "inf")])
    def test_non_finite_parameter_is_usage_error(self, capsys, tmp_path,
                                                 model, flag, value):
        out = tmp_path / "g.txt"
        code, stdout, err = run(capsys, "generate", model, "--n", "10",
                                "--seed", "1", flag, value, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == (f"usage error: {flag} must be a finite real number, "
                       f"got {value}\n")
        assert not out.exists()


class TestAnalyze:
    def test_increasing_series(self, capsys, increasing_file, tmp_path):
        report = tmp_path / "rep.json"
        code, stdout, _ = run(capsys, "analyze", "--input", increasing_file,
                              "--m", "3", "--out", str(report))
        assert code == 0
        assert stdout == "TIR 3 1 1\nAIR 3 1 1\n"
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == "2"
        assert [r["value"] for r in doc["reports"]] == [1.0, 1.0]
        assert doc["provenance"]["input"] == increasing_file

    def test_constant_series(self, capsys, constant_file):
        code, stdout, _ = run(capsys, "analyze", "--input", constant_file,
                              "--m", "3")
        assert code == 0
        assert stdout == "TIR 3 1 0\nAIR 3 1 0\n"

    def test_too_short_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1\n2\n3\n4\n")
        code, _, err = run(capsys, "analyze", "--input", str(path),
                           "--m", "5", "--tau", "2")
        assert code == 2
        assert "samples" in err

    def test_missing_input_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", "--input",
                         str(tmp_path / "nope.txt"), "--m", "3")
        assert code == 2

    def test_single_measure_flag(self, capsys, increasing_file):
        code, stdout, _ = run(capsys, "analyze", "--input", increasing_file,
                              "--m", "2", "--measure", "AIR")
        assert code == 0
        assert stdout == "AIR 2 1 1\n"


class TestSweep:
    def test_grid_row_count(self, capsys, increasing_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, "sweep", "--input", increasing_file,
                              "--m", "2..6", "--tau", "1..2",
                              "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "kind,m,tau,value,n_windows,n_forbidden"
        assert len(rows) == 1 + 20
        assert len(stdout.splitlines()) == 20

    def test_constant_input_zeros(self, capsys, constant_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--input", constant_file,
                         "--m", "2..3", "--tau", "1", "--out", str(out))
        assert code == 0
        for row in out.read_text().splitlines()[1:]:
            assert row.split(",")[3] == "0"

    def test_short_cell_aborts_with_cell_id(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1\n2\n3\n4\n5\n")
        code, _, err = run(capsys, "sweep", "--input", str(path),
                           "--m", "2..6", "--tau", "1",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "m=6" in err

    def test_huge_tau_range_aborts_at_first_short_cell(self, capsys,
                                                       tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1\n2\n3\n4\n5\n")
        code, _, err = run(capsys, "sweep", "--input", str(path),
                           "--m", "2", "--tau", "1..1" + "0" * 30,
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "m=2 tau=5" in err
        assert not (tmp_path / "s.csv").exists()


class TestSurrogateTest:
    def test_chaotic_series_significant(self, capsys, tmp_path):
        series_path = tmp_path / "lo.txt"
        run(capsys, "generate", "logistic", "--n", "1024",
            "--out", str(series_path))
        report = tmp_path / "verdict.json"
        code, stdout, _ = run(
            capsys, "surrogate-test", "--input", str(series_path),
            "--measure", "TIR", "--m", "3", "--n-surrogates", "20",
            "--seed", "5", "--out", str(report),
        )
        assert code == 0
        fields = stdout.split()
        assert fields[:3] == ["TIR", "3", "1"]
        assert fields[6] == "true"  # significant_above
        doc = json.loads(report.read_text())
        assert len(doc["verdicts"][0]["surrogate_values"]) == 20
        assert doc["provenance"]["n_surrogates"] == 20
        assert doc["provenance"]["max_iterations"] == 1000

    @pytest.mark.parametrize("scale", [2.0**1017, 1e306, 2.0**-1030])
    def test_extreme_scale_keeps_the_verdict(self, capsys, tmp_path, scale):
        # The spectrum once overflowed here: every surrogate was the same and
        # the verdict read significant_below true.
        walk = np.cumsum(np.random.default_rng(0).standard_normal(4096))
        lines = []
        for name, x in (("walk", walk), ("scaled", walk * scale)):
            path = tmp_path / f"{name}.txt"
            write_series(x, str(path))
            code, stdout, _ = run(
                capsys, "surrogate-test", "--input", str(path), "--m", "3",
                "--n-surrogates", "20", "--max-iterations", "50", "--seed", "1")
            assert code == 0
            lines.append(stdout.split())
        assert lines[1][-2:] == lines[0][-2:] == ["false", "false"]
        assert lines[1] == lines[0]  # ordinal values: the band is the same too

    def test_constant_input_is_numeric_error(self, capsys, constant_file):
        code, _, _ = run(capsys, "surrogate-test", "--input", constant_file,
                         "--m", "3", "--n-surrogates", "5", "--seed", "1")
        assert code == 3

    def test_too_short_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "five.txt"
        path.write_text("1\n2\n3\n4\n5\n")
        code, _, err = run(capsys, "surrogate-test", "--input", str(path),
                           "--m", "3", "--n-surrogates", "1", "--seed", "1")
        assert code == 2
        assert err.startswith("data error:") and "samples" in err

    def test_seed_required(self, capsys, increasing_file):
        code, _, _ = run(capsys, "surrogate-test", "--input", increasing_file,
                         "--m", "3")
        assert code == 1



def _argv_from_provenance(command, provenance, out):
    """The command line that ``provenance`` records, writing to ``out``."""
    config = provenance["config"]
    argv = [command, "--input", provenance["input"],
            "--format", provenance["format"],
            "--delimiter", provenance["delimiter"],
            "--column", str(provenance["column"]),
            "--header" if provenance["header"] else "--no-header",
            "--measure", provenance["measure"],
            "--m", str(config["m"]), "--tau", str(config["tau"]),
            "--scheme", config["scheme"],
            "--tie-epsilon", repr(config["tie_epsilon"]), "--out", out]
    if command == "surrogate-test":
        argv += ["--seed", str(provenance["seed"]),
                 "--n-surrogates", str(provenance["n_surrogates"]),
                 "--max-iterations", str(provenance["max_iterations"])]
    return argv


@pytest.fixture()
def three_column_file(tmp_path):
    """A ';'-separated CSV file with a header; column 2 is a rounded walk."""
    walk = np.round(np.cumsum(
        np.random.default_rng(2).standard_normal(600)), 1)
    path = tmp_path / "walk.csv"
    path.write_text("t;noise;walk\n" + "".join(
        f"{i};{i % 7};{v!r}\n" for i, v in enumerate(walk.tolist())))
    return str(path), walk


class TestProvenance:
    def test_csv_document_names_its_column(self, capsys, tmp_path,
                                           three_column_file):
        path, walk = three_column_file
        report = tmp_path / "rep.json"
        code, stdout, _ = run(capsys, "analyze", "--input", path,
                              "--format", "csv", "--column", "2",
                              "--delimiter", ";", "--header", "--m", "3",
                              "--out", str(report))
        assert code == 0
        assert stdout == "".join(
            f"{kind} 3 1 {measure(walk, EmbeddingConfig(m=3), kind).value:.17g}\n"
            for kind in ("TIR", "AIR"))
        provenance = json.loads(report.read_text())["provenance"]
        with open(path, "rb") as fh:
            sha256 = hashlib.sha256(fh.read()).hexdigest()
        assert {key: provenance[key] for key in (
            "input", "input_sha256", "format", "delimiter", "column", "header",
            "measure", "numpy_version")} == {
            "input": path, "input_sha256": sha256, "format": "csv",
            "delimiter": ";", "column": 2, "header": True, "measure": "both",
            "numpy_version": np.__version__}

    @pytest.mark.parametrize("command, argv", [
        ("analyze", ["--format", "csv", "--column", "2", "--delimiter", ";",
                     "--header", "--measure", "AIR", "--m", "4", "--tau", "2",
                     "--scheme", "original", "--tie-epsilon", "0.25"]),
        ("analyze", ["--m", "3"]),
        ("surrogate-test", ["--format", "csv", "--column", "2",
                            "--delimiter", ";", "--header", "--measure", "AIR",
                            "--m", "3", "--tau", "2", "--n-surrogates", "3",
                            "--max-iterations", "20", "--seed", "7"]),
    ])
    def test_rerun_from_provenance_writes_the_same_bytes(
            self, capsys, tmp_path, three_column_file, increasing_file,
            command, argv):
        path = three_column_file[0] if "csv" in argv else increasing_file
        first = tmp_path / "first.json"
        code, stdout, _ = run(capsys, command, "--input", path, *argv,
                              "--out", str(first))
        assert code == 0
        provenance = json.loads(first.read_text())["provenance"]
        again = tmp_path / "again.json"
        rerun = run(capsys, *_argv_from_provenance(command, provenance,
                                                   str(again)))
        assert rerun[:2] == (0, stdout)
        assert again.read_bytes() == first.read_bytes()

class TestReproModels:
    def test_reduced_run(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code, stdout, _ = run(capsys, "repro-models", "--out-dir",
                              str(out_dir), "--seed", "3",
                              "--n-surrogates", "3", "--m-max", "3",
                              "--n", "2048")
        assert code == 0
        for name in ("logistic.txt", "henon.txt", "gaussian.txt",
                     "table.csv", "report.json"):
            assert (out_dir / name).exists()
        lines = stdout.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert any("m2-tir-eq-air" in line for line in lines)
        rows = (out_dir / "table.csv").read_text().splitlines()
        assert rows[0] == "series,kind,m,value,p2_5,p97_5"
        assert len(rows) == 1 + 3 * 2 * 2  # series x kinds x (m=2,3)
        provenance = json.loads((out_dir / "report.json").read_text())[
            "provenance"]
        assert provenance["n_surrogates"] == 3
        assert provenance["max_iterations"] == 1000

        # Every value and band equals a member-by-member recomputation.
        params = IaaftParams(seed=3, n_surrogates=3)
        expected = []
        for spec in (ModelSpec("logistic", 2048), ModelSpec("henon", 2048),
                     ModelSpec("gaussian", 2048, params={"seed": 3})):
            x = generate(spec)
            members = [iaaft(x, params, i)[0] for i in range(3)]
            for m in (2, 3):
                config = EmbeddingConfig(m=m)
                for kind in ("TIR", "AIR"):
                    ens = [measure(s, config, kind).value for s in members]
                    expected.append(
                        f"{spec.kind},{kind},{m},"
                        f"{measure(x, config, kind).value:.17g},"
                        f"{percentile_nearest_rank(ens, 2.5):.17g},"
                        f"{percentile_nearest_rank(ens, 97.5):.17g}")
        assert rows[1:] == expected

    # sha256 of every file of one reduced run; report.json is schema "2".
    PINNED = {
        "table.csv":
            "59c8e2fd441c9c55792f08188f160f28ec01121a2254443930e6066d912240d6",
        "logistic.txt":
            "2f36eadb91d1b69e90b27df37c14189882846b10b1d08057bbb50ffad0b1c972",
        "henon.txt":
            "0387a82d903423d88f5d1b605a2f9e1ff3f2ddbfb2600a9b5459db1d68a0fbce",
        "gaussian.txt":
            "094ca423ef3822530e1a2c378dc08a33d57cb176ace65aa8e26a5c86649d80b2",
        "report.json":
            "e8f45cf0b4196107c257525bd6ca8fd2192b8ec53978e093bca267cb1734ed64",
    }

    def test_pinned_run(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code, _, _ = run(capsys, "repro-models", "--out-dir", str(out_dir),
                         "--seed", "3", "--n", "8192", "--n-surrogates", "30",
                         "--m-max", "7")
        assert code == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes())
                   .hexdigest() for name in self.PINNED}
        assert digests == self.PINNED

    def test_streams_members_and_shares_histograms(self, capsys, tmp_path,
                                                    monkeypatch):
        real_draw, real_build = surrogates.draw_iaaft, measures.build_histogram
        for cpus in (1, 2, 3):
            members, most_alive, most_from_earlier_rounds, builds = (
                [], [0], [0], [])

            def tracked_draw(prepared, params, index):
                round_start = index - index % cpus
                alive = [i for i, ref in members if ref() is not None]
                most_alive[0] = max(most_alive[0], len(alive))
                most_from_earlier_rounds[0] = max(
                    most_from_earlier_rounds[0],
                    sum(i < round_start for i in alive))
                result = real_draw(prepared, params, index)
                members.append((index, weakref.ref(result[0])))
                return result

            def counted_build(*args, **kwargs):
                builds.append(threading.current_thread())
                return real_build(*args, **kwargs)

            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)))
            monkeypatch.setattr(surrogates, "draw_iaaft", tracked_draw)
            monkeypatch.setattr(measures, "build_histogram", counted_build)
            code, _, _ = run(capsys, "repro-models", "--out-dir",
                             str(tmp_path / f"repro{cpus}"), "--seed", "3",
                             "--n-surrogates", "5", "--m-max", "3",
                             "--n", "2048")
            assert code == 0
            assert len(members) == 3 * 5
            # Only the round being drawn and the member just scored may be
            # alive: one member per CPU in flight, whatever --n-surrogates.
            assert most_alive[0] <= cpus
            assert most_from_earlier_rounds[0] <= 1
            # One forward histogram per (series, member or original, m), all
            # built on the calling thread.
            assert len(builds) == 3 * (5 + 1) * 2
            assert set(builds) == {threading.current_thread()}

    def test_memory_error_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def out_of_memory(spec):
            raise MemoryError
        monkeypatch.setattr("irrev.cli.generate_series", out_of_memory)
        out_dir = tmp_path / "repro"
        code, stdout, err = run(capsys, "repro-models", "--out-dir",
                                str(out_dir), "--seed", "1", "--n", str(10**12))
        assert (code, stdout) == (1, "")
        assert err.startswith("usage error: --n 1000000000000 ")
        assert not out_dir.exists()


class TestUsageAndEnv:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_env_var_provides_default(self, capsys, increasing_file,
                                      monkeypatch):
        monkeypatch.setenv("IRREV_ANALYZE_M", "3")
        code, stdout, _ = run(capsys, "analyze", "--input", increasing_file,
                              "--measure", "TIR")
        assert code == 0
        assert stdout == "TIR 3 1 1\n"

    def test_flag_overrides_env_var(self, capsys, increasing_file,
                                    monkeypatch):
        monkeypatch.setenv("IRREV_ANALYZE_M", "3")
        code, stdout, _ = run(capsys, "analyze", "--input", increasing_file,
                              "--measure", "TIR", "--m", "4")
        assert code == 0
        assert stdout == "TIR 4 1 1\n"

    def test_parameter_named_env_var_is_ignored(self, capsys,
                                                increasing_file, monkeypatch):
        monkeypatch.setenv("IRREV_ANALYZE_MEASURE_FLAG", "AIR")
        code, stdout, _ = run(capsys, "analyze", "--input", increasing_file,
                              "--m", "3")
        assert code == 0
        assert stdout == "TIR 3 1 1\nAIR 3 1 1\n"

    def test_missing_required_flag_is_usage_error(self, capsys,
                                                  increasing_file):
        code, _, _ = run(capsys, "analyze", "--input", increasing_file)
        assert code == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--input", "{input}", "--m", "1..3", "--out", "{tmp}/s.csv"],
    ["sweep", "--input", "{input}", "--m", "a..3", "--out", "{tmp}/s.csv"],
    ["sweep", "--input", "{input}", "--m", "2..1" + "0" * 30, "--out",
     "{tmp}/s.csv"],
    ["surrogate-test", "--input", "{input}", "--m", "3", "--seed", "1",
     "--n-surrogates", "0"],
    ["repro-models", "--out-dir", "{tmp}/repro", "--seed", "1",
     "--m-max", "1"],
    ["analyze", "--input", "{input}", "--m", "3", "--tie-epsilon", "nan"],
    ["analyze", "--input", "{input}", "--m", "16"],
    ["generate", "logistic", "--n", "0", "--out", "{tmp}/g.txt"],
    ["analyze", "--input", "{input}", "--m", "3", "--format", "csv",
     "--delimiter", ""],
    ["analyze", "--input", "{input}", "--m", "3", "--format", "csv",
     "--column", "-1"],
    ["generate", "gaussian", "--n", "10", "--seed", "-1", "--out",
     "{tmp}/g.txt"],
    ["generate", "gaussian", "--n", "10", "--seed", str(2**64), "--out",
     "{tmp}/g.txt"],
    ["repro-models", "--out-dir", "{tmp}/repro", "--seed", "-3", "--n",
     "64", "--n-surrogates", "1"],
    ["surrogate-test", "--input", "{input}", "--m", "3", "--seed", "-1"],
    ["surrogate-test", "--input", "{input}", "--m", "3", "--seed",
     str(5 + 2**64)],
    ["analyze", "--input", "{input}", "--m", "3", "--measure", "tir"],
    ["sweep", "--input", "{input}", "--m", "3", "--measure", "xyz", "--out",
     "{tmp}/s.csv"],
    ["repro-models", "--out-dir", "{tmp}/repro", "--seed", "1", "--n", "0"],
    ["generate", "logistic", "--n", str(10**30), "--out", "{tmp}/g.txt"],
    ["generate", "logistic", "--n", str(2**62), "--out", "{tmp}/g.txt"],
    ["generate", "gaussian", "--n", "10", "--burn-in", str(2**62), "--seed",
     "1", "--out", "{tmp}/g.txt"],
    ["sweep", "--input", "{input}", "--m", "5..2", "--out", "{tmp}/s.csv"],
])
def test_bad_flag_is_usage_error(capsys, increasing_file, tmp_path, argv):
    argv = [a.format(input=increasing_file, tmp=tmp_path) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:")
    # Parameters are checked before anything is created.
    assert not (tmp_path / "repro").exists()


@pytest.mark.parametrize("fmt", ["plain", "csv"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--m", "2", "--out", "{tmp}/r.json"],
    ["sweep", "--m", "2", "--out", "{tmp}/s.csv"],
    ["surrogate-test", "--m", "2", "--seed", "1", "--n-surrogates", "2"],
])
def test_non_utf8_input_is_data_error(capsys, tmp_path, argv, fmt):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1\n2\n\xff\n3\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, stdout, err = run(capsys, *argv, "--input", str(path),
                            "--format", fmt)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"data error: {path} is not UTF-8 text: ")
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["bad.txt"]


def test_oversized_csv_field_is_data_error(capsys, tmp_path):
    # One field past the csv module's field size limit (131072 characters).
    path = tmp_path / "wide.csv"
    path.write_text("1\n2\n" + "9" * 200_000 + "\n4\n")
    code, stdout, err = run(capsys, "analyze", "--input", str(path), "--m",
                            "2", "--format", "csv", "--out",
                            str(tmp_path / "r.json"))
    assert (code, stdout) == (2, "")
    assert err.startswith("data error: line 3: malformed CSV: ")
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["wide.csv"]


# Every flag of every command, with a value that changes the outcome of a
# command line. {out} is a fresh directory per run.
_SERIES_COMMANDS = {
    "analyze": ("analyze --input {plain} --m 3 --out {out}/a.json",
                {"--m": "4", "--tau": "2", "--measure": "AIR"}),
    "sweep": ("sweep --input {plain} --m 2..3 --out {out}/s.csv",
              {"--m": "3", "--tau": "1..2", "--measure": "AIR"}),
    "surrogate-test": (
        "surrogate-test --input {plain} --m 3 --seed 1 --n-surrogates 2 "
        "--max-iterations 5 --out {out}/v.json",
        {"--m": "4", "--tau": "2", "--measure": "AIR", "--seed": "2",
         "--n-surrogates": "3", "--max-iterations": "6"}),
}
_CSV_FLAGS = [  # (flag, value, the input options it is tried with)
    ("--format", "csv", "--input {comma}"),
    ("--delimiter", ";", "--input {semicolon} --format csv"),
    ("--column", "1", "--input {comma} --format csv"),
    ("--header", None, "--input {header} --format csv"),
]
_GENERATE = "generate {} --n 20 --out {{out}}/g.txt"
_REPRO = ("repro-models --out-dir {out}/r --seed 1 --n-surrogates 1 "
          "--m-max 2 --n 64")
_ENV_CASES = [
    (command, flag, value, base)
    for command, (base, changes) in _SERIES_COMMANDS.items()
    for flag, value in [*changes.items(), ("--input", "{plain}"),
                        ("--out", "{out}/o"), ("--scheme", "original"),
                        ("--tie-epsilon", "1.5")]
] + [
    (command, flag, value, base.replace("--input {plain}", source))
    for command, (base, _) in _SERIES_COMMANDS.items()
    for flag, value, source in _CSV_FLAGS
] + [
    ("generate", flag, value, _GENERATE.format(model))
    for model, flag, value in [
        ("logistic", "--n", "30"), ("logistic", "--burn-in", "5"),
        ("logistic", "--r", "3.9"), ("logistic", "--x1", "0.2"),
        ("henon", "--y1", "0.2"), ("henon", "--alpha", "1.3"),
        ("henon", "--beta", "0.2"), ("gaussian --seed 1", "--mean", "2"),
        ("gaussian --seed 1", "--sd", "2"), ("gaussian", "--seed", "1"),
        ("logistic", "--out", "{out}/h.txt"),
    ]
] + [
    ("repro-models", flag, value, _REPRO)
    for flag, value in [("--out-dir", "{out}/q"), ("--seed", "2"),
                        ("--n-surrogates", "2"), ("--m-max", "3"),
                        ("--n", "80")]
]


def _env_name(command, flag):
    return f"IRREV_{command}_{flag[2:]}".upper().replace("-", "_")


@pytest.mark.parametrize(
    "command, flag, value, base", _ENV_CASES,
    ids=[f"{_env_name(c, f)}" for c, f, _, _ in _ENV_CASES])
def test_every_flag_has_its_env_var(capsys, tmp_path, monkeypatch, command,
                                    flag, value, base):
    """IRREV_<COMMAND>_<FLAG> acts as the flag does, and changes the run."""
    rows = list(zip([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9] * 4,
                    [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4] * 4))
    files = {
        "plain": "".join(f"{v}\n" for v, _ in rows),
        "comma": "".join(f"{v},{w}\n" for v, w in rows),
        "semicolon": "".join(f"{v};{w}\n" for v, w in rows),
        "header": "x,y\n" + "".join(f"{v},{w}\n" for v, w in rows),
    }
    paths = {}
    for name, text in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    runs = []

    def outcome(argv, env):
        out = tmp_path / f"run{len(runs)}"
        out.mkdir()
        fields = dict(paths, out=str(out))
        argv = [a.format(**fields) for a in argv]
        with monkeypatch.context() as patch:
            for name, text in env.items():
                patch.setenv(name, text.format(**fields))
            code, stdout, _ = run(capsys, *argv)
        written = {str(p.relative_to(out)): p.read_bytes()
                   for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append(argv)
        return code, stdout, written

    argv = base.split()
    if flag in argv:  # the flag goes, and its value with it
        at = argv.index(flag)
        del argv[at:at + 2]
    by_flag = outcome(argv + [flag] + ([value] if value else []), {})
    by_env = outcome(argv, {_env_name(command, flag): value or "1"})
    without = outcome(argv, {})
    assert by_flag == by_env
    assert by_flag != without
