"""Command-line frontend.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or too-short
input), 3 numeric error (diverged orbit, degenerate series), 4 failed
benchmark expectation in ``repro-models``. Flags win over
environment variables, named ``IRREV_<COMMAND>_<FLAG>`` (upper case, dashes
as underscores), which win over built-in defaults. All randomness requires
an explicit seed.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import io as dio
from . import __version__
from .errors import DataError, InvalidParams, NumericError, checked_real
from .measures import KIND_AIR, KIND_TIR, sweep
# perfbench hooks irrev.cli.measure: keep the name.
from .measures import measure  # noqa: F401
from .models import ModelSpec, generate as generate_series, paper_length
from .ordinal import EmbeddingConfig
from .surrogates import IaaftParams, significance_test, significance_tests

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_CHECK_FAILED = 4

_MEASURE_CHOICE = click.Choice([KIND_TIR, KIND_AIR, "both"])


class _FlagOption(click.Option):
    """An option whose ``IRREV_`` variable is named after its flag.

    click names the variable after the parameter; for ``--input``, whose
    parameter is ``input_path``, this reads ``IRREV_<COMMAND>_INPUT``.
    """

    def resolve_envvar_value(self, ctx):
        if ctx.auto_envvar_prefix is None:
            return None
        flag = self.opts[0].lstrip("-").replace("-", "_").upper()
        return os.environ.get(f"{ctx.auto_envvar_prefix}_{flag}") or None


def _parse_range(text: str) -> range:
    """Parse '2..6' (inclusive) or a single integer; nothing is listed."""
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise click.UsageError(
            f"expected an integer or a..b, got {text!r}") from None
    if not values:
        raise click.UsageError(f"empty range {text!r}")
    return values


def _kinds(measure_flag: str) -> list[str]:
    return [KIND_TIR, KIND_AIR] if measure_flag == "both" else [measure_flag]


_SERIES_OPTIONS = (
    click.option("--input", "input_path", cls=_FlagOption, required=True,
                 type=click.Path(dir_okay=False)),
    click.option("--format", "fmt", cls=_FlagOption,
                 type=click.Choice(["plain", "csv"]), default="plain",
                 show_default=True),
    click.option("--delimiter", default=",", show_default=True),
    click.option("--column", type=int, default=0, show_default=True,
                 help="0-based CSV column index"),
    click.option("--header/--no-header", default=False,
                 help="skip the first CSV row"),
    click.option("--scheme", type=click.Choice(["original", "equal-value"]),
                 default="equal-value", show_default=True),
    click.option("--tie-epsilon", type=float, default=0.0, show_default=True),
)


def _series_options(f):
    """The input file and tie-handling options of the series commands."""
    for option in reversed(_SERIES_OPTIONS):
        f = option(f)
    return f


def _generated(spec: ModelSpec):
    try:
        return generate_series(spec)
    except MemoryError:
        raise InvalidParams(f"--n {spec.n} needs more memory than there is") from None


def _read_series(input_path, fmt, delimiter, column, header):
    try:
        return dio.read_series(dio.SeriesFile(input_path, fmt, delimiter,
                                              column, header))
    except UnicodeDecodeError as exc:
        raise DataError(f"{input_path} is not UTF-8 text: {exc}") from None


def _source_provenance(input_path, fmt, delimiter, column, header):
    """What a series command read and with what: the file, its SHA-256,
    the options it was read with and the numpy version."""
    return {"input": input_path, "input_sha256": dio.file_sha256(input_path),
            "format": fmt, "delimiter": delimiter, "column": column,
            "header": header, "numpy_version": np.__version__}


def _write_document(out, provenance, **fields):
    """Write a report document whose provenance names this tool version."""
    doc = dio.ReportDocument(
        provenance={**provenance, "tool_version": __version__}, **fields)
    dio.write_report(doc, out)


@click.group()
@click.version_option(__version__)
def cli():
    """Permutation time/amplitude irreversibility toolkit."""


@cli.command()
@click.argument("model", type=click.Choice(["logistic", "henon", "gaussian"]))
@click.option("--n", type=int, default=paper_length(), show_default=True)
@click.option("--burn-in", type=int, default=0, show_default=True)
@click.option("--r", type=float, default=4.0, show_default=True)
@click.option("--x1", type=float, default=0.01, show_default=True)
@click.option("--y1", type=float, default=0.01, show_default=True)
@click.option("--alpha", type=float, default=1.4, show_default=True)
@click.option("--beta", type=float, default=0.3, show_default=True)
@click.option("--mean", type=float, default=0.0, show_default=True)
@click.option("--sd", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=None, help="required for gaussian")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def generate(model, n, burn_in, r, x1, y1, alpha, beta, mean, sd, seed, out):
    """Generate a benchmark model series and write it as a plain file."""
    params = {
        "logistic": {"r": r, "x1": x1},
        "henon": {"alpha": alpha, "beta": beta, "x1": x1, "y1": y1},
        "gaussian": {"mean": mean, "sd": sd, "seed": seed},
    }[model]
    for flag, value in params.items():
        if flag != "seed":
            checked_real(f"--{flag}", value)
    series = _generated(ModelSpec(model, n, burn_in, params))
    dio.write_series(series, out)
    click.echo(f"{model} {n} {seed if seed is not None else '-'}")


@cli.command()
@_series_options
@click.option("--measure", "measure_flag", cls=_FlagOption,
              type=_MEASURE_CHOICE, default="both", show_default=True)
@click.option("--m", type=int, required=True)
@click.option("--tau", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write a JSON report document")
def analyze(measure_flag, m, tau, scheme, tie_epsilon, out, **source):
    """Compute TIR and/or AIR for a series file."""
    config = EmbeddingConfig(m=m, tau=tau, scheme=scheme,
                             tie_epsilon=tie_epsilon)
    series = _read_series(**source)
    reports = sweep(series, [m], [tau], scheme, _kinds(measure_flag),
                    tie_epsilon)
    for rep in reports:
        click.echo(f"{rep.kind} {m} {tau} {rep.value:.17g}")
    if out:
        _write_document(out, provenance={**_source_provenance(**source),
                                         "measure": measure_flag,
                                         "config": asdict(config)},
                        reports=reports)


@cli.command("sweep")
@_series_options
@click.option("--m", "m_range", cls=_FlagOption, required=True,
              help="single value or a..b")
@click.option("--tau", "tau_range", cls=_FlagOption, default="1",
              show_default=True, help="single value or a..b")
@click.option("--measure", "measure_flag", cls=_FlagOption,
              type=_MEASURE_CHOICE, default="both", show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="CSV table output")
def sweep_cmd(m_range, tau_range, measure_flag, scheme, tie_epsilon, out,
              **source):
    """Sweep a (kind, m, tau) grid and emit a CSV table."""
    ms, taus = _parse_range(m_range), _parse_range(tau_range)
    # EmbeddingConfig's bounds are monotone in m and tau: corners cover all.
    for m in (ms[0], ms[-1]):
        for tau in (taus[0], taus[-1]):
            EmbeddingConfig(m=m, tau=tau, scheme=scheme,
                            tie_epsilon=tie_epsilon)
    series = _read_series(**source)
    reports = sweep(series, ms, taus, scheme=scheme, kinds=_kinds(measure_flag),
                    tie_epsilon=tie_epsilon)
    dio.write_sweep_csv(reports, out)
    for rep in reports:
        click.echo(f"{rep.kind} {rep.config.m} {rep.config.tau} "
                   f"{rep.value:.17g}")


@cli.command("surrogate-test")
@_series_options
@click.option("--measure", "measure_flag", cls=_FlagOption, default=KIND_TIR,
              show_default=True, type=click.Choice([KIND_TIR, KIND_AIR]))
@click.option("--m", type=int, required=True)
@click.option("--tau", type=int, default=1, show_default=True)
@click.option("--n-surrogates", type=int, default=100, show_default=True)
@click.option("--max-iterations", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def surrogate_test(measure_flag, m, tau, scheme, tie_epsilon, n_surrogates,
                   max_iterations, seed, out, **source):
    """Test a measure against an IAAFT surrogate ensemble."""
    config = EmbeddingConfig(m=m, tau=tau, scheme=scheme,
                             tie_epsilon=tie_epsilon)
    params = IaaftParams(max_iterations=max_iterations, seed=seed,
                         n_surrogates=n_surrogates)
    series = _read_series(**source)
    verdict = significance_test(series, config, measure_flag, params)
    click.echo(
        f"{measure_flag} {m} {tau} {verdict.original_value:.17g} "
        f"{verdict.p2_5:.17g} {verdict.p97_5:.17g} "
        f"{str(verdict.significant_above).lower()} "
        f"{str(verdict.significant_below).lower()}"
    )
    if out:
        _write_document(out, provenance={**_source_provenance(**source),
                                         "measure": measure_flag,
                                         "seed": seed,
                                         "n_surrogates": n_surrogates,
                                         "max_iterations": max_iterations,
                                         "config": asdict(config)},
                        verdicts=[verdict])


def _repro_checks(values, ms):
    """Model-series expectations; values maps (series, kind, m) -> value.

    Checks involving dimensions outside ``ms`` are skipped so reduced runs
    (smaller --m-max) stay usable.
    """

    def tir(s, m):
        return values[(s, KIND_TIR, m)]

    def air(s, m):
        return values[(s, KIND_AIR, m)]

    checks = []
    if 7 in ms:
        checks.append(("logistic-m7-tir-is-1", tir("logistic", 7) == 1.0))
        checks.append(("logistic-m7-air-nonzero",
                       0.0 < air("logistic", 7) < 1.0))
    for s in ("logistic", "henon"):
        for m in (3, 4, 5):
            if m in ms:
                checks.append((f"{s}-m{m}-tir-gt-air", tir(s, m) > air(s, m)))
    for s in ("logistic", "henon", "gaussian"):
        checks.append((f"{s}-m2-tir-eq-air",
                       abs(tir(s, 2) - air(s, 2)) <= 1e-12))
    if 4 in ms and 6 in ms:
        checks.append(
            ("logistic-tir-air-gap-shrinks",
             abs(tir("logistic", 6) - air("logistic", 6))
             <= abs(tir("logistic", 4) - air("logistic", 4)))
        )
    return checks


@cli.command("repro-models")
@click.option("--out-dir", required=True,
              type=click.Path(file_okay=False, exists=False))
@click.option("--seed", type=int, required=True)
@click.option("--n-surrogates", type=int, default=100, show_default=True,
              help="500 reproduces the published ensemble size")
@click.option("--m-max", type=int, default=7, show_default=True)
@click.option("--n", type=int, default=None,
              help="series length (default: the benchmark length 100800)")
def repro_models(out_dir, seed, n_surrogates, m_max, n):
    """Recompute the model-series benchmark (three series, m = 2..7, tau = 1)."""
    EmbeddingConfig(m=m_max)  # --m-max must itself be a valid m
    params = IaaftParams(seed=seed, n_surrogates=n_surrogates)
    if n is None:
        n = paper_length()
    specs = [ModelSpec("logistic", n), ModelSpec("henon", n),
             ModelSpec("gaussian", n, params={"seed": seed})]
    ms = list(range(2, m_max + 1))
    configs = [EmbeddingConfig(m=m, tau=1) for m in ms]
    kinds = (KIND_TIR, KIND_AIR)

    values = {}
    rows = ["series,kind,m,value,p2_5,p97_5"]
    reports = []
    for spec in specs:
        name = spec.kind
        series = _generated(spec)
        os.makedirs(out_dir, exist_ok=True)
        dio.write_series(series, os.path.join(out_dir, f"{name}.txt"))
        originals, verdicts = significance_tests(series, configs, kinds, params)
        for (kind, config), rep in originals.items():
            verdict = verdicts[(kind, config)]
            values[(name, kind, config.m)] = rep.value
            reports.append(rep)
            rows.append(f"{name},{kind},{config.m},{rep.value:.17g},"
                        f"{verdict.p2_5:.17g},{verdict.p97_5:.17g}")
    dio._durable_write(os.path.join(out_dir, "table.csv"),
                       ("\n".join(rows) + "\n",))
    _write_document(os.path.join(out_dir, "report.json"),
                    provenance={"seed": seed, "n_surrogates": n_surrogates,
                                "max_iterations": params.max_iterations,
                                "n": n, "tau": 1, "scheme": "equal-value"},
                    reports=reports)

    all_ok = True
    for label, ok in _repro_checks(values, ms):
        click.echo(f"{'PASS' if ok else 'FAIL'} {label}")
        all_ok = all_ok and ok
    if not all_ok:
        sys.exit(EXIT_CHECK_FAILED)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False,
                 auto_envvar_prefix="IRREV")
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except InvalidParams as exc:
        click.echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except NumericError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return EXIT_NUMERIC
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        return EXIT_DATA
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
