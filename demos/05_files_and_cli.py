"""File formats and the command-line interface.

Series live in plain text (one sample per line) or CSV; analysis results
are JSON report documents with embedded provenance, and sweeps are CSV
tables. Everything here is also reachable through the `irrev` CLI.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from irrev import EmbeddingConfig, ModelSpec, generate, measure
from irrev.io import (
    ReportDocument,
    SeriesFile,
    read_report,
    read_series,
    write_report,
    write_series,
)

workdir = tempfile.TemporaryDirectory()
tmp = Path(workdir.name)

series = generate(ModelSpec("henon", 2000))
series_path = tmp / "henon.txt"
write_series(series, str(series_path))
print(f"wrote {series_path} ({len(read_series(SeriesFile(str(series_path))))} "
      f"samples, bit-exact round trip)")

config = EmbeddingConfig(m=3)
doc = ReportDocument(
    provenance={"input": str(series_path), "config": {"m": 3, "tau": 1}},
    reports=[measure(series, config, k) for k in ("TIR", "AIR")],
)
report_path = tmp / "report.json"
write_report(doc, str(report_path))
loaded = read_report(str(report_path))
print(f"wrote {report_path}: " + ", ".join(
    f"{r.kind}={r.value:.5f}" for r in loaded.reports))
print()

# The same analyses from the shell:
for args in (
    ["analyze", "--input", str(series_path), "--m", "3"],
    ["sweep", "--input", str(series_path), "--m", "2..4", "--tau", "1..2",
     "--out", str(tmp / "sweep.csv")],
):
    print(f"$ irrev {' '.join(args)}", flush=True)
    subprocess.run([sys.executable, "-m", "irrev.cli"] + args, check=True)
    print()

print((tmp / "sweep.csv").read_text())
workdir.cleanup()
