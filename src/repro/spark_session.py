"""The SparkSession of the ``jobs/`` entry points.

``spark-submit`` puts no ``repro`` on the Python workers' path. The job
scripts put ``src/`` on the driver's path themselves, and
:func:`job_session` ships the package to the workers as a zip file
(``SparkContext.addPyFile``), so a job needs no ``PYTHONPATH``.
"""
from __future__ import annotations

import atexit
import shutil
import tempfile
import zipfile
from pathlib import Path

from pyspark.sql import SparkSession

import repro


def _zip_package() -> str:
    """Zip the ``repro`` package's sources; the file lives until exit."""
    pkg = Path(repro.__file__).resolve().parent
    tmp = tempfile.mkdtemp(prefix="repro-pyfiles-")
    atexit.register(shutil.rmtree, tmp, True)
    path = Path(tmp) / "repro.zip"
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for f in sorted(pkg.rglob("*.py")):
            zf.write(f, f.relative_to(pkg.parent).as_posix())
    return str(path)


def job_session(app_name: str) -> SparkSession:
    """A session with Arrow on, 8 shuffle partitions and ``repro`` on the workers."""
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.sparkContext.addPyFile(_zip_package())
    return spark
