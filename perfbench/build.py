"""Build file of the benchmark: compiles the program and the benchmark's Scala code.

The program's main sources (``src/main/scala``) and the benchmark's own
sources (``perfbench/scala``) are compiled together with the Scala compiler
that ships in the Spark distribution's ``jars`` directory, so no build tool
and no dependency resolution is needed. Output goes to
``.bench_build/perfbench`` under the checkout; a stamp over every source's
content and the compiler options makes a rebuild happen only when a source
changed.

Run ``python3 perfbench/build.py`` to build by hand; ``run.py`` calls
:func:`ensure_built` itself.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = BENCH_DIR / "scala"
OUT = ROOT / ".bench_build" / "perfbench"
SCALAC_OPTS = ["-deprecation", "-feature", "-encoding", "UTF-8", "-nowarn"]

# Spark 4 on Java 17 needs these opened, as spark-submit's launcher does.
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


class BuildError(RuntimeError):
    pass


def spark_jars() -> Path:
    """The ``jars`` directory of the Spark distribution: ``$SPARK_HOME``,
    else the one whose ``bin/spark-submit`` is on ``PATH``."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("Spark distribution not found: set SPARK_HOME")
    jars = Path(home) / "jars"
    if not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no scala-compiler jar in {jars}")
    return jars


def sources() -> list:
    if not PROGRAM_SRC.is_dir():
        raise BuildError(f"program sources missing: {PROGRAM_SRC.relative_to(ROOT)}")
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))
    if not any(PROGRAM_SRC.rglob("*.scala")):
        raise BuildError("no program sources to compile")
    return files


def stamp(files: list) -> str:
    h = hashlib.sha256(" ".join(SCALAC_OPTS).encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath(jars: Path) -> str:
    return os.pathsep.join([str(OUT / "classes"), str(jars / "*")])


def ensure_built(log=sys.stderr) -> str:
    """Compile if any source changed since the last build; return the
    runtime classpath."""
    jars = spark_jars()
    files = sources()
    want = stamp(files)
    stamp_file = OUT / "stamp"
    if stamp_file.exists() and stamp_file.read_text() == want:
        return classpath(jars)

    classes = OUT / "classes"
    shutil.rmtree(OUT, ignore_errors=True)
    classes.mkdir(parents=True)
    argfile = OUT / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    print(f"[perfbench] compiling {len(files)} sources", file=log, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", str(jars / "*"),
           # an explicit -classpath keeps scalac's default "." (the checkout)
           # off the compile classpath
           "scala.tools.nsc.Main", "-usejavacp", "-classpath", str(classes), "-d", str(classes),
           *SCALAC_OPTS, f"@{argfile}"]
    proc = subprocess.run(cmd, stdout=log, stderr=log)
    if proc.returncode != 0:
        shutil.rmtree(OUT, ignore_errors=True)
        raise BuildError(f"scalac failed with code {proc.returncode}")
    stamp_file.write_text(want)
    return classpath(jars)


if __name__ == "__main__":
    try:
        print(ensure_built())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
