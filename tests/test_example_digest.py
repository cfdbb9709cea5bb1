"""The example run, pinned: ``scripts/generate_datasets.py`` on
``configs/example.yaml`` against the committed digest ``example_digest.json``.

The digest lists every output file, with no data file committed:

- a CSV file with its column names, its row count and, per column, its values
  at up to 17 evenly spaced rows (every row of a short file) and its minimum,
  maximum and sum;
- a JSON file with every leaf under its key path.  The run manifest leaves
  out ``wall_time_s``, the ``versions`` block and the absolute
  ``config_path``, which describe the machine rather than the run.

Numbers are rounded to 12 significant digits.  The comparison allows 1e-10
relative, so the last bits that numpy's SIMD kernels move between CPUs and
numpy versions pass and any moved output fails.  The one exception is the
fit of the noise-free example trace: its residual norm, and the covariance
and one-sigma scaled by it, are what the stop test left of an exact fit, and
are only checked to a factor of 10.

After a change that moves an output on purpose, regenerate the digest with

    PYTHONPATH=src python tests/test_example_digest.py

and name every moved file in CHANGES.md with the reason.
"""

import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIGEST = Path(__file__).with_name("example_digest.json")
SAMPLED_ROWS = 17
REL_TOL = 1e-10
# Leaves set by the round-off of an exact fit, compared to a factor of 10.
ROUND_OFF = {"fit_fpi.json": ("covariance", "one_sigma", "residual_norm")}
MANIFEST_OMITTED = ("config_path", "versions", "wall_time_s")


def _round(x: float) -> float:
    return float(f"{x:.12g}")


def _csv_digest(path: Path) -> dict:
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    header = lines[0].split(",")
    table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    table = table.reshape(len(lines) - 1, len(header))
    rows = np.unique(np.linspace(0, len(table) - 1, min(len(table), SAMPLED_ROWS)).round())
    columns = {}
    for name, column in zip(header, table.T):
        columns[name] = {
            "values": [_round(x) for x in column[rows.astype(int)]],
            "min": _round(column.min()),
            "max": _round(column.max()),
            "sum": _round(column.sum()),
        }
    return {"rows": len(table), "columns": columns}


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, _round(node) if isinstance(node, float) else node


def _json_digest(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if path.name == "run_manifest.json":
        for key in MANIFEST_OMITTED:
            payload.pop(key)
    return {"leaves": dict(_leaves(payload))}


def digest(out_dir: Path) -> dict:
    """The digest of every file in ``out_dir``, by file name."""
    return {
        path.name: (_csv_digest if path.suffix == ".csv" else _json_digest)(path)
        for path in sorted(Path(out_dir).iterdir())
    }


def run_example(work_dir: Path) -> Path:
    """Run the example into ``work_dir/out`` from ``work_dir``; the output directory."""
    script = ROOT / "scripts" / "generate_datasets.py"
    spec = importlib.util.spec_from_file_location("generate_datasets", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv, cwd = sys.argv, Path.cwd()
    # "out" keeps the fit inputs of the example at their configured paths, so
    # the configuration, and with it every config_hash, is the example's own.
    sys.argv = ["generate_datasets.py", "--out", "out"]
    try:
        os.chdir(work_dir)
        assert module.main() == 0
    finally:
        os.chdir(cwd)
        sys.argv = argv
    return work_dir / "out"


def _number_mismatch(expected, actual, abs_tol: float = 0.0, rel_tol: float = REL_TOL):
    if not (isinstance(actual, float) or isinstance(expected, float)):
        return expected != actual
    return not math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=abs_tol)


def compare(expected: dict, actual: dict) -> list[str]:
    """Every difference between two digests, one line each."""
    problems = []
    if sorted(expected) != sorted(actual):
        problems.append(f"files: expected {sorted(expected)}, got {sorted(actual)}")
    for name in sorted(set(expected) & set(actual)):
        want, got = expected[name], actual[name]
        if "leaves" in want:
            if list(want["leaves"]) != list(got["leaves"]):
                problems.append(f"{name}: key paths differ")
                continue
            for key, value in want["leaves"].items():
                loose = key.split("[")[0] in ROUND_OFF.get(name, ())
                if _number_mismatch(value, got["leaves"][key], rel_tol=0.9 if loose else REL_TOL):
                    problems.append(f"{name}: {key} = {got['leaves'][key]!r}, digest {value!r}")
            continue
        if (want["rows"], list(want["columns"])) != (got["rows"], list(got["columns"])):
            problems.append(
                f"{name}: {got['rows']} rows of {list(got['columns'])}, "
                f"digest {want['rows']} rows of {list(want['columns'])}"
            )
            continue
        for column, stats in want["columns"].items():
            scale = max(abs(stats["min"]), abs(stats["max"]))
            for stat, tolerance in (("values", scale), ("min", scale), ("max", scale),
                                    ("sum", want["rows"] * scale)):
                values, digested = got["columns"][column][stat], stats[stat]
                pairs = zip(digested, values) if stat == "values" else [(digested, values)]
                if any(_number_mismatch(a, b, abs_tol=REL_TOL * tolerance) for a, b in pairs):
                    problems.append(f"{name}: column {column} {stat} {values!r}, "
                                    f"digest {digested!r}")
    return problems


def test_example_run_matches_digest(tmp_path):
    expected = json.loads(DIGEST.read_text(encoding="utf-8"))
    problems = compare(expected, digest(run_example(tmp_path)))
    assert not problems, "\n".join(problems)


def test_digest_detects_a_moved_value():
    expected = json.loads(DIGEST.read_text(encoding="utf-8"))
    moved = json.loads(json.dumps(expected))
    column = moved["squeeze_ideal.csv"]["columns"]["value"]
    column["values"][3] *= 1.0 + 1e-9
    moved["fit_fpi.json"]["leaves"]["fitted.tau_build_s"] *= 1.0 + 1e-9
    assert compare(expected, expected) == []
    assert len(compare(expected, moved)) == 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        result = digest(run_example(Path(work)))
    # One line per file, so that a diff of the digest names the moved files.
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in result.items()]
    DIGEST.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {DIGEST} ({len(result)} files)")
