"""Command-line front end for the experiment runners.

Subcommands: fig1, table <1..7>, fd-check, eps0.  Each writes its rows as
<out>/<experiment>.csv (plus an SVG for fig1) and appends a pass/fail line
per checked row to <out>/summary.csv.  Exit status: 0 when every checked
row is within tolerance, 1 on a tolerance breach, 2 on bad configuration or
when the eigensolver fails.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import experiments
from .linalg import EigensolveError

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

_CONFIG_KEYS = {"ntheta": int, "nr": int, "out": str, "tolerance": float, "jobs": int}


class ConfigError(ValueError):
    pass


def read_config(path):
    """key=value per line of UTF-8 text; '#' comments and blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(known: {', '.join(sorted(_CONFIG_KEYS))})")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steklov-lab",
        description="Steklov eigenvalues of annular domains: curves, tables and checks.")
    parser.add_argument("--config", help="key=value settings file (flags override it)")
    parser.add_argument("--ntheta", type=int, help="angular mesh resolution (default 512)")
    parser.add_argument("--nr", type=int, help="radial mesh resolution (default 48)")
    parser.add_argument("--out", help="output directory (default ./out)")
    parser.add_argument("--tolerance", type=float,
                        help="override the per-experiment tolerance")
    parser.add_argument("--jobs", type=int, help="worker processes (default 1)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fig1", help="normalized-eigenvalue curve with its maximum")
    p_table = sub.add_parser("table", help="one reference table (1-7)")
    p_table.add_argument("number", type=int, choices=range(1, 8))
    sub.add_parser("fd-check",
                   help="derivative consistency triangle (mesh capped at 256x24)")
    sub.add_parser("eps0", help="critical inner radius report")
    return parser


def resolve_settings(args):
    settings = {"ntheta": experiments.DEFAULT_NTHETA, "nr": experiments.DEFAULT_NR,
                "out": "out", "tolerance": None, "jobs": 1}
    if args.config:
        settings.update(read_config(args.config))
    for key in ("ntheta", "nr", "out", "tolerance", "jobs"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["ntheta"] < 16 or settings["nr"] < 2:
        raise ConfigError(f"resolution too small: ntheta={settings['ntheta']} nr={settings['nr']}")
    if settings["jobs"] < 1:
        raise ConfigError(f"jobs must be >= 1, got {settings['jobs']}")
    tol = settings["tolerance"]
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")
    return settings


def _append_summary(out_dir, rows):
    path = out_dir / "summary.csv"
    fresh = not path.exists()
    text = experiments.rows_to_csv(rows)
    with path.open("a") as fh:
        fh.write(text if fresh else text.split("\n", 1)[1])
    return path


def run(args, settings):
    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ntheta, nr = settings["ntheta"], settings["nr"]
    tol, jobs = settings["tolerance"], settings["jobs"]

    if args.command == "fig1":
        result = experiments.run_fig1()
        (out_dir / "fig1.csv").write_text(experiments.curve_to_csv(result["curve"]))
        svg = experiments.polyline_svg(result["curve"], (result["eps0"], result["E_at_eps0"]))
        (out_dir / "fig1.svg").write_text(svg)
        rows = [experiments.ResultRow(
            experiment="fig1", descriptor=f"eps0={result['eps0']:.12f}",
            computed=result["E_at_eps0"], reference=None, tolerance=None)]
    elif args.command == "table":
        if args.number == 7:
            rows = experiments.run_perturbed_table(ntheta, nr, tolerance=tol, jobs=jobs)
        else:
            rows = experiments.run_translation_table(
                args.number, ntheta, nr, tolerance=tol, jobs=jobs)
        (out_dir / f"table{args.number}.csv").write_text(experiments.rows_to_csv(rows))
    elif args.command == "fd-check":
        rows = experiments.run_fd_check(n_theta=min(ntheta, 256), n_radial=min(nr, 24),
                                        tolerance=tol, jobs=jobs)
        (out_dir / "fd-check.csv").write_text(experiments.rows_to_csv(rows))
    else:  # eps0
        report = experiments.run_eps0()
        lines = ["quantity,value"]
        lines += [f"{key},{value:.15g}" for key, value in report.items()]
        (out_dir / "eps0.csv").write_text("\n".join(lines) + "\n")
        rows = [experiments.ResultRow(
            experiment="eps0", descriptor="root-vs-argmax agreement",
            computed=abs(report["root"] - report["argmax"]),
            reference=0.0, tolerance=1e-5)]

    _append_summary(out_dir, rows)
    worst = [r for r in rows if not r.passed]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        ref = "" if r.reference is None else f" ref={r.reference:.6f}"
        print(f"[{status}] {r.experiment} {r.descriptor} value={r.computed:.6f}{ref}")
    return EXIT_TOLERANCE if worst else EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(args, settings)
    except EigensolveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
