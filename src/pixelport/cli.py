"""Command-line front end: pixelport <command> [options].

teleport runs an image through the channel per a key=value config; profile
and fidelity-curve write the squeezing ring's radial profile and fidelity
curves as CSV; oracle-verify runs the Fock-space oracle checks and prints
their table.  Run pixelport <command> --help for the options of one.

Exit codes: 0 success, 1 invalid configuration or arguments (an unreadable
config included), 2 unreadable or unwritable image or output files, 3 oracle
check failure.  An error prints one "error: <message>" line and nothing else
on stderr.  A warning prints as one "warning: <message>" line once the
command returns; a run that ends in an error drops it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import channel, fock, spdc
from .config import ConfigError, RunConfig, load_config, squeezing_settings
from .grid import GridGeometry, decompose, synthesize
from .imagefile import ImageFormatError, _fmt, read_image, write_image

FIG3_PAIRS = ((1.0, 0.5), (1.0, 0.7), (0.7, 0.5))
FIG4_XIS = (1.0, 10.0)
# Largest --samples for profile and fidelity-curve.  Curve columns are written
# row by row (see _write_csv), so a run holds a few dozen bytes per cell and
# stays under 64 MB resident at the cap.  fidelity-curve also caps its cells:
# (1 + number of --xi values) * --samples may be at most MAX_CELLS, the three
# columns of a run at the cap, so more --xi values keep that bound.
MAX_SAMPLES = 100_000
MAX_CELLS = 3 * MAX_SAMPLES


def _write_csv(path, comments: list[str], header: str, rows: np.ndarray) -> None:
    # A fidelity map repeats most of its values, so each distinct bit pattern
    # is formatted once; bit patterns, not values, keep -0.0 apart from 0.0.
    # When more than half the cells are distinct (shot maps, curve columns),
    # each row is formatted as it is written instead: a string per distinct
    # value would hold over 7x the map's bytes, while formatting the repeats
    # too takes at most 1.5x the table's time (at half distinct, and none
    # extra from about 80% on).
    rows = np.asarray(rows, dtype=float)
    bits = rows.view(np.int64).ravel()
    order = np.argsort(bits)  # groups equal patterns; each map-sized array is dropped once used
    bits = bits[order]
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    if 2 * np.count_nonzero(first) > first.size:
        del bits, order, first
        lines = (",".join(map(repr, row.tolist())) for row in rows)
    else:
        patterns = bits[first].view(float)
        del bits
        first[0] = False  # a cell's index into patterns is then the running count of first-of-runs
        inverse = np.empty(first.size, dtype=np.int32 if first.size < 2**31 else np.intp)
        inverse[order] = np.cumsum(first, dtype=inverse.dtype)
        del order, first
        text = np.array([repr(v) for v in patterns.tolist()], dtype=object)
        lines = (",".join(text[row].tolist()) for row in inverse.reshape(rows.shape))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _run_params(cfg: RunConfig, geometry: GridGeometry, raw_plane: bool) -> list[tuple[str, str]]:
    return [
        ("mode", cfg.mode),
        *((key, _fmt(value)) for key, value in squeezing_settings(cfg)),
        ("seed", str(cfg.seed)),
        ("n_shots", str(cfg.n_shots)),
        ("width", str(geometry.width)),
        ("height", str(geometry.height)),
        ("pitch", _fmt(geometry.pitch)),
        ("origin_x", _fmt(geometry.origin[0])),
        ("origin_y", _fmt(geometry.origin[1])),
        ("raw_plane", str(raw_plane).lower()),
        ("input", cfg.input_path),
    ]


def cmd_teleport(args) -> int:
    """Wire the steps of a run; each value is checked where it is built (see config and grid).

    Each array is dropped once no later step reads it: the input samples once
    decomposed, the field and squeezing profile once teleported, the teleported
    field once written.  So an analytic run peaks at the channel's own arrays,
    the complex image in and out, the squeezing map and the fidelity map: about
    3x the complex image's bytes.
    """
    cfg = load_config(args.config)
    overrides = {"seed": args.seed, "n_shots": args.shots}
    cfg = dataclasses.replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
    samples, _, _ = read_image(cfg.input_path)
    geometry = GridGeometry(width=samples.shape[1], height=samples.shape[0], pitch=cfg.pitch, origin=cfg.origin)
    field = decompose(samples, geometry)
    del samples
    if cfg.mode == "ideal":
        profile = spdc.SqueezingProfile.uniform(geometry, cfg.squeezing)
    else:
        ring = cfg.squeezing if isinstance(cfg.squeezing, spdc.RingParams) else spdc.ring_from_spdc(cfg.squeezing)
        profile = spdc.profile_for_grid(geometry, ring)
    out_field, fid, image_fidelity = channel.teleport_image(
        field, profile, seed=cfg.seed, n_shots=cfg.n_shots, raw_plane=args.raw_plane
    )
    del field, profile

    params = _run_params(cfg, geometry, args.raw_plane)
    comments = [f"{k}={v}" for k, v in params]
    fidelity = _fmt(image_fidelity)
    write_image(cfg.output_path, synthesize(out_field), comments=tuple(comments))
    del out_field
    header = ",".join(f"col{i}" for i in range(geometry.width))
    _write_csv(cfg.fidelity_map_path, comments + [f"image_fidelity={fidelity}"], header, fid)

    summary = dict(params, image_fidelity=fidelity, output=cfg.output_path, fidelity_map=cfg.fidelity_map_path)
    if args.json:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k}={v}\n" for k, v in summary.items())
    Path(cfg.summary_path).write_text(text, encoding="utf-8")
    print(f"image_fidelity={fidelity}")
    return 0


def _ring(r0: float, width: float, xi: float) -> spdc.RingParams:
    span = r0 + 4.0 * width  # radial_profile samples [0, r0 + 4R]
    for flag, value in (("--r0", r0), ("--ring-width", width), ("--xi", xi), ("--r0 + 4 * --ring-width", span)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    return spdc.RingParams(r0=r0, R=width, Xi=xi)


def _curve_jobs(
    args, preset: str, stem: str, preset_xis, flag_xis
) -> list[tuple[Path | str, list[spdc.RingParams]]]:
    """Check the curve flags and return (CSV path, one ring per Xi) for each file to write.

    ``--preset`` gives the three FIG3_PAIRS geometries at ``preset_xis``, one file each in ``--out-dir``.
    Otherwise ``--r0`` and ``--ring-width`` give one geometry at ``flag_xis()``, written to ``--out``;
    ``flag_xis`` is called only then, so a preset ignores ``--xi``.
    """
    if args.samples < 2:
        raise ConfigError(f"--samples must be at least 2, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ConfigError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    if args.preset:
        outdir = Path(args.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        return [
            (outdir / f"{stem}_r0-{r0}_R-{width}.csv", [_ring(r0, width, xi) for xi in preset_xis])
            for r0, width in FIG3_PAIRS
        ]
    if args.r0 is None or args.ring_width is None:
        raise ConfigError(f"{args.command} needs --r0 and --ring-width (or --preset {preset})")
    return [(args.out, [_ring(args.r0, args.ring_width, xi) for xi in flag_xis()])]


def cmd_profile(args) -> int:
    for path, (ring,) in _curve_jobs(args, "fig3", "ring_profile", (1.0,), lambda: (args.xi,)):
        xi = f"xi={_fmt(ring.Xi)}"
        comments = [f"r0={_fmt(ring.r0)}", f"ring_width={_fmt(ring.R)}", xi, f"samples={args.samples}"]
        _write_csv(path, comments, "x,eta,eta_sq_norm", np.column_stack(spdc.radial_profile(ring, args.samples)))
        print(path)
    return 0


def _xi_list(text: str, samples: int) -> tuple[float, ...]:
    try:
        xis = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--xi must be a comma-separated number list, got {text!r}") from None
    if (1 + len(xis)) * samples > MAX_CELLS:
        raise ConfigError(
            f"(1 + number of --xi values) * --samples must be at most {MAX_CELLS}, got {1 + len(xis)} * {samples}"
        )
    return xis


def cmd_fidelity_curve(args) -> int:
    for path, rings in _curve_jobs(args, "fig4", "fidelity_curve", FIG4_XIS, lambda: _xi_list(args.xi, args.samples)):
        cols = []
        for ring in rings:
            x, eta, _ = spdc.radial_profile(ring, args.samples)
            cols.append(channel.average_fidelity(np.abs(eta)))
        xis = [_fmt(ring.Xi) for ring in rings]
        xi_list = "xi_list=" + ",".join(xis)
        comments = [f"r0={_fmt(ring.r0)}", f"ring_width={_fmt(ring.R)}", xi_list, f"samples={args.samples}"]
        header = "x," + ",".join(f"fidelity_xi_{xi}" for xi in xis)
        _write_csv(path, comments, header, np.column_stack((x, *cols)))
        print(path)
    return 0


def cmd_oracle_verify(args) -> int:
    results = fock.run_all_checks(dim=args.dim, photo_dim=args.photo_dim)
    failing = [r.name for r in results if not r.passed]
    if args.json:
        # The text of json.dumps(payload, indent=2, sort_keys=True), written directly: with an
        # indent, json.dumps skips its C encoder.  Numbers are float.__repr__ or json's NaN/Infinity.
        def num(x: float) -> str:
            text = float.__repr__(x)
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)

        checks = ",\n".join(
            f'    {{\n      "name": {json.encoder.encode_basestring_ascii(r.name)},\n'
            f'      "passed": {str(r.passed).lower()},\n      "tolerance": {num(r.tolerance)},\n'
            f'      "value": {num(r.value)}\n    }}'
            for r in results
        )
        print(
            f'{{\n  "checks": [\n{checks}\n  ],\n  "dim": {args.dim},\n'
            f'  "passed": {str(not failing).lower()},\n  "photo_dim": {args.photo_dim}\n}}'
        )
    else:
        name_w = max(len(r.name) for r in results)
        print(f"{'check':<{name_w}}  {'value':>12}  {'tolerance':>12}  status")
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name:<{name_w}}  {r.value:>12.4e}  {r.tolerance:>12.4e}  {status}")
    if failing:
        print(f"failing: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors exit 1 with one line, like a bad config."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pixelport", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="teleport an image per a config file")
    p.add_argument("--config", required=True, help="path to the key=value run config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--shots", type=int, default=None, help="override the config n_shots")
    p.add_argument("--raw-plane", action="store_true", help="emit the physical (point-reflected) plane")
    p.add_argument("--json", action="store_true", help="write the summary as JSON")
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("profile", help="emit the squeezing-ring radial profile")
    p.add_argument("--r0", type=float, default=None, help="ring radius")
    p.add_argument("--ring-width", type=float, default=None, help="ring width R")
    p.add_argument("--xi", type=float, default=1.0, help="squeezing scale Xi")
    p.add_argument("--samples", type=int, default=512, help="radial sample count")
    p.add_argument("--out", default="ring_profile.csv", help="output CSV path")
    p.add_argument("--preset", choices=("fig3",), default=None, help="emit all reference parameter sets")
    p.add_argument("--out-dir", default=".", help="output directory for --preset")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fidelity-curve", help="emit radial fidelity curves")
    p.add_argument("--r0", type=float, default=None, help="ring radius")
    p.add_argument("--ring-width", type=float, default=None, help="ring width R")
    p.add_argument("--xi", default="1", help="comma-separated Xi list")
    p.add_argument("--samples", type=int, default=512, help="radial sample count")
    p.add_argument("--out", default="fidelity_curve.csv", help="output CSV path")
    p.add_argument("--preset", choices=("fig4",), default=None, help="emit all reference parameter sets")
    p.add_argument("--out-dir", default=".", help="output directory for --preset")
    p.set_defaults(func=cmd_fidelity_curve)

    p = sub.add_parser("oracle-verify", help="run the Fock-oracle check suite")
    p.add_argument("--dim", type=int, default=30, help="one/two-mode truncation (default 30)")
    p.add_argument("--photo-dim", type=int, default=10, help="three-mode truncation (default 10)")
    p.add_argument("--json", action="store_true", help="emit machine-readable results")
    p.set_defaults(func=cmd_oracle_verify)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; the one place where errors become exit codes.

    Any ValueError, ConfigError included, is an input error and exits 1, and
    ImageFormatError or OSError exits 2, each with one "error:" line and
    nothing else on stderr.  A warning that the filters let through (-W) prints
    as one "warning:" line, without the source location of Python's default
    form, once the command has returned.  The parser is built once per process
    (build_parser); parse_args keeps nothing in it, so each call gets a fresh
    namespace from the declared defaults and one call's flags never reach the next.
    """
    held = io.StringIO()  # the command's stderr, dropped if it ends in an error so that line stands alone
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(held):  # both restored on the way out
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            args = build_parser().parse_args(argv)
            code = args.func(args)
    except ValueError as exc:  # a ConfigError or any other invalid input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ImageFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write(held.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
