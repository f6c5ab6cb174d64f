"""Command-line interface.

One executable, one subcommand per capability: kernel evaluation, the
Tracy-Widom table, multi-time gap probabilities, conditional-window
trends, growth simulation, finite-N kernel reports, and the two
verification experiments.  CSV is the canonical output (UTF-8, LF, '#'
comment header with invocation, seed and version, floats at 17
significant digits); JSON reports use sorted keys.  Exit codes: 0 ok,
2 usage, 3 numeric non-convergence, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, NumericsError, InsufficientDataError
from . import airy_kernel, fredholm, harness, png_kernel, png_sim
from .svgplot import line_plot_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_DATA = 4


@functools.cache
def _version_string() -> str:
    base = f"airypng {__version__}"
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              cwd=Path(__file__).parent).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        desc = ""
    return f"{base} ({desc})" if desc else base


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, columns, rows, invocation: str, seed) -> None:
    lines = [f"# invocation: {invocation}",
             f"# seed: {seed}",
             f"# version: {_version_string()}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_floats(spec: str, sep: str = ",", count: int = 0):
    """Finite numbers separated by ``sep``; exactly ``count`` of them if
    given."""
    try:
        values = [float(p) for p in spec.split(sep)]
        if not all(map(math.isfinite, values)):
            raise ValueError(spec)
    except ValueError as exc:
        raise DomainError(f"{spec!r} is not {sep!r}-separated finite "
                          "numbers") from exc
    if count and len(values) != count:
        raise DomainError(f"{spec!r} needs {count} {sep!r}-separated numbers")
    return values


def parse_grid(spec: str) -> np.ndarray:
    """start:stop:step, endpoints included within half a step."""
    start, stop, step = parse_floats(spec, ":", 3)
    if step <= 0 or stop < start:
        raise DomainError(f"grid {spec!r} must increase")
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(count)


def parse_window(spec: str):
    return tuple(parse_floats(spec, ":", 2))


def _threads(args) -> int:
    if args.threads < 0:
        raise DomainError("--threads must be >= 0")
    if args.threads:
        return args.threads
    env = os.environ.get("AIRYPNG_THREADS")
    if env:
        if not (env.isdigit() and int(env) >= 1):
            raise DomainError(f"AIRYPNG_THREADS={env!r} is not a positive "
                              "integer")
        return int(env)
    return os.cpu_count() or 1


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _invocation(argv) -> str:
    return "airypng " + " ".join(argv)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_kernel(args, argv) -> int:
    out = _outdir(args)
    inv = _invocation(argv)
    if args.okounkov_check:
        alpha = args.alpha
        if not 0.0 < alpha < math.inf:
            raise DomainError("--alpha must be positive and finite")
        rows = []
        worst = 0.0
        for x in (-2.0, -0.5, 0.0, 1.0, 2.0):
            for y in (-2.0, -0.5, 0.0, 1.0, 2.0):
                # both half-axis pieces by quadrature; no closed form on
                # the left side
                legs = [airy_kernel.Leg(0.0, v, npp=96) for v in (x, y)]
                lhs = float(airy_kernel.positive_block(*legs, -alpha)[0, 0]
                            - airy_kernel.mirrored_block(*legs, alpha)[0, 0])
                rhs = float(airy_kernel.heat_phi(alpha, x, y))
                rows.append((alpha, x, y, lhs, rhs, abs(lhs - rhs)))
                worst = max(worst, abs(lhs - rhs))
        write_csv(out / "okounkov.csv",
                  ["alpha", "x", "y", "integral", "closed_form", "residual"],
                  rows, inv, args.master_seed)
        print(f"okounkov max |residual| = {worst:.3e}")
        return EXIT_OK
    if args.x_grid is None:
        raise DomainError("--x-grid is required (or use --okounkov-check)")
    xs = parse_grid(args.x_grid)
    ys = parse_grid(args.y_grid) if args.y_grid else np.array([args.y])
    values = airy_kernel.kernel_grid(args.s, args.t, xs, ys)
    rows = [(args.s, args.t, x, y, float(v))
            for x, row in zip(xs, values) for y, v in zip(ys, row)]
    write_csv(out / "kernel.csv", ["s", "t", "x", "y", "value"], rows,
              inv, args.master_seed)
    print(f"wrote {len(rows)} kernel values")
    return EXIT_OK


def cmd_tw2(args, argv) -> int:
    out = _outdir(args)
    grid = parse_grid(args.s_grid)
    cols = ["s", "F2"]
    rows = []
    for s in grid:
        row = [float(s), fredholm.tw2_cdf(float(s), n=args.nodes)]
        if args.pdf:
            row.append(fredholm.tw2_pdf(float(s), n=args.nodes))
        rows.append(tuple(row))
    if args.pdf:
        cols.append("F2_prime")
    write_csv(out / "tw2.csv", cols, rows, _invocation(argv),
              args.master_seed)
    if args.plot:
        svg = line_plot_svg([("F2", [r[0] for r in rows],
                              [r[1] for r in rows])],
                            "Tracy-Widom GUE distribution", "s", "F2(s)",
                            header_comment=_invocation(argv))
        (out / args.plot).write_text(svg, encoding="utf-8")
    print(f"wrote tw2.csv with {len(rows)} rows")
    return EXIT_OK


def cmd_gap(args, argv) -> int:
    out = _outdir(args)
    times = parse_floats(args.times)
    thresholds = parse_floats(args.thresholds)
    grid = fredholm.TimeGrid(tuple(times), tuple(thresholds))
    value = fredholm.gap_probability(grid, n=args.nodes, L=args.cutoff)
    clamped = min(max(value, 0.0), 1.0)
    write_csv(out / "gap.csv", ["times", "thresholds", "probability"],
              [(";".join(map(_fmt, times)), ";".join(map(_fmt, thresholds)),
                clamped)], _invocation(argv), args.master_seed)
    print(f"gap probability = {clamped:.12g}")
    return EXIT_OK


def _airy_trend(args, path: Path, inv: str) -> dict:
    """Run the Airy conditional-window experiment of ``args`` and write
    its rows to the CSV at ``path``."""
    table = harness.run_airy_brownian_experiment(
        args.t1, args.p1, parse_floats(args.epsilons),
        parse_floats(args.s_gaps),
        [parse_window(w) for w in args.windows.split(",")])
    write_csv(path, ["epsilon", "estimate", "gaussian_target", "abs_error"],
              [(r.epsilon, r.estimate, r.gaussian_target, r.abs_error)
               for r in table["rows"]], inv, args.master_seed)
    return table


def cmd_conditional(args, argv) -> int:
    out = _outdir(args)
    table = _airy_trend(args, out / "conditional.csv", _invocation(argv))
    rows = table["rows"]
    if args.plot:
        eps = [r.epsilon for r in rows]
        svg = line_plot_svg(
            [("estimate", eps, [r.estimate for r in rows]),
             ("gaussian", eps, [r.gaussian_target for r in rows])],
            "Conditional window probability vs Brownian", "epsilon",
            "probability", header_comment=_invocation(argv))
        (out / args.plot).write_text(svg, encoding="utf-8")
    print(f"trend monotone within slack: {table['trend_ok']}")
    return EXIT_OK


def cmd_png(args, argv) -> int:
    out = _outdir(args)
    inv = _invocation(argv)
    if args.coupling_check:
        failures = []
        for seed in range(args.seeds):
            ok, viol = png_sim.coupling_check_detail(
                args.master_seed + seed, args.size, args.q)
            if not ok:
                failures.append((seed, viol))
        print(f"{args.seeds - len(failures)}/{args.seeds} exact")
        if failures:
            seed, viol = failures[0]
            print(f"first mismatch: seed {seed}, (i, j, G, h) = {viol}")
            return EXIT_NUMERIC
        return EXIT_OK
    if args.sample_h:
        ts = parse_grid(args.t_grid) if args.t_grid else np.array([0.0])
        rows = []
        for rep in range(args.replicas):
            cfg = png_sim.PngConfig(q=args.q, n_steps=2 * args.size - 1,
                                    seed=args.master_seed + rep)
            field = png_sim.simulate(cfg)
            for t in ts:
                rows.append((rep, float(t),
                             png_sim.rescale_H(field, float(t), args.q)))
        write_csv(out / "h_samples.csv", ["replica", "t", "H"], rows, inv,
                  args.master_seed)
        print(f"wrote {len(rows)} H samples")
        return EXIT_OK
    cfg = png_sim.PngConfig(q=args.q, n_steps=args.n_steps,
                            seed=args.master_seed)
    field = png_sim.simulate(cfg)
    rows = [(x, field.height(x)) for x in range(-field.t, field.t + 1)]
    write_csv(out / "heights.csv", ["x", "h"], rows, inv, args.master_seed)
    print(f"wrote height profile at t = {field.t}")
    return EXIT_OK


def cmd_png_kernel(args, argv) -> int:
    out = _outdir(args)
    inv = _invocation(argv)
    if args.n1_exact:
        params = png_kernel.default_params(math.sqrt(args.q), 1)
        rows = []
        worst = 0.0
        for M in range(0, 9):
            det = png_kernel.discrete_gap_probability(params, 0, M)
            exact = 1.0 - args.q ** (M + 1)
            rows.append((M, det, exact, abs(det - exact)))
            worst = max(worst, abs(det - exact))
        write_csv(out / "n1_exact.csv",
                  ["threshold", "determinant", "geometric_cdf", "abs_error"],
                  rows, inv, args.master_seed)
        print(f"n1 exactness: max abs error = {worst:.3e}")
        return EXIT_OK
    if args.airy_limit:
        n_list = [int(v) for v in parse_floats(args.n_list)]
        rows = png_kernel.airy_limit_report(args.q, n_list)
        write_csv(out / "airy_limit.csv",
                  ["N", "quantity", "value", "reference", "abs_error"],
                  [(r.N, "scaled_ktilde", r.scaled_kernel, r.airy_reference,
                    r.abs_error) for r in rows], inv, args.master_seed)
        print("airy-limit errors: "
              + ", ".join(f"N={r.N}: {r.abs_error:.3e}" for r in rows))
        return EXIT_OK
    raise DomainError("choose --n1-exact or --airy-limit")


def _load_plan(args) -> harness.PngExperimentPlan:
    cfg = {}
    if args.config:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    overrides = {"q": args.q, "N": args.size, "gamma": args.gamma,
                 "replicas": args.replicas}
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    cfg.setdefault("q", 0.25)
    cfg.setdefault("N", 128)
    cfg.setdefault("gamma", 1.0 / 3.0)
    cfg.setdefault("tau1", 0.0)
    cfg.setdefault("s_gaps", [1.0])
    cfg.setdefault("windows", [[-1.0, 1.0]])
    cfg.setdefault("replicas", 200_000)
    cfg.setdefault("master_seed", args.master_seed)
    cfg["windows"] = [tuple(w) for w in cfg["windows"]]
    cfg["s_gaps"] = tuple(cfg["s_gaps"])
    cfg["workers"] = args.threads_resolved
    return harness.PngExperimentPlan(**cfg)


def cmd_verify(args, argv) -> int:
    out = _outdir(args)
    inv = _invocation(argv)
    if args.experiment == "png-brownian":
        plan = _load_plan(args)
        report = harness.run_png_brownian_experiment(plan)
        doc = report.as_dict(include_timing=not args.no_timing)
        doc["environment"] = {"invocation": inv,
                              "version": _version_string()}
        (out / "report.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        rows = [(e["window"][0], e["window"][1], e["integer_window"][0],
                 e["integer_window"][1], e["estimate"], e["standard_error"])
                for e in report.estimates]
        write_csv(out / "report.csv",
                  ["a", "b", "lo", "hi", "estimate", "standard_error"],
                  rows, inv, plan.master_seed)
        svg = line_plot_svg(
            [("estimate", list(range(1, len(rows) + 1)),
              [r[4] for r in rows]),
             ("gaussian", list(range(1, len(rows) + 1)),
              [report.gaussian_target] * len(rows))],
            "Growth-model window probabilities", "window index",
            "probability", header_comment=inv)
        (out / "report.svg").write_text(svg, encoding="utf-8")
        print(f"joint estimate {report.joint_estimate:.5f} "
              f"+- {report.joint_standard_error:.5f}; "
              f"gaussian {report.gaussian_target:.5f}; "
              f"conditioned {report.conditioned_count}")
        return EXIT_OK
    if args.experiment == "airy-brownian":
        table = _airy_trend(args, out / "airy_trend.csv", inv)
        doc = {"rows": [vars(r) for r in table["rows"]],
               "gaussian_target": table["gaussian_target"],
               "trend_ok": table["trend_ok"],
               "environment": {"invocation": inv,
                               "version": _version_string()}}
        (out / "airy_trend.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        print(f"trend ok: {table['trend_ok']}")
        return EXIT_OK
    raise DomainError(f"unknown experiment {args.experiment!r}")


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="airypng",
        description="Airy process and discrete growth numerics")
    top.add_argument("--output-dir", default=".",
                     help="directory for output files")
    top.add_argument("--master-seed", type=int, default=0)
    top.add_argument("--threads", type=int, default=0,
                     help="worker count; 0 = AIRYPNG_THREADS or cpu count")
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate the two-time kernel")
    k.add_argument("--s", type=float, default=0.0)
    k.add_argument("--t", type=float, default=0.0)
    k.add_argument("--x-grid")
    k.add_argument("--y", type=float, default=0.0)
    k.add_argument("--y-grid")
    k.add_argument("--okounkov-check", action="store_true")
    k.add_argument("--alpha", type=float, default=0.5)
    k.set_defaults(fn=cmd_kernel)

    nodes_help = ("top Nystrom order n: each value comes from the first "
                  "(m, 2m) pair at m = n/4, n/2, n with at least 6 nodes "
                  "per panel that agrees within 1e-8 (n >= 48 at the "
                  "default cutoff)")
    t = sub.add_parser("tw2", help="Tracy-Widom GUE table")
    t.add_argument("--s-grid", required=True)
    t.add_argument("--pdf", action="store_true")
    t.add_argument("--plot", help="SVG file name")
    t.add_argument("--nodes", type=int, default=fredholm.DEFAULT_NODES,
                   help=nodes_help)
    t.set_defaults(fn=cmd_tw2)

    g = sub.add_parser("gap", help="multi-time gap probability")
    g.add_argument("--times", required=True)
    g.add_argument("--thresholds", required=True)
    g.add_argument("--nodes", type=int, default=fredholm.DEFAULT_NODES,
                   help=nodes_help)
    g.add_argument("--cutoff", type=float, default=fredholm.DEFAULT_CUTOFF)
    g.set_defaults(fn=cmd_gap)

    c = sub.add_parser("conditional", help="conditional-window trend table")
    c.add_argument("--t1", type=float, default=0.0)
    c.add_argument("--p1", type=float, required=True)
    c.add_argument("--epsilons", required=True)
    c.add_argument("--s-gaps", default="1.0")
    c.add_argument("--windows", default="-1:1",
                   help="comma-separated a:b windows")
    c.add_argument("--plot", help="SVG file name")
    c.set_defaults(fn=cmd_conditional)

    p = sub.add_parser("png", help="growth simulation")
    p.add_argument("--q", type=float, default=0.25)
    p.add_argument("--n-steps", type=int, default=63)
    p.add_argument("--coupling-check", action="store_true")
    p.add_argument("--size", "--n", type=int, default=50, dest="size",
                   help="N for coupling check / H sampling")
    p.add_argument("--seeds", type=int, default=1000)
    p.add_argument("--sample-h", action="store_true")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--t-grid")
    p.set_defaults(fn=cmd_png)

    pk = sub.add_parser("png-kernel", help="finite-N kernel reports")
    pk.add_argument("--q", type=float, default=0.25)
    pk.add_argument("--n1-exact", action="store_true")
    pk.add_argument("--airy-limit", action="store_true",
                    help="scaled-kernel convergence report")
    pk.add_argument("--n-list", default="32,64,128,256")
    pk.set_defaults(fn=cmd_png_kernel)

    v = sub.add_parser("verify", help="theorem-verification experiments")
    v.add_argument("experiment", choices=["png-brownian", "airy-brownian"])
    v.add_argument("--config", help="JSON plan file; flags override")
    v.add_argument("--q", type=float)
    v.add_argument("--size", type=int, help="N")
    v.add_argument("--gamma", type=float)
    v.add_argument("--replicas", type=int)
    v.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock timing for byte-stable reports")
    v.add_argument("--t1", type=float, default=0.0)
    v.add_argument("--p1", type=float, default=-1.0)
    v.add_argument("--epsilons", default="0.2,0.1,0.05")
    v.add_argument("--s-gaps", default="1.0")
    v.add_argument("--windows", default="-1:1")
    v.set_defaults(fn=cmd_verify)
    return top


_VALUE_FLAGS = {"--x-grid", "--y-grid", "--s-grid", "--t-grid", "--times",
                "--thresholds", "--epsilons", "--s-gaps", "--windows",
                "--n-list"}


def _merge_dash_values(argv):
    """Let grid/list flags take values that start with a minus sign."""
    out = []
    skip = False
    for tok, nxt in zip(argv, argv[1:] + [None]):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _merge_dash_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads_resolved = _threads(args)
        return args.fn(args, argv)
    except DomainError as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
