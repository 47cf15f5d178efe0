"""Command-line front end.

Loads a plant description from JSON ({"A": [[...]], "B": [[...]],
"Q": [[...]], "R": [[...]], "name": optional}) and exposes every analysis as
a subcommand.  Results are emitted as JSON with a stable key order (a
library result dataclass keeps its field order) or as RFC-4180 CSV with a
`#`-prefixed run-manifest header; `--gnuplot` adds a plotting script next
to a CSV written with `--out`.

Exit codes: 0 on success, 2 when no Riccati solution exists or the closed
loop is unstable (or a numerical cross-check fails), 1 on usage errors.
The default simulation seed is 0, overridable via the LOSSYLQR_SEED
environment variable or `--seed`.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionError,
    InvalidInputError,
    NoSolutionError,
    NumericalFailureError,
    UnstableError,
)
from .learning import _complexity_curve, certify_ce_controller, hoeffding_delta, min_samples
from .numerics import _check_rate
from .performance import gap, gap_bounds, gap_curve
from .riccati import SystemSpec, ce_gain, critical_probability, dare_solve, mare_solve
from .simulator import SimConfig, empirical_ms_decay, monte_carlo_cost, simulate_trajectory
from .stability import (
    CELL_LABELS,
    THRESHOLD_VARIANTS,
    _threshold_curve,
    exact_ms_stable,
    lyapunov_sufficient_stable,
    region_map,
    scalar_iff_stable,
    st_lower_bound,
    zero_sample_safe_q,
)

DEFAULT_SEED = 0


class CliError(Exception):
    """Usage-level error: bad flags, unreadable/malformed spec, out-of-range rates."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(obj):
    """`json.dumps` hook: result dataclasses become dicts, arrays nested lists."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_system(path: str) -> SystemSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: spec must be a JSON object with keys A, B, Q, R")
    missing = [k for k in ("A", "B", "Q", "R") if k not in data]
    if missing:
        raise CliError(f"{path}: spec is missing keys {', '.join(missing)}")
    try:
        return SystemSpec(
            A=np.asarray(data["A"], dtype=float),
            B=np.asarray(data["B"], dtype=float),
            Q=np.asarray(data["Q"], dtype=float),
            R=np.asarray(data["R"], dtype=float),
            name=str(data.get("name", Path(path).stem)),
        )
    except (InvalidInputError, DimensionError, ValueError) as exc:
        raise CliError(f"{path}: invalid system: {exc}") from exc


def _parse_vector(text: str, n: int, label: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise CliError(f"cannot parse {label} {text!r}: {exc}") from exc
    if vec.size != n:
        raise CliError(f"{label} must have {n} entries, got {vec.size}")
    return vec


def _positive_step(step: float) -> float:
    """The grid step of a curve; the library would divide by it or return no rows."""
    if not step > 0.0:
        raise CliError(f"--step must be positive, got {step}")
    return step


def _require_below_qc(sys_spec: SystemSpec, q: float, label: str):
    cp = critical_probability(sys_spec, refine=False)
    if not 0.0 <= q < cp.upper:
        raise CliError(
            f"{label} = {q:.6g} is outside the admissible range: the critical "
            f"probability satisfies q_c in [{cp.lower:.6g}, {cp.upper:.6g}]"
            + (f" (exact {cp.exact:.6g})" if cp.exact is not None else "")
        )


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("LOSSYLQR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"LOSSYLQR_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _write_file(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


class Emitter:
    """Writes one JSON document or one manifest-headed CSV, to --out or stdout."""

    def __init__(self, args, manifest: dict):
        self.out = getattr(args, "out", None)
        self.gnuplot = getattr(args, "gnuplot", False)
        self.manifest = manifest

    def _finish_manifest(self):
        self.manifest["wall_time_s"] = round(time.perf_counter() - self.manifest.pop("_t0"), 6)
        return self.manifest

    def _write(self, text: str):
        if self.out:
            _write_file(self.out, text)
        else:
            sys.stdout.write(text)

    def emit_json(self, result):
        payload = {"manifest": self._finish_manifest(), "result": result}
        self._write(json.dumps(payload, indent=2, default=_jsonable) + "\n")
        if self.gnuplot:
            print("note: --gnuplot applies to CSV output only", file=sys.stderr)

    def emit_csv(self, columns: list[str], rows, plot: str | None = None):
        self.emit_csv_lines(columns, (",".join(_fmt(v) for v in row) for row in rows), plot)

    def emit_csv_lines(self, columns: list[str], body, plot: str | None = None):
        """`emit_csv` for rows already formatted as CSV lines."""
        manifest = self._finish_manifest()
        lines = [f"# {key}: {value}" for key, value in manifest.items()]
        lines.append(",".join(columns))
        lines.extend(body)
        self._write("\n".join(lines) + "\n")
        if self.gnuplot:
            if not self.out:
                print("note: --gnuplot needs --out to reference the CSV", file=sys.stderr)
            elif plot:
                _write_file(self.out + ".gp", plot.format(csv=self.out))


# ---------------------------------------------------------------- commands


def cmd_solve(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    if args.dare:
        emit.emit_json(dare_solve(sys_spec))
        return
    if args.q is None:
        raise CliError("solve needs --q or --dare")
    _require_below_qc(sys_spec, args.q, "q")
    emit.emit_json(mare_solve(sys_spec, args.q))


def cmd_qc(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    emit.emit_json(critical_probability(sys_spec, refine=not args.no_refine))


def cmd_synth(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    _require_below_qc(sys_spec, args.qhat, "q_hat")
    gain, sol = ce_gain(sys_spec, args.qhat)
    emit.emit_json({**dataclasses.asdict(gain), "riccati": sol})


def cmd_check(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    _require_below_qc(sys_spec, args.qhat, "q_hat")
    if args.criterion == "scalar":
        verdict = scalar_iff_stable(sys_spec, args.q, args.qhat)
    elif args.criterion == "sufficient":
        verdict = lyapunov_sufficient_stable(sys_spec, args.q, args.qhat)
    else:
        gain, _ = ce_gain(sys_spec, args.qhat)
        verdict = exact_ms_stable(sys_spec, gain, args.q)
    emit.emit_json(verdict)


_CURVE_PLOT = """set datafile commentschars '#'
set datafile separator ','
set key autotitle columnhead
set xlabel '{xlabel}'
set ylabel '{ylabel}'
{extra}plot '{{csv}}' using 1:2 with lines
"""


def cmd_threshold(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    modes = [args.q is not None, args.fixed_point, args.curve]
    if sum(modes) != 1:
        raise CliError("threshold needs exactly one of --q, --fixed-point, --curve")
    if args.fixed_point:
        emit.emit_json(
            {"variant": args.variant, "safe_q": zero_sample_safe_q(sys_spec, args.variant)}
        )
        return
    if args.q is not None:
        _require_below_qc(sys_spec, args.q, "q")
        emit.emit_json(st_lower_bound(sys_spec, args.q, args.variant))
        return
    step = _positive_step(args.step)
    rows = [(q, r.bound) for q, r in _threshold_curve(sys_spec, args.variant, 0.0, args.q_max, step)]
    emit.emit_csv(
        ["q", "bound"],
        rows,
        plot=_CURVE_PLOT.format(xlabel="q", ylabel="threshold bound", extra=""),
    )


def cmd_samples(args, emit: Emitter):
    if args.n is not None:
        emit.emit_json(
            {"N_q": args.n, "beta": args.beta, "delta": hoeffding_delta(args.n, args.beta)}
        )
        return
    if args.q is None:
        raise CliError("samples needs --n (Hoeffding radius) or --q (complexity bound)")
    if args.spec is None:
        raise CliError("samples --q needs --spec")
    sys_spec = load_system(args.spec)
    _require_below_qc(sys_spec, args.q, "q")
    report = min_samples(sys_spec, args.q, args.beta, args.variant, delta_bar=args.delta_bar)
    emit.emit_json(
        {
            "variant": report.variant,
            "bound": None if report.infinite else report.bound,
            "min_N": report.min_N,
            "infinite": report.infinite,
        }
    )


def cmd_complexity_curve(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    step = _positive_step(args.step)
    rows = list(_complexity_curve(sys_spec, args.variant, args.beta, args.q_min, args.q_max, step))
    emit.emit_csv(
        ["q", "bound", "min_N"],
        rows,
        plot=_CURVE_PLOT.format(xlabel="q", ylabel="sample complexity", extra="set logscale y\n"),
    )


def cmd_certify(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    _require_below_qc(sys_spec, args.qhat, "q_hat")
    emit.emit_json(certify_ce_controller(sys_spec, args.qhat, args.n, args.beta))


def cmd_gap(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    _require_below_qc(sys_spec, args.q, "q")
    x0 = _parse_vector(args.x0, sys_spec.n, "--x0")
    if args.curve:
        # The lower end of the refined q_c bracket has a solution; the upper
        # end of the unrefined one can lie far above q_c.
        step = _positive_step(args.step)
        grid = np.arange(0.0, critical_probability(sys_spec).lower, step)
        points = gap_curve(sys_spec, args.q, x0, grid)
        rows = [
            (p.q_hat, p.gap if p.stable else "unstable", int(p.stable)) for p in points
        ]
        emit.emit_csv(
            ["q_hat", "gap", "stable"],
            rows,
            plot=_CURVE_PLOT.format(xlabel="q_hat", ylabel="optimality gap", extra=""),
        )
        return
    if args.qhat is None:
        raise CliError("gap needs --qhat (or --curve)")
    _require_below_qc(sys_spec, args.qhat, "q_hat")
    report = gap(sys_spec, args.q, args.qhat, x0)
    bound, which = gap_bounds(report)
    emit.emit_json(
        {
            "q": report.q,
            "q_hat": report.q_hat,
            "J_ce": report.J_ce,
            "J_star": report.J_star,
            "gap": report.gap,
            "X_K_term": report.X_K_term,
            "P_diff_term": report.P_diff_term,
            "second_moment_sum": report.S,
            "upper_bound": bound,
            "upper_bound_kind": which,
        }
    )


_TRAJ_PLOT = """set datafile commentschars '#'
set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set ylabel 'state'
plot for [i=2:*] '{csv}' using 1:i with lines
"""


def cmd_simulate(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    _require_below_qc(sys_spec, args.qhat, "q_hat")
    _check_rate(args.q, "--q")
    gain, _ = ce_gain(sys_spec, args.qhat)
    x0 = _parse_vector(args.x0, sys_spec.n, "--x0")
    seed = _resolve_seed(args)
    cfg = SimConfig(seed=seed, horizon=args.horizon, trajectories=args.trajectories)

    if args.mode == "cost":
        mean, std_err = monte_carlo_cost(sys_spec, gain, args.q, x0, cfg)
        emit.emit_json(
            {
                "mean_cost": mean,
                "std_err": std_err,
                "trajectories": cfg.trajectories,
                "horizon": cfg.horizon,
                "seed": seed,
            }
        )
        return
    if args.mode == "decay":
        verdict = empirical_ms_decay(sys_spec, gain, args.q, x0, cfg)
        emit.emit_json(
            {
                "stable": verdict.stable,
                "slope": verdict.slope,
                "log_rho": verdict.log_rho,
                "fit_window": list(verdict.window),
                "trajectories": cfg.trajectories,
                "seed": seed,
            }
        )
        return
    traj = simulate_trajectory(sys_spec, gain, args.q, x0, cfg)
    columns = ["t"] + [f"x{i + 1}" for i in range(sys_spec.n)] + ["lambda"]
    rows = []
    for t, state in enumerate(traj.states):
        lam = int(traj.drops[t]) if t < len(traj.drops) else ""
        rows.append((t, *[float(v) for v in state], lam))
    emit.manifest["realized_cost"] = _fmt(traj.realized_cost)
    emit.manifest["divergent"] = traj.divergent
    emit.emit_csv(columns, rows, plot=_TRAJ_PLOT)


_REGION_PLOT = """set datafile commentschars '#'
set datafile separator ','
set key autotitle columnhead
set xlabel 'q'
set ylabel 'q_hat'
set palette defined (0 'blue', 1 'red', 2 'gray')
unset colorbox
plot '{csv}' using 1:2:(stringcolumn(3) eq 'blue_stabilizing' ? 0 : \\
     stringcolumn(3) eq 'red_unstable' ? 1 : 2) with points pt 5 ps 0.4 palette
"""


def cmd_regions(args, emit: Emitter):
    sys_spec = load_system(args.spec)
    rm = region_map(sys_spec, step=args.step, sufficient_variant=args.variant)
    emit.manifest.update({f"cells_{k}": v for k, v in rm.counts().items()})
    # The text of RegionMap.rows(), formatting each grid value once.
    q_text = [_fmt(q) for q in rm.q_grid.tolist()]
    q_hat_text = [_fmt(q_hat) for q_hat in rm.q_hat_grid.tolist()]
    body = (
        f"{q},{q_hat},{CELL_LABELS[code]}"
        for q, row in zip(q_text, rm.cells.tolist())
        for q_hat, code in zip(q_hat_text, row)
    )
    emit.emit_csv_lines(["q", "q_hat", "class"], body, plot=_REGION_PLOT)


# ---------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="lossylqr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lossylqr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--spec", required=(name != "samples"), help="JSON system spec file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--gnuplot", action="store_true", help="emit a plotting script next to the CSV")
        return p

    p = add("solve", cmd_solve, "solve the (modified) Riccati equation")
    p.add_argument("--q", type=float, help="loss rate")
    p.add_argument("--dare", action="store_true", help="standard Riccati equation (q = 0)")

    p = add("qc", cmd_qc, "critical loss probability")
    p.add_argument("--no-refine", action="store_true", help="skip the bisection refinement")

    p = add("synth", cmd_synth, "certainty-equivalence gain")
    p.add_argument("--qhat", type=float, required=True, help="design loss rate")

    p = add("check", cmd_check, "stability check at (q, q_hat)")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--qhat", type=float, required=True)
    p.add_argument("--criterion", choices=("scalar", "sufficient", "exact"), required=True)

    p = add("threshold", cmd_threshold, "stability-threshold lower bounds")
    p.add_argument("--variant", choices=THRESHOLD_VARIANTS, required=True)
    p.add_argument("--q", type=float, help="evaluate the bound at this loss rate")
    p.add_argument("--fixed-point", action="store_true", help="zero-sample safe loss rate")
    p.add_argument("--curve", action="store_true", help="emit the bound over a q grid as CSV")
    p.add_argument("--q-max", type=float, help="curve upper end, at most the critical probability (the default)")
    p.add_argument("--step", type=float, default=0.005)

    p = add("samples", cmd_samples, "Hoeffding radius / sample-complexity bounds")
    p.add_argument("--beta", type=float, default=0.1, help="failure probability")
    p.add_argument("--n", type=int, help="sample count for the Hoeffding radius")
    p.add_argument("--q", type=float, help="true loss rate for a complexity bound")
    p.add_argument("--variant", default="general", help="complexity variant")
    p.add_argument("--delta-bar", type=float, help="threshold for variant from_threshold")

    p = add("complexity-curve", cmd_complexity_curve, "sample complexity over a q grid")
    p.add_argument("--variant", choices=THRESHOLD_VARIANTS, required=True)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float)
    p.add_argument("--step", type=float, default=0.005)

    p = add("certify", cmd_certify, "data-driven stability certificate")
    p.add_argument("--qhat", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="channel sample count")
    p.add_argument("--beta", type=float, default=0.01)

    p = add("gap", cmd_gap, "optimality gap of the CE controller")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--qhat", type=float)
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--curve", action="store_true", help="gap over a q_hat grid as CSV")
    p.add_argument("--step", type=float, default=0.005)

    p = add("simulate", cmd_simulate, "closed-loop Monte Carlo")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--qhat", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--mode", choices=("trajectory", "cost", "decay"), default="trajectory")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--traj", dest="trajectories", type=int, default=10_000)
    p.add_argument("--seed", type=int, help="simulation seed (default LOSSYLQR_SEED or 0)")

    p = add("regions", cmd_regions, "(q, q_hat) stability region map")
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument(
        "--variant",
        choices=THRESHOLD_VARIANTS + ("scalar_iff", "exact"),
        default="general",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = {
            "command": args.command,
            "arguments": " ".join(argv),
            "seed": _resolve_seed(args),
            "version": __version__,
            "_t0": time.perf_counter(),
        }
        args.func(args, Emitter(args, manifest))
    except (CliError, InvalidInputError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoSolutionError, UnstableError, NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
