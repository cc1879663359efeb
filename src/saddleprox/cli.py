"""Command-line experiment runner.

Subcommands:

* ``potts``     -- discontinuity-penalized denoising on a PGM or synthetic
                   image; writes the denoised image and a CSV iteration log.
* ``nash``      -- two-player PDE game with manufactured equilibrium;
                   writes a CSV of per-iteration distances to the solution.
* ``steps``     -- step-size calculators for the three step regimes plus
                   the denoising-specific calculator; optional schedule
                   condition check.
* ``verify``    -- numerical oracle suite; one ``name,pass/fail,margin``
                   line per check.
* ``gen-image`` -- write a seeded synthetic test image as PGM.

Every flag can also be supplied through ``--config FILE`` holding one
``key = value`` pair per line (``#`` starts a comment).  File values are
parsed as flags given right after the subcommand name, so they are
validated like flags, and explicit command-line flags override them.
Every output file starts with comment lines echoing the effective
configuration, so runs are reproducible from their artifacts alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import ConfigurationError, DivergenceError, SolveOptions, solve
from .schedules import (
    POTTS_PRESETS,
    AcceleratedRule,
    ConstantRule,
    InfeasibleConstantsError,
    LinearRateRule,
    ProblemConstants,
    StepTriple,
    bound_accelerated,
    bound_constant,
    bound_linear,
    check_48,
    potts_steps,
)
from . import nash, potts, verify
from .pgm import read_pgm, write_file, write_pgm


def parse_config_file(path: str) -> dict[str, str]:
    """Read a plain-text ``key = value`` configuration file.

    Blank lines and ``#`` comments are skipped; inline comments after the
    value are stripped.  Keys use the same spelling as the long command
    line flags, without the leading dashes and with ``-`` or ``_``
    interchangeable.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError("%s:%d: expected key = value" % (path, lineno))
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


class CommandParser(argparse.ArgumentParser):
    """A subcommand parser that maps each of its flags to its action in
    ``flags``.  ``add_argument(..., group=g)`` adds the flag to the
    argument group ``g`` of this parser."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}  # __init__ adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, group=None, **kwargs) -> argparse.Action:
        container = super() if group is None else group
        action = container.add_argument(*args, **kwargs)
        self.flags.update(dict.fromkeys(action.option_strings, action))
        return action


def config_tokens(command: CommandParser, path: str) -> list[str]:
    """Command-line tokens standing for the lines of a config file.

    Each ``key = value`` becomes ``--key=value``, or ``--key`` followed by
    the whitespace-separated words of the value for flags taking several
    arguments (``--synthetic``), so argparse checks file values exactly
    like flags.  A key must spell a flag of ``command`` in full, other
    than ``--config``: a file names no other file.
    """
    tokens: list[str] = []
    for key, value in parse_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        action = command.flags.get(flag)
        if action is None or flag == "--config":
            command.error("unknown configuration key %r in %s" % (key, path))
        tokens += [flag] + value.split() if action.nargs else [flag + "=" + value]
    return tokens


def config_header(command: str, items: list[tuple[str, object]]) -> list[str]:
    """Comment lines echoing a run's configuration, non-ASCII backslash-escaped."""
    lines = ["saddleprox %s" % __version__, "command = %s" % command]
    for key, value in items:
        if isinstance(value, float):
            value = repr(value)
        lines.append("%s = %s" % (key, value))
    return [line.encode("ascii", "backslashreplace").decode("ascii") for line in lines]


def write_csv(path: str, header_lines: list[str], columns: list[str],
              rows: list[list]) -> None:
    """Write a CSV file preceded by ``#``-prefixed configuration lines."""
    lines = ["# %s" % line for line in header_lines] + [",".join(columns)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


def fmt_triple(triple: StepTriple) -> list[tuple[str, object]]:
    return [("tau", triple.tau), ("sigma", triple.sigma), ("omega", triple.omega)]


# ---------------------------------------------------------------------------
# potts subcommand.
# ---------------------------------------------------------------------------

def potts_schedule(args: argparse.Namespace) -> tuple[StepTriple, ProblemConstants]:
    """The Potts step calculator applied to the flags ``potts`` and ``steps`` share.

    The bounds grow with the fourth power of the dynamic range, the one
    flag large enough to overflow them.
    """
    try:
        return potts_steps(args.alpha, args.gamma, args.p,
                           dynamic_range=args.dynamic_range, gamma_bar=args.gamma_bar,
                           delta=args.delta, mu=args.mu, gtg=args.gtilde_g,
                           gtf=args.gtilde_f)
    except OverflowError:
        raise ConfigurationError("--dynamic-range %r is too large: the step bounds "
                                 "overflow" % args.dynamic_range) from None


def cmd_potts(args: argparse.Namespace) -> int:
    p, alpha, gamma, iters = args.p, args.alpha, args.gamma, args.iters
    prefix, ref_iters = args.out_prefix, args.reference_iters

    cfg_items: list[tuple[str, object]] = [
        ("p", "inf" if p == math.inf else "1"),
        ("alpha", alpha), ("gamma", gamma), ("iters", iters),
        ("log_stride", args.log_stride), ("reference_iters", ref_iters),
    ]

    if args.synthetic is not None:
        n1, n2, seed = args.synthetic
        image = potts.gen_synthetic(n1, n2, seed, n_shapes=args.n_shapes,
                                    noise_sigma=args.noise_sigma)
        cfg_items += [("synthetic", "%d %d %d" % (n1, n2, seed)),
                      ("n_shapes", args.n_shapes), ("noise_sigma", args.noise_sigma)]
    elif args.input is not None:
        image, _ = read_pgm(args.input)
        cfg_items.append(("input", args.input))
    else:
        raise ConfigurationError("either --input or --synthetic is required")

    if args.preset is not None:
        if args.preset not in POTTS_PRESETS:
            raise ConfigurationError("unknown preset %r (have %s)"
                                     % (args.preset, ", ".join(sorted(POTTS_PRESETS))))
        triple = POTTS_PRESETS[args.preset]
        cfg_items.append(("preset", args.preset))
    else:
        triple, _ = potts_schedule(args)
    cfg_items += fmt_triple(triple)

    problem = potts.PottsProblem(potts.PottsConfig(alpha=alpha, gamma=gamma, p=p),
                                 image)
    result = solve(problem, triple, image.ravel(), np.zeros(problem.dual_dim),
                   SolveOptions(max_iters=iters, log_stride=args.log_stride,
                                reference=ref_iters or None, record_objective=True))
    (state, records), reference = result, result.reference

    header = config_header("potts", cfg_items)
    columns = ["iter", "objective", "step_norm"]
    rows: list[list] = []
    for rec in records:
        row: list = [rec.iteration, rec.objective, rec.step_norm]
        if reference is not None:
            row.append(rec.dist_to_ref ** 2)
        rows.append(row)
    if reference is not None:
        columns.append("err_sq_vs_reference")
    write_csv(prefix + "_log.csv", header, columns, rows)

    denoised = state.x.reshape(image.shape)
    write_pgm(prefix + "_denoised.pgm", denoised, comments=header)
    if reference is not None:
        write_pgm(prefix + "_reference.pgm", reference[0].reshape(image.shape),
                  comments=header)
    for key, value in fmt_triple(triple):
        print("%s = %r" % (key, value))
    print("wrote %s_log.csv (%d rows)" % (prefix, len(rows)))
    return 0


# ---------------------------------------------------------------------------
# nash subcommand.
# ---------------------------------------------------------------------------

def cmd_nash(args: argparse.Namespace) -> int:
    sizes, iters = args.sizes, args.iters
    if min(sizes) < 2:
        raise ConfigurationError("--sizes must all be >= 2, got %d" % min(sizes))
    if len(set(sizes)) < len(sizes):
        raise ConfigurationError("--sizes must not repeat a size, got %s"
                                 % ",".join(map(str, sizes)))
    triple = StepTriple(args.tau, args.sigma, args.omega)

    cfg_items = [("sizes", ",".join(str(n) for n in sizes)), ("iters", iters),
                 ("tau", args.tau), ("sigma", args.sigma), ("omega", args.omega)]
    dist_columns: list[np.ndarray] = []
    for n in sizes:
        config, x_star, y_star = nash.manufacture(n)
        problem = nash.NashProblem(config)
        x0 = np.zeros(problem.primal_dim)
        y0 = np.zeros(problem.dual_dim)
        _, records = solve(problem, triple, x0, y0,
                           SolveOptions(max_iters=iters, log_stride=1,
                                        reference=(x_star, y_star)))
        dist_columns.append(np.array([rec.dist_to_ref for rec in records]))

    header = config_header("nash", cfg_items)
    columns = ["iter"] + ["dist_n%d" % n for n in sizes]
    rows = [[i + 1] + [float(col[i]) for col in dist_columns]
            for i in range(iters)]
    write_csv(args.out, header, columns, rows)
    print("wrote %s (%d rows, %d sizes)" % (args.out, iters, len(sizes)))
    return 0


# ---------------------------------------------------------------------------
# steps subcommand.
# ---------------------------------------------------------------------------

def constants_from_flags(args: argparse.Namespace) -> ProblemConstants:
    return ProblemConstants(
        r_k=args.rk, lambda_x=args.lambda_x, lambda_y=args.lambda_y,
        l_yx=args.lyx, rho_x=args.rho_x, rho_y=args.rho_y,
        theta_x=args.theta_x, theta_y=args.theta_y, xi_x=args.xi_x, xi_y=args.xi_y,
        gamma_g=args.gamma_g, gamma_f=args.gamma_f,
        gtg=0.0 if args.gtilde_g is None else args.gtilde_g,
        gtf=0.0 if args.gtilde_f is None else args.gtilde_f,
        delta=args.delta,
        mu=args.delta if args.mu is None else args.mu,
    )


def bounded(name: str, cap: float, flag: str) -> float:
    """``cap`` if it is finite; an unbounded cap cannot set the step."""
    if math.isinf(cap):
        raise ConfigurationError("%s is unbounded for these constants; give %s"
                                 % (name, flag))
    return cap


def cmd_steps(args: argparse.Namespace) -> int:
    regime = args.regime
    lines: list[tuple[str, object]] = [("regime", regime)]
    if regime == "potts":
        schedule, c = potts_schedule(args)
    else:
        c = constants_from_flags(args)
        # A positive r_k whose square underflows leaves the dual cap infinite too.
        dual_hint = ("a positive --rk or --lambda-y" if args.rk == 0 else
                     "a larger --rk or a positive --lambda-y (at --rk %r the dual cap "
                     "overflows)" % args.rk)
        try:  # the bounds square r_k and lambda_y
            if regime == "constant":
                tau_sup, sigma_bound = bound_constant(c)
                tau = (args.safety * bounded("tau_sup", tau_sup, "--tau")
                       if args.tau is None else args.tau)
                schedule = ConstantRule(tau, bounded("sigma_max", sigma_bound(tau),
                                                     dual_hint))
                lines += [("tau_sup", tau_sup), ("safety", args.safety)]
            elif regime == "accelerated":
                # The product cap alone does not imply the per-iteration
                # dual condition when lambda_y > 0, so sigma uses the
                # constant-regime cap evaluated at tau0.
                tau0_max, _sig_tau = bound_accelerated(c)
                tau0 = (bounded("tau0_max", tau0_max, "--tau0")
                        if args.tau0 is None else args.tau0)
                sigma = bounded("sigma_max", bound_constant(c)[1](tau0), dual_hint)
                schedule = AcceleratedRule(tau0, sigma, c.gtg)
                lines += [("tau0_max", tau0_max)]
            else:
                tau_max = bound_linear(c)
                tau = (bounded("tau_max", tau_max, "--tau")
                       if args.tau is None else args.tau)
                schedule = LinearRateRule(tau=tau, gtg=c.gtg, gtf=c.gtf)
                lines += [("tau_max", tau_max)]
        except OverflowError:
            flag, value = (("--rk", args.rk) if math.isinf(args.rk * args.rk)
                           else ("--lambda-y", args.lambda_y))
            raise ConfigurationError("%s %r is too large: the step bounds overflow"
                                     % (flag, value)) from None
    lines += fmt_triple(schedule.triple(0))

    lines += [(f.name, getattr(c, f.name)) for f in dataclasses.fields(c)]
    for key, value in lines:
        print("%s = %s" % (key, repr(value) if isinstance(value, float) else value))

    if args.check_48 > 0:
        triples = [schedule.triple(i) for i in range(args.check_48)]
        report = check_48(c, triples)
        for cond in report.conditions:
            print("check48:%s = %s (margin %r)"
                  % (cond.name, "pass" if cond.passed else "fail", cond.margin))
        return 0 if report.passed else 1
    return 0


# ---------------------------------------------------------------------------
# verify subcommand.
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    checks = verify.standard_suite(seed=args.seed)
    if args.only is not None:
        checks = [c for c in checks if c.name == args.only]
        if not checks:
            raise ConfigurationError("no check named %r" % args.only)
    all_pass = True
    for chk in checks:
        result = chk.run()
        all_pass &= result.passed
        print("%s,%s,%r" % (chk.name, "pass" if result.passed else "fail",
                            result.margin))
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# gen-image subcommand.
# ---------------------------------------------------------------------------

def cmd_gen_image(args: argparse.Namespace) -> int:
    image = potts.gen_synthetic(args.n1, args.n2, args.seed, n_shapes=args.n_shapes,
                                noise_sigma=args.noise_sigma)
    header = config_header("gen-image", [
        ("n1", args.n1), ("n2", args.n2), ("seed", args.seed),
        ("n_shapes", args.n_shapes), ("noise_sigma", args.noise_sigma),
        ("maxval", args.maxval),
    ])
    write_pgm(args.out, image, maxval=args.maxval, comments=header)
    print("wrote %s (%dx%d)" % (args.out, args.n1, args.n2))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

def penalty(text: str) -> float:
    """``--p``: ``1`` (anisotropic penalty) or ``inf``/``oo`` (isotropic)."""
    if text not in ("1", "inf", "oo"):
        raise argparse.ArgumentTypeError("must be 1, inf or oo, got %r" % text)
    return 1.0 if text == "1" else math.inf


def int_at_least(low: int):
    """An argparse type accepting integers >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" message uses it
    return parse


def finite_float(low: float = -math.inf, strict: bool = False,
                 below: float = math.inf):
    """An argparse type accepting finite floats >= ``low`` (> ``low`` if
    ``strict``) and < ``below``."""
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be finite, got %r" % text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                "must be %s %g, got %r" % (">" if strict else ">=", low, value))
        if not value < below:
            raise argparse.ArgumentTypeError("must be < %g, got %r" % (below, value))
        return value
    parse.__name__ = "float"  # argparse's "invalid float value" message uses it
    return parse


def int_list(text: str) -> list[int]:
    """``--sizes``: a comma-separated list of integers."""
    return [int(s) for s in text.split(",")]


# Model constants of the Potts step calculator; they must be positive.
POTTS_MODEL_FLAGS = {"alpha": 1.0, "gamma": 1e-3, "dynamic-range": 1.0,
                     "gamma-bar": 10.0}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, CommandParser]]:
    """The ``saddleprox`` parser and its subcommand parsers by name.

    A default of None marks a value that is optional or derived from
    the others: mu from delta, the leftover moduli gtilde-g/gtilde-f by
    the calculator, tau and tau0 from the admissible bounds; --preset and
    --only are None when not given, so an empty value is an error.
    """
    parser = argparse.ArgumentParser(
        prog="saddleprox",
        description="Primal-dual splitting experiments: denoising, PDE games,"
                    " step-size calculators, numerical verification.")
    parser.add_argument("--version", action="version",
                        version="saddleprox %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=CommandParser)
    positive = finite_float(0.0, strict=True)

    def add_floats(sub, defaults, kind=finite_float()):
        for flag, default in defaults.items():
            sub.add_argument("--" + flag, type=kind, default=default)

    def add_calculator(sub):
        """Flags of the Potts step calculator, shared by ``potts`` and ``steps``.

        The bounds divide by 1 - mu, so delta and mu must lie below 1;
        the leftover moduli gtilde-g/gtilde-f are >= 0.
        """
        add_floats(sub, POTTS_MODEL_FLAGS, positive)
        add_floats(sub, {"delta": 0.1}, finite_float(0.0, strict=True, below=1.0))
        add_floats(sub, {"mu": None}, finite_float(0.0, below=1.0))
        add_floats(sub, {"gtilde-g": None, "gtilde-f": None}, finite_float(0.0))

    def add_command(name, func, help):
        sub = subs.add_parser(name, help=help)
        sub.add_argument("--config", help="key = value file; flags override it")
        sub.set_defaults(func=func)
        return sub

    sp = add_command("potts", cmd_potts, "discontinuity-penalized denoising run")
    source = sp.add_mutually_exclusive_group()
    sp.add_argument("--input", group=source, help="input PGM image")
    sp.add_argument("--synthetic", group=source, nargs=3, type=int_at_least(0),
                    metavar=("N1", "N2", "SEED"),
                    help="generate a seeded synthetic image instead of --input")
    sp.add_argument("--p", type=penalty, default=1.0, help="penalty flavour: 1 or inf")
    add_calculator(sp)
    sp.add_argument("--noise-sigma", type=finite_float(0.0), default=0.05)
    sp.add_argument("--n-shapes", type=int_at_least(0), default=6)
    sp.add_argument("--iters", type=int_at_least(1), default=10000)
    sp.add_argument("--log-stride", type=int_at_least(1), default=1)
    sp.add_argument("--reference-iters", type=int_at_least(0), default=0)
    sp.add_argument("--preset",
                    help="named step triple: %s" % ", ".join(sorted(POTTS_PRESETS)))
    sp.add_argument("--out-prefix", default="potts")

    sn = add_command("nash", cmd_nash, "two-player PDE game run")
    sn.add_argument("--sizes", type=int_list, default=[63, 127],
                    help="comma list of grid sizes")
    sn.add_argument("--iters", type=int_at_least(1), default=12)
    add_floats(sn, {"tau": 0.99, "sigma": 1.0, "omega": 1.0}, positive)
    sn.add_argument("--out", default="nash_dist.csv")

    st = add_command("steps", cmd_steps, "step-size calculators")
    st.add_argument("regime", choices=("constant", "accelerated", "linear",
                                       "potts"))
    add_calculator(st)
    add_floats(st, {"rk": 1.0}, finite_float(0.0))
    add_floats(st, {"lambda-x": 0.0, "lambda-y": 0.0, "lyx": 0.0,
                    "rho-x": 0.0, "rho-y": 0.0, "theta-x": 1.0, "theta-y": 1.0,
                    "xi-x": 0.0, "xi-y": 0.0, "gamma-g": 0.0, "gamma-f": 0.0})
    add_floats(st, {"tau": None, "tau0": None, "safety": 0.99}, positive)
    st.add_argument("--p", type=penalty, default=1.0)
    st.add_argument("--check-48", type=int_at_least(0), default=0, metavar="N",
                    help="run the schedule condition check on the first N triples")

    sv = add_command("verify", cmd_verify, "numerical oracle suite")
    sv.add_argument("--seed", type=int_at_least(0), default=0)
    sv.add_argument("--only", help="run a single named check")

    sg = add_command("gen-image", cmd_gen_image, "write a synthetic PGM test image")
    sg.add_argument("--out", default="synthetic.pgm")
    for flag, kind, default in (("n1", int, 64), ("n2", int, 64),
                                ("seed", int_at_least(0), 0),
                                ("n-shapes", int_at_least(0), 6), ("maxval", int, 65535)):
        sg.add_argument("--" + flag, type=kind, default=default)
    sg.add_argument("--noise-sigma", type=finite_float(0.0), default=0.05)
    return parser, subs.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; exit 2 on invalid input, 1 on infeasible constants
    or a diverging iteration.

    A ``--config`` file is spliced in as flags right after the subcommand
    name, so the user's own flags, coming later, override it.
    """
    parser, commands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            at = argv.index(args.command) + 1
            argv[at:at] = config_tokens(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigurationError, OSError, UnicodeDecodeError) as exc:
        print("saddleprox %s: %s" % (args.command, exc), file=sys.stderr)
        return 2
    except InfeasibleConstantsError as exc:
        print("saddleprox %s: infeasible step constants: %s" % (args.command, exc),
              file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print("saddleprox %s: the iteration diverged: %s" % (args.command, exc),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
