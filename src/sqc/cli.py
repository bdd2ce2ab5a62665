"""Command-line frontend: sqc simulate | filter | validate."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, control, ekf, engine
from .errors import ParseError, SqcError, ValidationError
from .scenario import check_seed, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


# ---------------------------------------------------------------------------
# CSV text: every value as '%.17g' renders it, formatted by numpy.

_CHUNK_ROWS = 512
_LANE = np.dtype("<u8")  # a value's text is 32 bytes, four little-endian lanes
_EXACT_MIN, _EXACT_MAX = 1e-270, 1e290  # 10**k and its remainder stay normal doubles
_E_LOW, _E_HIGH = -271, 291  # floor(log10 |v|) on that range, one step of margin at each end
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves


def _lanes(texts: list, right: bool = False) -> np.ndarray:
    # Each text as one 8-byte lane, left-aligned, or right-aligned to end at byte 6.
    out = np.zeros((len(texts), 8), np.uint8)
    for row, text in zip(out, texts):
        if right:
            row[7 - len(text):7] = list(text)
        else:
            row[:len(text)] = list(text)
    return out.view(_LANE).ravel()


def _bytes_lanes(masks: np.ndarray) -> np.ndarray:
    return masks.astype(np.uint8).view(_LANE)


@lru_cache(maxsize=None)
def _text_tables() -> tuple:
    """The lookup tables of _significand and _format_rows, built at the first CSV write.

    powers: four contiguous arrays indexed by e - _E_LOW, e = _E_LOW
    to _E_HIGH, of 10**(16 - e) as hi, the double nearest it, hi's two
    Dekker halves, and lo, the double nearest the power minus hi; both
    from integers alone, since Python rounds int / int correctly.
    quads[q]: the four ASCII digits of q < 10**4 as the low half of a
    lane. sig[g, q]: for q, group g of a significand's last 16 digits,
    the count of its digits up to group g's last nonzero one (0 for q =
    0). prefix[code]: separator, sign and lead right-aligned to byte 6,
    code = 16 * separator + 2 * lead + sign, where lead 0 is none, 1-4
    "0." and lead - 1 zeros, 5 nan (never signed), 6 inf and 7 "0".
    suffix[code]: exponent e+XX (code 325 + X) or nothing (0), the
    newline added for code + 634. below[p]: the bytes before byte p;
    dot[p]: "." at byte p.
    """
    rows = []
    for e in range(_E_LOW, _E_HIGH + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        top, bottom = hi.as_integer_ratio()
        c = hi * _SPLIT
        high = c - (c - hi)
        rows.append((hi, high, hi - high, (num * bottom - top * den) / (den * bottom)))
    powers = [np.array(column) for column in zip(*rows)]
    q = np.arange(10_000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    quads = (digits + 48).astype(np.uint8).view("<u4").ravel().astype(_LANE)
    zeros = (digits == 0)[:, ::-1].cumprod(axis=1).sum(axis=1)
    sig = np.where(q > 0, 5 + 4 * np.arange(4)[:, None] - zeros, 0).astype(np.int8)
    leads = [b"", b"0.", b"0.0", b"0.00", b"0.000", b"nan", b"inf", b"0"]
    prefix = _lanes(
        [sep + (sign if lead != b"nan" else b"") + lead
         for sep in (b"", b",") for lead in leads for sign in (b"", b"-")],
        right=True,
    )
    exponents = [b""] + [b"e%+03d" % x for x in range(-324, 309)]
    suffix = _lanes(exponents + [e + b"\n" for e in exponents])
    col = np.arange(32)
    below = _bytes_lanes((col < np.arange(33)[:, None]) * 255)
    dot = _bytes_lanes((col == np.arange(33)[:, None]) * 46)
    return powers, quads, sig, prefix, suffix, below, dot


def _significand(v: np.ndarray) -> tuple:
    """(D, X, exact) for each value: |v| is D * 10**(X - 16) to 17 digits.

    D is in [10**16, 10**17). y = |v| * 10**(16 - e), e = floor(log10
    |v|), is computed as a double-double: the Dekker product of |v| with
    hi, plus |v| * lo, hi + lo being _text_tables' power for e, and D is
    y rounded to the nearest integer. hi + lo is within 2**-106 of the
    power relatively, the split product is exact and the few roundings
    left each err by at most a unit in the last place of a number below
    32, so y is known to within 1e-13 while y < 10**17, and where its
    fraction is more than 1e-6 from a tie, D holds the correctly rounded
    digits that '%.17g' prints. log10 is good to an ulp, so next to a
    power of ten e can be one off. One too high puts D at 10**16 or
    less, which falls back (as D = 10**16 does for an exact power of
    ten). One too low puts y at 10**17 or more: D = 10**17 then means,
    as it does with e right, that |v| rounds to the next power of ten,
    so the digits are 10**16 and X is e + 1; a larger D falls back.

    exact is False, and D and X are of no use, where the value is zero,
    not finite or outside [_EXACT_MIN, _EXACT_MAX], where y's fraction
    is within 1e-6 of a tie, or where the rounded y is not in (10**16,
    10**17].
    """
    a = np.abs(v)
    exact = (a >= _EXACT_MIN) & (a <= _EXACT_MAX)
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    at = e - _E_LOW
    hi, hi_high, hi_low, lo = (column[at] for column in _text_tables()[0])
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    p = a * hi
    rest = (((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low) + a * lo
    whole = np.floor(p)
    rest += p - whole
    carry = np.floor(rest)
    rest -= carry
    d = whole.astype(np.int64) + (carry + (rest > 0.5)).astype(np.int64)
    exact &= (np.abs(rest - 0.5) > 1e-6) & (d > 10**16) & (d <= 10**17)
    up = d == 10**17
    d[up] = 10**16
    return d, e + up, exact


def _format_rows(table: np.ndarray) -> bytes:
    """Rows of comma-separated values, each rendered as '%.17g' % v renders it.

    Each value's text is built in 32 bytes, four little-endian uint64
    lanes, and zero bytes are padding. Bytes 0-6 hold the separator,
    sign and lead (or nan, inf, 0), right-aligned; bytes 7-23 the 17
    digits of D. The digits past the last nonzero one and past the
    integer part are cleared, the bytes from the point's place on move up
    one byte to take the ".", and the exponent and the row's newline
    fill bytes 26-31. Dropping every zero byte leaves the text.
    """
    _, quads, sig, prefix, suffix, below, dot = _text_tables()
    rows, cols = table.shape
    v = table.ravel()
    d, x, exact = _significand(v)
    # D's first digit, then four groups of four.
    first = d // 10**16
    rest = d - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    h, l = high // 10**4, low // 10**4
    groups = (h, high - h * 10**4, l, low - l * 10**4)
    # The digits kept: up to D's last nonzero one, and the integer part.
    fixed = (x >= -4) & (x < 17)
    whole = np.where(fixed & (x >= 0), x + 1, 1)
    kept = whole.copy()
    for g, group in enumerate(groups):
        np.maximum(kept, sig[g][group], out=kept)
    kept *= exact
    code = np.where(fixed & (x < 0), -2 * x, 0)
    code[v == 0] = 14
    code[np.isinf(v)] = 12
    code[np.isnan(v)] = 10
    code += np.signbit(v)
    code.reshape(rows, cols)[:, 1:] += 16
    text = np.zeros((v.size, 4), _LANE)
    text[:, 0] = prefix[code] | (first + 48).astype(_LANE) << np.uint64(56)
    text[:, 1] = quads[groups[0]] | quads[groups[1]] << np.uint64(32)
    text[:, 2] = quads[groups[2]] | quads[groups[3]] << np.uint64(32)
    text &= np.take(below, kept + 7, axis=0)
    # The point after the integer part, where a fraction is left.
    point = (kept > whole) & ~(fixed & (x < 0))
    at = np.where(point, 7 + whole, 32)
    before = np.take(below, at, axis=0)
    moved = text & ~before
    text &= before
    text |= moved << np.uint64(8)
    text[:, 1:] |= moved[:, :-1] >> np.uint64(56)
    text |= np.take(dot, at, axis=0)
    # The exponent and the row's newline, in bytes 26-31: the last digit
    # is at byte 24 or lower, and e-308 and the newline take 6 bytes.
    ecode = np.where(fixed | ~exact, 0, x + 325)
    ecode.reshape(rows, cols)[:, -1] += 634
    text[:, 3] |= suffix[ecode] << np.uint64(16)
    for i in np.flatnonzero(~exact & np.isfinite(v) & (v != 0)).tolist():
        col = i % cols
        rendered = b"%s%.17g%s" % (b"," * (col > 0), v[i], b"\n" * (col == cols - 1))
        text[i] = np.frombuffer(rendered.ljust(32, b"\0"), _LANE)
    out = text.view(np.uint8).ravel()
    return out[out != 0].tobytes()


def _write_csv(path: Path, first_step: int, columns: dict) -> None:
    """Write the `# sqc <version>` line, the header and one row per step.

    ``columns`` maps names, in order, to arrays of n rows. After
    ``step``, an array of shape (n,), (n, m) or (n, m, m) is headed
    name, name1..namem or name11..namemm (row-major). Row i is step
    first_step + i, as a float (%.17g of a whole float below 2**53 is
    its %d), then every array's row i, each value with exactly the bytes
    of '%.17g' % v: nan, inf and -0 included; n = 0 writes the header
    alone. Rows are formatted by numpy in chunks of _CHUNK_ROWS:
    _significand finds each value's 17 digits and exponent, and
    _format_rows lays out the text by %g's rules (fixed notation for
    exponents -4 to 16, d.ddde+XX otherwise, trailing zeros of the
    fraction and a bare point dropped). A finite nonzero value that
    _significand cannot place exactly falls back to Python's '%.17g';
    nan, inf, -inf, 0 and -0 are written by the numpy code itself.
    """
    n = len(next(iter(columns.values())))
    names, blocks = ["step"], [first_step + np.arange(n, dtype=float)]
    for name, col in columns.items():
        names += [name + "".join(str(i + 1) for i in ix) for ix in np.ndindex(col.shape[1:])]
        blocks.append(col.reshape(n, math.prod(col.shape[1:])))  # explicit width: n may be 0
    table = np.column_stack(blocks)
    with path.open("wb") as fh, np.errstate(all="ignore"):
        fh.write(f"# sqc {__version__}\n{','.join(names)}\n".encode())
        for start in range(0, n, _CHUNK_ROWS):
            fh.write(_format_rows(table[start:start + _CHUNK_ROWS]))


def _run_one_simulation(scenario, out_dir: Path) -> int:
    # The directory is made once the run is done: a refused run leaves none.
    result = control.run_scenario_config(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv", result.first_step, {
        "x": result.x, "u": result.u, "mean": result.mean, "cov": result.cov, "V": result.value, "logN": result.log_n,
    })
    code = EXIT_OK if result.completed else EXIT_DOMAIN
    summary = {
        "name": scenario.name,
        "seed": scenario.seed,
        "mode": scenario.mode,
        "horizon": scenario.horizon,
        "rows": len(result.x),
        "completed": result.completed,
        "failure": result.failure,
        "failed_step": result.failed_step,
        "jitter_retries": result.jitter_retries,
        "exit_code": code,
    }
    (out_dir / "run.json").write_text(json.dumps(summary, indent=2) + "\n")
    return code


def cmd_simulate(args) -> int:
    """Run a scenario and write trajectory.csv and run.json.

    --seeds a..b runs one seed per task in a process pool of
    min(seeds, CPUs) workers, each writing under seed_<n>; the pool is
    imported only here, so a single run never loads multiprocessing.
    """
    if args.seed is not None:
        if args.seeds is not None:
            raise ValidationError("--seed and --seeds cannot be combined")
        check_seed(args.seed, "--seed")
    for seed in args.seeds or ():
        check_seed(seed, "--seeds")
    scenario = parse_scenario(args.scenario)
    if args.steps is not None:
        if args.steps < 1:
            raise ValidationError("--steps must be >= 1")
        scenario.horizon = args.steps
    if args.mode is not None:
        scenario.mode = args.mode
    out_dir = Path(args.out)

    if args.seeds is not None:
        first, last = args.seeds
        seeds = range(first, last + 1)
        from concurrent.futures import ProcessPoolExecutor

        # A fork pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(len(seeds), os.cpu_count() or 1)) as pool:
            codes = list(pool.map(
                _run_one_simulation,
                [dataclasses.replace(scenario, seed=seed) for seed in seeds],
                [out_dir / f"seed_{seed}" for seed in seeds],
            ))
        print(f"{len(seeds)} runs under {out_dir}, {sum(c == EXIT_OK for c in codes)} completed")
        return max(codes)

    if args.seed is not None:
        scenario.seed = args.seed
    code = _run_one_simulation(scenario, out_dir)
    status = "completed" if code == EXIT_OK else "stopped early, see run.json"
    print(f"{scenario.name}: seed {scenario.seed}, {status}; output in {out_dir}")
    return code


def cmd_filter(args) -> int:
    scenario = parse_scenario(args.scenario)
    obs_model = scenario.build_observation_model()
    stream = ekf.read_observations(args.obs)
    horizon = int(stream.steps.max()) if len(stream) else scenario.horizon
    if horizon > scenario.horizon:
        raise ValidationError(f"observation at step {horizon} is beyond horizon {scenario.horizon}")
    model = scenario.build_model()
    initial = engine.GaussianBelief(
        mean=scenario.mean0, cov=scenario.cov0, step=0, tag="predicted"
    )
    mean, cov, loglik = ekf.filter_with_likelihood(model, obs_model, stream, initial, horizon)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "beliefs.csv", initial.step, {"mean": mean, "cov": cov, "loglik": loglik})
    total = float(np.nansum(loglik))
    print(f"cumulative log-likelihood: {total:.12g} over {len(stream)} observations")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Run the oracle suites and write validation.json.

    The kernel-residual study of --level full (oracle.fp_convergence)
    shares no state with the identity suite and the quadrature checks,
    so it is submitted to a one-worker process pool before they run
    here; its report, plain floats and lists, pickles back exactly.
    Leaving the pool's block joins the worker, also when a section
    raises. --level fast builds no pool. The oracle and the pool are
    imported here, not with the module, so simulate and filter start
    without them.
    """
    from concurrent.futures import ProcessPoolExecutor

    from . import oracle

    report: dict = {"level": args.level}
    with contextlib.ExitStack() as stack:
        if args.level == "full":
            study = stack.enter_context(ProcessPoolExecutor(max_workers=1)).submit(oracle.fp_convergence)
        ident = report["identity"] = oracle.identity_suite(seed=0, trials=500)
        report["quadrature"] = oracle.quadrature_checks()
        if args.level == "full":
            report["fokker_planck"] = study.result()
    kernel = report.get("fokker_planck", {})
    checks = [*report["quadrature"].values(), *kernel.values()]
    passed = report["passed"] = ident["passed"] and all(c["passed"] for c in checks)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "validation.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"identity suite: {ident['trials']} trials, {len(ident['failures'])} failed")
    for name, check in report["quadrature"].items():
        print(f"quadrature {name}: {'ok' if check['passed'] else 'FAILED'}")
    for name, case in kernel.items():
        ratios = ", ".join(f"{r:.2f}" for r in case["ratios"])
        print(f"kernel residual {name}: ratios [{ratios}] {'ok' if case['passed'] else 'FAILED'}")
    print(f"validation {'passed' if passed else 'FAILED'}; report in {out_dir / 'validation.json'}")
    return EXIT_OK if passed else EXIT_USAGE


def _parse_seed_range(text: str) -> tuple[int, int]:
    try:
        first, last = text.split("..")
        first, last = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a..b, for example 0..99") from None
    if last < first:
        raise argparse.ArgumentTypeError("seed range must be nondecreasing")
    return first, last


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqc",
        description="Potential-constrained belief recursion: simulate, filter, validate.",
    )
    parser.add_argument("--version", action="version", version=f"sqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write trajectory.csv")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--steps", type=int, default=None, help="override the horizon")
    sim.add_argument("--mode", choices=control.MODES, default=None)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seeds", type=_parse_seed_range, default=None, metavar="A..B",
                     help="run a seed sweep, one subdirectory per seed")
    sim.set_defaults(func=cmd_simulate)

    flt = sub.add_parser("filter", help="run the observation filter over a CSV stream")
    flt.add_argument("--scenario", required=True, help="scenario JSON with an observation potential")
    flt.add_argument("--obs", required=True, help="observation CSV with header step,y1,...,yk")
    flt.add_argument("--out", default=".", help="output directory")
    flt.set_defaults(func=cmd_filter)

    val = sub.add_parser("validate", help="run the oracle suites and write a JSON report")
    val.add_argument("--level", choices=["fast", "full"], default="fast")
    val.add_argument("--out", default=".", help="output directory")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
