"""Command-line entry points for the verification harness.

Subcommands:

- ``verify``: run Monte Carlo suites from a JSON config and write a report
  file; exits 0 only when every requested suite reports zero violations.
  Each suite's summary line on stderr ends with its wall time.
- ``lie-trotter --study``: print a convergence table for the product-formula
  limit on seeded random pairs.
- ``bounds --kantorovich m M p``: print the Kantorovich constant.
- ``mean``: compute the mean of two serialized tensors: ``mean_pd`` when
  both pass the PD gate, else the PSD-extended ``mean_psd``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .core import NotPositiveDefiniteError, TensorShape, _number, load_tensor
from .functions import from_id
from .harness import (
    ConfigError,
    EnsembleSpec,
    ExperimentConfig,
    SuiteId,
    reports_to_json,
    run_suite,
    sample,
)
from .lie_trotter import convergence_study
from .means import mean_pd, mean_psd
from .bounds import kantorovich

USAGE_EXIT = 2

# Short aliases: the segment before the first underscore is unique for all
# suites except the two APP_* ones, which keep their full names.
_SUITE_ALIASES = {}
for _sid in SuiteId:
    _short = _sid.value.split("_", 1)[0]
    if _short.startswith(("L", "T", "C")):
        _SUITE_ALIASES[_short] = _sid.value


def resolve_suite(name: str) -> str:
    if name in SuiteId.__members__:
        return name
    if name in _SUITE_ALIASES:
        return _SUITE_ALIASES[name]
    known = ", ".join(list(SuiteId.__members__) + sorted(_SUITE_ALIASES))
    raise ConfigError(f"unknown suite {name!r}; known suites: {known}, all")


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None or path == "default":
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(payload)


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    overrides = {k: v for k, v in (("seed", args.seed), ("trials", args.trials)) if v is not None}
    if args.suite != "all":
        overrides["suites"] = (resolve_suite(args.suite),)
    # replace() validates the overridden config as construction does.
    cfg = dataclasses.replace(cfg, **overrides)
    reports, walls = [], []
    for name in cfg.suites:
        start = time.perf_counter()
        reports.append(run_suite(name, cfg))
        walls.append(time.perf_counter() - start)
    _write(reports_to_json(reports) + "\n", args.out)
    total = 0
    for r, wall in zip(reports, walls):
        print(f"{r.suite}: trials={r.trials} violations={r.violations} max_violation={r.max_violation:.3e} "
              f"wall_s={wall:.3f}", file=sys.stderr)
        total += r.violations
    print(f"total violations: {total}", file=sys.stderr)
    return 0 if total == 0 else 1


def _cmd_lie_trotter(args) -> int:
    if not args.study:
        print("nothing to do: pass --study", file=sys.stderr)
        return USAGE_EXIT
    fn, pairs = from_id(args.fn), _number("--pairs", args.pairs, integral=True, low=0)
    shape = TensorShape((2, 2))
    ens = EnsembleSpec(shape, "spectrum", args.seed, m=-1.0, M=1.0)
    print(f"convergence of (exp(qX) # exp(qY))^(1/q) to the limit, generator {fn.label}")
    for trial in range(pairs):
        x = sample(ens, 2 * trial)
        y = sample(ens, 2 * trial + 1)
        st = convergence_study(x, y, fn)
        head = " ".join(f"{d:.3e}" for d in st.distances)
        print(f"pair {trial}: distances {head}")
        print(f"  monotone={st.monotone} final_relative_error={st.final_relative_error:.3e}")
    x = sample(ens, 10_000)
    st = convergence_study(x, x, fn)
    print(f"commuting pair: max distance {max(st.distances):.3e} (exact up to rounding)")
    return 0


def _cmd_bounds(args) -> int:
    m, big_m, p = args.kantorovich
    print(kantorovich(m, big_m, p))
    return 0


def _cmd_mean(args) -> int:
    try:
        x = load_tensor(args.x)
        y = load_tensor(args.y)
    except OSError as exc:
        raise ConfigError(f"cannot read tensor file: {exc}") from exc
    fn = from_id(args.fn)
    try:
        result = mean_pd(x, y, fn)
    except NotPositiveDefiniteError:
        result = mean_psd(x, y, fn)
    _write(json.dumps(result.to_json_dict()) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tmlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run Monte Carlo verification suites")
    p_verify.add_argument("--suite", default="all", help="suite id or 'all'")
    p_verify.add_argument("--config", default=None, help="JSON config path or 'default'")
    p_verify.add_argument("--out", default=None, help="report file (JSON array)")
    p_verify.add_argument("--seed", type=int, default=None, help="override config seed")
    p_verify.add_argument("--trials", type=int, default=None, help="override config trials")
    p_verify.set_defaults(func=_cmd_verify)

    p_lt = sub.add_parser("lie-trotter", help="product-formula convergence study")
    p_lt.add_argument("--study", action="store_true", help="run the convergence study")
    p_lt.add_argument("--fn", default="geometric", help="connection function id")
    p_lt.add_argument("--seed", type=int, default=20260809)
    p_lt.add_argument("--pairs", type=int, default=3)
    p_lt.set_defaults(func=_cmd_lie_trotter)

    p_bounds = sub.add_parser("bounds", help="evaluate scalar bound factors")
    p_bounds.add_argument("--kantorovich", nargs=3, type=float, required=True,
                          metavar=("m", "M", "p"))
    p_bounds.set_defaults(func=_cmd_bounds)

    p_mean = sub.add_parser("mean", help="mean of two serialized tensors")
    p_mean.add_argument("--x", required=True, help="first tensor (JSON)")
    p_mean.add_argument("--y", required=True, help="second tensor (JSON)")
    p_mean.add_argument("--fn", required=True, help="connection function id")
    p_mean.add_argument("--out", default=None, help="output tensor file")
    p_mean.set_defaults(func=_cmd_mean)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
