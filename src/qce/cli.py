"""Command line interface.

Matrices arrive as JSON documents {"dim": n, "re": [[..]], "im": [[..]],
"label": "..."} with "im" optional; resolutions as {"dim": n, "blocks":
[matrix-document, ..]}; classical partition data as {"joint": [[..]]} or
{"p": [..], "q": [..], "p_given_q": [[..]], "q_given_p": [[..]]}. Each
positional argument is a file path or the document text itself.

Every report starts with the active tolerances and optimizer defaults; the
latter are a fixed record of the retired iterative ascent that the qce/1
schema keeps (only their seed follows --seed). Entropies are computed in
nats; --units bits divides displayed entropy rows by ln 2 and nothing else.
--format json emits a versioned document {"schema": "qce/1", "command",
"settings", "rows", "report"}. audit and demo read no tolerance: their
settings report the profile and --cluster-tol (an invalid scale still
exits 3), but their rows and report do not depend on either.

Each subcommand is one entry of _COMMANDS (help text, positional arguments,
handler), and each demo one entry of _DEMOS (report builder, rows). The
parser is built from these tables; its other choices are the keys of the
audit's EXPECTED_VERDICTS, the rank profiles and the tolerance profiles,
and its audit defaults for --rank-profile and --gap-floor are EnsembleConfig's.

Exit codes: 0 success; 2 malformed input, including a negative or
non-integer --seed or QCE_SEED; 3 failed validation; 4 optimizer did not
converge (kept in the taxonomy; the exact solve always converges); 5 the
audit found a property violation (its verdicts departed from the expected
table).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .audit import _RANK_PROFILES, EXPECTED_VERDICTS, EnsembleConfig, audit_deviations, axiom_audit
from .config import _PROFILES, tolerance_profile
from .entropy import (
    _gain,
    conditional_entropy,
    conditional_entropy_given_blocks,
    pinch,
    von_neumann_entropy,
)
from .errors import ParseError, QceError
from .grassopt import maximize_compressed_entropy
from .matcore import DensityMatrix, spectral_resolution
from .resolutions import (
    commutant_dim,
    more_mixed,
    partition_from_resolutions,
    resolution_conditional_entropy,
    resolution_entropy,
    resolution_leq,
)
from .serialize import (
    doc_to_matrix,
    doc_to_partition,
    doc_to_resolution,
    load_document,
    matrix_to_doc,
)
from .shannon import (
    conditional_shannon_entropy,
    is_consequence,
    is_independent,
    joint_shannon_entropy,
    mutual_information,
    shannon_entropy,
)
from .states import (
    coupled_family_probe,
    dim2_demo,
    impossibility_demos,
    tilted_family_probe,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4  # reserved: the exact solve always converges
EXIT_PROPERTY = 5

_LN2 = math.log(2.0)

__all__ = ["main"]


def _seed_arg(text: str) -> int:
    """A seed from --seed or QCE_SEED: a nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return seed


def _seed_default() -> int:
    raw = os.environ.get("QCE_SEED", "")
    try:
        return _seed_arg(raw) if raw else 0
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"QCE_SEED: {exc}") from None


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None
    if not dims:
        raise argparse.ArgumentTypeError("dimension list is empty")
    return dims


def _row(name: str, value, unit: str = "") -> dict:
    return {"name": name, "value": value, "unit": unit}


def _density(arg: str, tol) -> DensityMatrix:
    return DensityMatrix(doc_to_matrix(load_document(arg)), tol)


def _resolution(arg: str, tol):
    return doc_to_resolution(load_document(arg), tol)


# ---------------------------------------------------------------------------
# Command handlers: each returns (rows, report, exit_code)


def _cmd_entropy(args, tol):
    rho = _density(args.rho, tol)
    res = spectral_resolution(rho, tol)
    rows = [
        _row("entropy", von_neumann_entropy(rho, tol), "nats"),
        _row("commutant_dim", commutant_dim(rho, tol)),
    ]
    report = {
        "spectrum": [
            {"value": val, "rank": rank}
            for val, rank in zip(res.eigenvalues, res.ranks())
        ]
    }
    return rows, report, EXIT_OK


def _cmd_cond(args, tol):
    rho = _density(args.rho, tol)
    sigma = _density(args.sigma, tol)
    breakdown = conditional_entropy(rho, sigma, tol)
    s_rho = von_neumann_entropy(rho, tol)
    rows = [
        _row("conditional_entropy", breakdown.total, "nats"),
        _row("entropy_rho", s_rho, "nats"),
        # information_gain(rho, sigma), without computing both terms again.
        _row("information_gain", _gain(s_rho, breakdown.total), "nats"),
    ]
    report = {
        "per_block": [
            {"index": t.index, "weight": t.weight, "factor": t.factor}
            for t in breakdown.per_block
        ]
    }
    return rows, report, EXIT_OK


def _cmd_cond_res(args, tol):
    rho = _density(args.rho, tol)
    blocks = _resolution(args.resolution, tol)
    value = conditional_entropy_given_blocks(rho, blocks, tol)
    rows = [
        _row("conditional_entropy", value, "nats"),
        _row("entropy_rho", von_neumann_entropy(rho, tol), "nats"),
    ]
    report = {"block_ranks": list(blocks.ranks())}
    return rows, report, EXIT_OK


def _cmd_pinch(args, tol):
    rho = _density(args.rho, tol)
    blocks = _resolution(args.resolution, tol)
    pinched = pinch(rho, blocks, tol)
    before = von_neumann_entropy(rho, tol)
    after = von_neumann_entropy(pinched, tol)
    rows = [
        _row("entropy_before", before, "nats"),
        _row("entropy_after", after, "nats"),
        _row("entropy_increase", after - before, "nats"),
    ]
    report = {"pinched": matrix_to_doc(pinched.mat, "pinched")}
    return rows, report, EXIT_OK


def _cmd_classical(args, tol):
    data = doc_to_partition(load_document(args.data), tol)
    rows = [
        _row("h_p", shannon_entropy(data.p, tol), "nats"),
        _row("h_q", shannon_entropy(data.q, tol), "nats"),
        _row("h_p_given_q", conditional_shannon_entropy(data), "nats"),
        _row("h_q_given_p", conditional_shannon_entropy(data.swapped()), "nats"),
        _row("h_joint", joint_shannon_entropy(data), "nats"),
        _row("mutual_information", mutual_information(data), "nats"),
    ]
    report = {
        "consequence": is_consequence(data),
        "independent": is_independent(data),
    }
    return rows, report, EXIT_OK


def _cmd_hres(args, tol):
    p_res = _resolution(args.p_res, tol)
    q_res = _resolution(args.q_res, tol)
    data = partition_from_resolutions(p_res, q_res, tol)
    rows = [
        _row("h_res_p", resolution_entropy(p_res, tol), "nats"),
        _row("h_res_q", resolution_entropy(q_res, tol), "nats"),
        _row("h_res_p_given_q", resolution_conditional_entropy(p_res, q_res, tol), "nats"),
        _row("h_res_q_given_p", resolution_conditional_entropy(q_res, p_res, tol), "nats"),
        _row("h_res_joint", joint_shannon_entropy(data), "nats"),
    ]
    report = {"joint": [[float(x) for x in row] for row in data.joint()]}
    return rows, report, EXIT_OK


def _witness_dict(witness) -> dict:
    return {
        "holds": witness.holds,
        "assignment": list(witness.assignment) if witness.assignment else None,
        "violation": witness.violation,
    }


def _cmd_orders(args, tol):
    rho = _density(args.rho, tol)
    sigma = _density(args.sigma, tol)
    res_r = spectral_resolution(rho, tol)
    res_s = spectral_resolution(sigma, tol)
    rows = [
        _row("entropy_rho", von_neumann_entropy(rho, tol), "nats"),
        _row("entropy_sigma", von_neumann_entropy(sigma, tol), "nats"),
        _row("commutant_dim_rho", commutant_dim(rho, tol)),
        _row("commutant_dim_sigma", commutant_dim(sigma, tol)),
    ]
    report = {
        "rho_refines_sigma": _witness_dict(resolution_leq(res_r, res_s, tol)),
        "sigma_refines_rho": _witness_dict(resolution_leq(res_s, res_r, tol)),
        "sigma_more_mixed_than_rho": more_mixed(rho, sigma, tol),
        "rho_more_mixed_than_sigma": more_mixed(sigma, rho, tol),
    }
    return rows, report, EXIT_OK


def _cmd_optimize(args, tol):
    rho = _density(args.rho, tol)
    result = maximize_compressed_entropy(rho, args.rank, tol)
    entropy = von_neumann_entropy(rho, tol)
    rows = [
        _row("best_value", result.best_value, "nats"),
        _row("entropy_rho", entropy, "nats"),
        _row("margin", entropy - result.best_value, "nats"),
        _row("grad_norm", result.grad_norm),
        _row("commutation_residual", result.commutation_residual),
        _row("iterations", result.iterations),
    ]
    report = {
        "converged": result.converged,
        "rank": args.rank,
        "restart_values": list(result.restart_values),
        "projector": matrix_to_doc(result.best_projector.mat, "maximizer"),
    }
    return rows, report, EXIT_OK


def _cmd_audit(args, tol):
    cfg = EnsembleConfig(
        dims=args.dims,
        trials=args.trials,
        seed=args.seed,
        rank_profile=args.rank_profile,
        gap_floor=args.gap_floor,
    )
    report_obj = axiom_audit(args.functional, cfg)
    deviations = audit_deviations(report_obj)
    rows = [
        _row(f"max_violation[{entry.label}]", entry.max_violation)
        for entry in report_obj.entries
    ]
    report = {
        "audit": report_obj.to_dict(),
        "verdicts": report_obj.verdicts(),
        "expected": dict(EXPECTED_VERDICTS[args.functional]),
        "deviations": list(deviations),
    }
    code = EXIT_PROPERTY if deviations else EXIT_OK
    return rows, report, code


def _report_rows(*spec):
    """Rows read from a demo report: (section, key, unit), section None for its top level."""
    return lambda report: [
        _row(key, (report if section is None else report[section])[key], unit)
        for section, key, unit in spec
    ]


def _impossibility_rows(report: dict) -> list:
    rows = []
    for pair in report["forced_pairs"]:
        d = pair["dim"]
        rows.append(_row(f"forced_self_d{d}", pair["required_by_self_rule"], "nats"))
        rows.append(_row(f"forced_uniform_d{d}", pair["required_by_uniform_rule"], "nats"))
    deco = report["decomposition"]
    rows.append(_row("decomposition_weight", deco["lambda"]))
    rows.append(_row("value_at_rotated", deco["value_at_rotated"], "nats"))
    return rows


# demo name -> (report builder taking the seed, report -> rows)
_DEMOS = {
    "dim2": (dim2_demo, _report_rows(
        (None, "entropy", "nats"),
        (None, "conditional_on_uniform", "nats"),
        (None, "conditional_on_nondegenerate", "nats"),
        (None, "conditional_on_itself", "nats"),
    )),
    "tilted": (lambda seed: tilted_family_probe(), _report_rows(
        ("special_point", "compressed_entropy", "nats"),
        ("special_point", "entropy", "nats"),
        ("special_point", "compressed_state_entropy", "nats"),
        (None, "max_compressed_entropy_minus_entropy", "nats"),
    )),
    "coupled": (lambda seed: coupled_family_probe(), _report_rows(
        (None, "entropy_at_zero", "nats"),
        (None, "entropy_at_one", "nats"),
        (None, "max_block_sum_dev_from_ln2", "nats"),
        (None, "max_block_sum_minus_entropy", "nats"),
    )),
    "impossibility": (lambda seed: impossibility_demos(), _impossibility_rows),
}


def _cmd_demo(args, tol):
    build, rows = _DEMOS[args.name]
    report = build(args.seed)
    return rows(report), report, EXIT_OK


# command -> (help, positional arguments, handler)
_COMMANDS = {
    "entropy": ("entropy of one state", ("rho",), _cmd_entropy),
    "cond": ("entropy of rho given sigma", ("rho", "sigma"), _cmd_cond),
    "cond-res": ("entropy of rho given a bare resolution", ("rho", "resolution"), _cmd_cond_res),
    "pinch": ("block-diagonal part of rho", ("rho", "resolution"), _cmd_pinch),
    "classical": ("Shannon quantities of partition data", ("data",), _cmd_classical),
    "hres": ("entropies of two identity resolutions", ("p_res", "q_res"), _cmd_hres),
    "orders": ("refinement and mixedness comparisons", ("rho", "sigma"), _cmd_orders),
    "optimize": ("maximize compressed entropy at fixed rank", ("rho",), _cmd_optimize),
    "audit": ("desiderata audit of a conditional entropy", (), _cmd_audit),
    "demo": ("built-in demonstrations", (), _cmd_demo),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", choices=("nats", "bits"), default="nats")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--seed", type=_seed_arg, default=None, help="RNG seed (default: QCE_SEED or 0)"
    )
    common.add_argument(
        "--cluster-tol", type=float, default=None, help="eigenvalue clustering scale"
    )
    common.add_argument("--tol-profile", choices=tuple(_PROFILES), default="default")

    parser = argparse.ArgumentParser(
        prog="qce",
        description="entropies of density matrices under spectral conditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, positionals, handler) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, parents=[common], help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(handler=handler)

    commands["optimize"].add_argument("--rank", type=int, required=True)
    p = commands["audit"]
    p.add_argument("--functional", choices=tuple(EXPECTED_VERDICTS), required=True)
    p.add_argument("--dims", type=_dims_arg, default=(2, 3, 4))
    p.add_argument("--trials", type=int, default=50)
    p.add_argument(
        "--rank-profile", choices=tuple(_RANK_PROFILES), default=EnsembleConfig.rank_profile
    )
    p.add_argument("--gap-floor", type=float, default=EnsembleConfig.gap_floor)
    commands["demo"].add_argument("name", choices=tuple(_DEMOS))
    return parser


# ---------------------------------------------------------------------------
# Report assembly


def _convert_rows(rows: list, units: str) -> list:
    if units == "nats":
        return rows
    out = []
    for r in rows:
        if r["unit"] == "nats":
            out.append(_row(r["name"], r["value"] / _LN2, "bits"))
        else:
            out.append(dict(r))
    return out


def _settings(args, profile) -> dict:
    """The run's settings; tolerances are the profile's, --cluster-tol is its own key."""
    return {
        "units": args.units,
        "seed": args.seed,
        "cluster_tol": args.cluster_tol,
        "tol_profile": args.tol_profile,
        "tolerances": dataclasses.asdict(profile),
        # The frozen qce/1 record of the retired Armijo ascent's defaults;
        # the exact solve reads none of them.
        "optimizer": {
            "step_init": 0.5,
            "armijo_c": 1e-4,
            "shrink": 0.5,
            "grad_tol": 1e-7,
            "max_iters": 2000,
            "restarts": 8,
            "seed": args.seed,
            "resync_every": 25,
        },
        "report_units": "nats",
    }


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit_text(command: str, settings: dict, rows: list, report: dict) -> None:
    tols = " ".join(f"{k}={v:g}" for k, v in settings["tolerances"].items())
    opts = " ".join(f"{k}={v:g}" for k, v in settings["optimizer"].items())
    print(f"qce {command} (units: {settings['units']}, seed: {settings['seed']}, "
          f"profile: {settings['tol_profile']})")
    print(f"tolerances: {tols}")
    print(f"optimizer defaults: {opts}")
    print()
    width = max((len(r["name"]) for r in rows), default=0)
    for r in rows:
        print(f"{r['name']:<{width}}  {_fmt_value(r['value'])} {r['unit']}".rstrip())
    if command == "audit":
        print()
        for label, verdict in report["verdicts"].items():
            marker = "  <-- deviates" if label in report["deviations"] else ""
            print(f"{label:<24} {verdict}{marker}")
        if report["deviations"]:
            print(f"deviations: {', '.join(report['deviations'])}")
    elif command == "classical":
        print()
        for key in ("consequence", "independent"):
            print(f"{key}: {report[key]}")
    elif command == "orders":
        print()
        for key in ("rho_refines_sigma", "sigma_refines_rho"):
            w = report[key]
            detail = w["violation"] if w["violation"] else f"assignment {w['assignment']}"
            print(f"{key}: {w['holds']} ({detail})")
        for key in ("sigma_more_mixed_than_rho", "rho_more_mixed_than_sigma"):
            print(f"{key}: {report[key]}")
    elif command == "demo" and "notes" in report:
        print()
        for note in report["notes"]:
            print(f"note: {note}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _seed_default()
        tol = profile = tolerance_profile(args.tol_profile)
        if args.cluster_tol is not None:
            tol = dataclasses.replace(profile, cluster=args.cluster_tol)
        rows, report, code = args.handler(args, tol)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    settings = _settings(args, profile)
    rows = _convert_rows(rows, args.units)
    if args.format == "json":
        doc = {
            "schema": "qce/1",
            "command": args.command,
            "settings": settings,
            "rows": rows,
            "report": report,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit_text(args.command, settings, rows, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
