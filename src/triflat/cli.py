"""Command-line front end.

Commands: ``check`` (decision procedure with witnesses), ``flat-output``,
``transform`` (six-stage transcript, optionally saved for re-verification)
and ``verify`` (numeric re-verification of a saved transformation, or
prolongation-linearizability evidence).  Reports are JSON on stdout with
deterministic key order; the sampler configuration is embedded in every
report.  Exit codes: 0 verdict true, 1 verdict false, 2 usage/parse error,
3 heuristic failure (hints needed).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from .diffgeo import generic_rank
from .direction_search import (
    StaticFeedbackLinearizable,
    candidate_via_h,
    candidates_via_quadratic,
    check_static_feedback_linearizable,
    compute_bracket_chain,
)
from .errors import (
    EliminationError,
    ExprSyntaxError,
    IntegrationError,
    NotApplicable,
    PipelineError,
    SamplerExhausted,
    TriflatError,
)
from .expr import ZERO, free_symbols, to_str
from .flatout import admissible_phi1, flat_output_for_report
from .parser import parse_expr
from .sysfile import SysFileError, check_names, load_sysfile
from .systems import AffineSystem, prolong, vector_field
from .transform import (
    CoordinateChange,
    prolonged_linearizability,
    transform_to_triangular,
    verify_transformation,
)
from .triform import TriangularReport, equal_length_variant_check, triangular_form_check

EXIT_TRUE, EXIT_FALSE, EXIT_USAGE, EXIT_HEURISTIC = 0, 1, 2, 3


def _sampler_dict(sp):
    return {
        "seed": sp.seed,
        "samples": sp.samples,
        "tol": sp.tol,
        "domains": {k: list(v) for k, v in sorted(sp.domains.items())},
        "default_domain": list(sp.default_domain),
    }


def _field_dict(f):
    return {x: to_str(c) for x, c in zip(f.frame, f.components) if c != ZERO}


def _system_dict(sysm):
    return {
        "name": sysm.name,
        "states": list(sysm.frame),
        "inputs": list(sysm.input_syms),
        "params": list(sysm.params),
        "drift": _field_dict(sysm.drift),
        "b1": _field_dict(sysm.b1),
        "b2": _field_dict(sysm.b2),
    }


def _distribution_dict(D, sp):
    return {
        "rank": generic_rank(D, sp),
        "fields": [[to_str(c) for c in f.components] for f in D.fields],
    }


def _report_dict(rep, sp):
    out = {
        "candidate": {
            "source": rep.candidate.source if rep.candidate else None,
            "alpha1": to_str(rep.candidate.alpha1) if rep.candidate else None,
            "alpha2": to_str(rep.candidate.alpha2) if rep.candidate else None,
        },
        "verdict": rep.verdict,
        "items": {k: rep.items.get(k) for k in "abcde"},
        "case": rep.case,
        "depth_n3": rep.depth,
        "n2": rep.n2,
        "chain_lengths": list(rep.chain_lengths) if rep.chain_lengths else None,
        "s": rep.s,
        "failures": list(rep.failures),
    }
    for key, dist in (
        ("delta0", rep.delta0),
        ("delta1", rep.delta1),
        ("closure", rep.closure),
    ):
        if dist is not None:
            out[key] = _distribution_dict(dist, sp)
    if rep.g_chain:
        out["extension_ranks"] = [generic_rank(D, sp) for D in rep.g_chain]
    return out


def _load(args):
    definition = load_sysfile(args.file)
    try:
        sp = definition.sampler(seed=args.seed, samples=args.samples, tol=args.tol)
    except ValueError as e:
        raise SysFileError(f"bad sampler option: {e}") from None
    sysm = definition.system()
    prolongations = []
    for entry in args.prolong or ():
        for part in entry.split(","):
            name, _, count = part.partition("=")
            name = name.strip()
            if name not in sysm.input_syms:
                raise SysFileError(f"unknown input {name!r} in --prolong")
            if not count.strip().isdecimal():
                raise SysFileError(f"bad --prolong order {count!r} for {name!r}")
            order = int(count)
            sysm = prolong(sysm, sysm.input_syms.index(name), order)
            prolongations.append({"input": name, "order": order})
    names = {*sysm.frame, *sysm.input_syms, *sysm.params}
    for entry in args.domain or ():
        try:
            name, rng = (p.strip() for p in entry.split("=", 1))
            lo, hi = (float(p) for p in rng.split(":", 1))
            sp = sp.with_domains({name: (lo, hi)})
        except ValueError:
            raise SysFileError(f"bad --domain entry {entry!r}") from None
        if name not in names:
            raise SysFileError(f"--domain names {name!r}, which is no state, input or "
                               "parameter of the system")
        if definition.params.get(name) is not None:
            raise SysFileError(f"--domain names {name!r}, a fixed parameter, which takes no "
                               "domain")
    return definition, sysm, sp, prolongations


def _header(command, args, sp, prolonged, sysm=None):
    """The report's opening keys; verify reports carry no system."""
    out = {"command": command, "file": args.file}
    if sysm is not None:
        out["system"] = _system_dict(sysm)
    out["sampler"] = _sampler_dict(sp)
    out["prolonged"] = prolonged
    return out


def _emit(out, verdict):
    """Print the report and return the verdict's exit code."""
    print(json.dumps(out, indent=2))
    return EXIT_TRUE if verdict else EXIT_FALSE


def _candidates(sysm, sp):
    """Chain, h-method status and direction candidates, in the order tried."""
    chain = compute_bracket_chain(sysm, sp)
    if chain.depth < 1:
        return chain, "inapplicable", []
    try:
        return chain, "ok", [candidate_via_h(sysm, chain, sp)]
    except NotApplicable as e:
        return chain, str(e), candidates_via_quadratic(sysm, chain, sp)


def _analyze(sysm, sp):
    """Chain, candidates, and one report per candidate; best report first."""
    chain, h_status, candidates = _candidates(sysm, sp)
    reports = [triangular_form_check(sysm, c, sp, chain) for c in candidates]
    if not candidates:
        reports = [TriangularReport(sysm, chain, None)]
        reports[0].failures.append("the input span itself is non-involutive")
    reports.sort(key=lambda r: (not r.verdict))
    return chain, h_status, candidates, reports


def cmd_check(args):
    _definition, sysm, sp, prolonged = _load(args)
    out = _header("check", args, sp, prolonged, sysm)
    try:
        chain, h_status, candidates, reports = _analyze(sysm, sp)
    except StaticFeedbackLinearizable as e:
        out["verdict"] = "static-feedback-linearizable"
        out["detail"] = str(e)
        out["linearizable"] = e.outcome.verdict
        return _emit(out, e.outcome.verdict)
    except NotApplicable as e:
        out["verdict"] = False
        out["detail"] = str(e)
        return _emit(out, False)
    out["chain"] = {
        "depth_n3": chain.depth,
        "ranks": chain.ranks,
        "rank_ok": chain.rank_ok,
        "cauchy_ok": chain.cauchy_ok,
    }
    out["h_method"] = h_status
    out["candidates"] = [
        {"source": c.source, "alpha1": to_str(c.alpha1), "alpha2": to_str(c.alpha2)}
        for c in candidates
    ]
    out["reports"] = [_report_dict(r, sp) for r in reports]
    out["verdict"] = any(r.verdict for r in reports)
    if args.variant:
        variant = equal_length_variant_check(sysm, chain, sp)
        out["equal_length_variant"] = {
            "verdict": variant.verdict,
            "failing": variant.failing,
        }
    return _emit(out, out["verdict"])


def _flat_options(args, definition):
    """phi1 from --phi1, else the file's; the --hint integrals, then the file's."""
    phi1 = parse_expr(args.phi1) if args.phi1 else definition.phi1
    hints = [parse_expr(h) for h in (args.hint or ())] + list(definition.hints)
    return phi1, hints


def _passing_report(sysm, sp):
    """The first candidate's report that passes; later candidates go unchecked."""
    chain, _h, candidates = _candidates(sysm, sp)
    reports = (triangular_form_check(sysm, c, sp, chain) for c in candidates)
    rep = next((r for r in reports if r.verdict), None)
    if rep is None:
        raise NotApplicable("no direction candidate passes the decision procedure")
    return rep


def _transformed(args, definition, sysm, sp):
    """Flat options, passing report, flat output and transform, in that order."""
    phi1, hints = _flat_options(args, definition)
    rep = _passing_report(sysm, sp)
    flat = flat_output_for_report(rep, sp, phi1=phi1, hints=hints)
    return rep, flat, transform_to_triangular(sysm, rep, flat, sp, hints=hints)


def cmd_flat_output(args):
    definition, sysm, sp, prolonged = _load(args)
    out = _header("flat-output", args, sp, prolonged, sysm)
    phi1, hints = _flat_options(args, definition)
    rep = _passing_report(sysm, sp)
    out["case"] = rep.case
    out["dims"] = rep.dims
    try:
        flat = flat_output_for_report(rep, sp, phi1=phi1, hints=hints)
    except NotApplicable as e:
        out["error"] = str(e)
        out["admissible_phi1"] = admissible_phi1(rep, sp)
        print(json.dumps(out, indent=2))
        return EXIT_HEURISTIC
    out["phi1"] = to_str(flat.phi1)
    out["phi2"] = to_str(flat.phi2)
    out["provenance"] = list(flat.provenance)
    out["l_perp"] = [str(w) for w in flat.l_perp.forms]
    out["verdict"] = True
    return _emit(out, True)


def _change_dict(change: CoordinateChange):
    return {
        "state_map": {k: to_str(v) for k, v in change.state_map.items()},
        "input_map": {k: to_str(v) for k, v in change.input_map.items()},
    }


def _check_writable(path):
    """The OSError writing path would end in, for a directory or a missing
    parent directory, raised before any work and without touching it."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_transform(args):
    definition, sysm, sp, prolonged = _load(args)
    if args.save:
        _check_writable(args.save)
    out = _header("transform", args, sp, prolonged, sysm)
    _rep, flat, result = _transformed(args, definition, sysm, sp)
    out["flat_output"] = {"phi1": to_str(flat.phi1), "phi2": to_str(flat.phi2)}
    out["stages"] = [
        {
            "name": name,
            "log": stage.log,
            "system": _system_dict(stage.sys),
            **_change_dict(stage.change()),
        }
        for name, stage in result.stages
    ]
    final = result.final
    out["final"] = {
        "system": _system_dict(final.system),
        "terminal_chains": [list(c) for c in final.chains],
        "core": list(final.core),
        "rear_long": list(final.rear_long),
        "rear_short": list(final.rear_short),
        "w_symbol": final.w_symbol,
        "couplings": {k: to_str(v) for k, v in final.couplings.items()},
        "structure_ok": final.structure_ok,
        "structure_failures": final.structure_failures,
    }
    out["verified"] = result.verified
    out["verdict"] = result.verified and final.structure_ok
    if args.save:
        payload = {
            "original": args.file,
            "result": _system_dict(final.system),
            **_change_dict(result.change),
        }
        with open(args.save, "w") as fh:
            json.dump(payload, fh, indent=2)
        out["saved"] = args.save
    return _emit(out, out["verdict"])


def _system_from_dict(d):
    frame = tuple(d["states"])

    def fld(key):
        return vector_field(frame, {k: parse_expr(v) for k, v in d[key].items()})

    return AffineSystem(
        frame=frame,
        drift=fld("drift"),
        b1=fld("b1"),
        b2=fld("b2"),
        input_syms=tuple(d["inputs"]),
        params=tuple(d.get("params", ())),
        name=d.get("name", "result"),
    )


def cmd_verify(args):
    if not args.evidence and (args.phi1 is not None or args.hint):
        raise SysFileError("--phi1 and --hint are read only with --evidence")
    if not 0 < args.vtol < math.inf:
        raise SysFileError(f"--vtol must be finite and positive, got {args.vtol}")
    definition, sysm, sp, prolonged = _load(args)
    out = _header("verify", args, sp, prolonged)
    if args.transform:
        try:
            with open(args.transform) as fh:
                payload = json.load(fh)
            result_sys = _system_from_dict(payload["result"])
            change = CoordinateChange(
                state_map={k: parse_expr(v) for k, v in payload["state_map"].items()},
                input_map={k: parse_expr(v) for k, v in payload["input_map"].items()},
            )
            check_names(result_sys.frame, result_sys.input_syms, sysm.params)
            keys = (set(change.state_map), set(change.input_map))
            if keys != (set(result_sys.frame), set(result_sys.input_syms)):
                raise ValueError("state_map and input_map must map the result states and inputs")
            names = {*sysm.frame, *sysm.input_syms, *sysm.params}
            for part, entries in (("state_map", change.state_map),
                                  ("input_map", change.input_map)):
                for key, e in entries.items():
                    stray = free_symbols(e) - names
                    if stray:
                        raise ValueError(f"{part} entry {key!r} names {min(stray)!r}, which "
                                         "is no state, input or parameter of the system")
                    inputs = free_symbols(e) & set(sysm.input_syms)
                    if part == "state_map" and inputs:
                        raise ValueError(f"{part} entry {key!r} names {min(inputs)!r}, which "
                                         "is an input of the system; a state map reads states "
                                         "and parameters only")
        except (ValueError, KeyError, TypeError, AttributeError, TriflatError) as e:
            raise SysFileError(
                f"malformed transformation file {args.transform!r}: {e!r}"
            ) from None
        ok = verify_transformation(sysm, change, result_sys, sp, tol=args.vtol)
        out["transform_file"] = args.transform
        out["verified"] = ok
        out["tol"] = args.vtol
        return _emit(out, ok)
    if args.evidence:
        rep, _flat, result = _transformed(args, definition, sysm, sp)
        lin = prolonged_linearizability(result, sp)
        out["prolongation_order"] = rep.n2 - 1
    else:
        lin = check_static_feedback_linearizable(sysm, sp)
    out["linearizable"] = lin.verdict
    out["detail"] = lin.failing
    return _emit(out, lin.verdict)


def build_parser(command=None):
    """The argument parser.  Given the name of a command, only that command's
    parser is built, under the usage line of the full parser, so its help and
    its errors read as with the full parser; anything else builds them all."""
    commands = {
        "check": ("run the equivalence decision procedure", cmd_check),
        "flat-output": ("derive a flat output", cmd_flat_output),
        "transform": ("construct the normal-form transformation", cmd_transform),
        "verify": ("re-verify a saved transformation or gather prolongation evidence", cmd_verify),
    }
    ap = argparse.ArgumentParser(
        prog="triflat",
        description="Static feedback equivalence to a flat triangular form: "
        "checks, flat outputs, constructive transformations.",
    )
    if command in commands:
        # the full parser's metavar, for the usage line of an error
        sub = ap.add_subparsers(dest="cmd", required=True,
                                metavar="{" + ",".join(commands) + "}")
        commands = {command: commands[command]}
    else:
        sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (helptext, fn) in commands.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        p.add_argument("file", help="system definition (.sys)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=16)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--domain", action="append", metavar="SYM=LO:HI")
        p.add_argument("--prolong", action="append", metavar="INPUT=K")
        if name == "check":
            p.add_argument("--variant", action="store_true",
                           help="also test the equal-chain-length variant form")
            continue
        p.add_argument("--phi1", help="first output function (no-terminal-chain case)")
        p.add_argument("--hint", action="append", metavar="EXPR",
                       help="candidate integral for the straightening heuristic")
        if name == "transform":
            p.add_argument("--save", metavar="PATH", help="write the composed map as JSON")
        if name == "verify":
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--transform", metavar="PATH", help="saved transformation JSON")
            mode.add_argument("--evidence", action="store_true",
                              help="prolongation linearizability evidence via the normal form")
            p.add_argument("--vtol", type=float, default=1e-7,
                           help="verification tolerance")
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (SysFileError, ExprSyntaxError, OSError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, SamplerExhausted) as e:
        print(json.dumps({"error": str(e), "kind": "heuristic"}), file=sys.stderr)
        return EXIT_HEURISTIC
    except NotApplicable as e:
        print(json.dumps({"error": str(e), "kind": "not-applicable"}), file=sys.stderr)
        return EXIT_FALSE
    except (EliminationError, PipelineError, TriflatError) as e:
        print(json.dumps({"error": str(e), "kind": "failure"}), file=sys.stderr)
        return EXIT_HEURISTIC


if __name__ == "__main__":
    sys.exit(main())
