"""Known answers, written by hand, and the checks that compare reports to them.

Corpus answers come from the acceptance and unit tests and the README, not
from the program's output:

- vtol: criterion 1 (depth 1, n2 = 3, terminal chains [1, 1]) and
  ``test_vtol_report``.
- sin: criterion 2 (depth 1, terminal chains [1, 0]) and ``test_sin_report``
  (n2 = 3, one chain).
- academic10: criterion 3 (depth 2, n2 = 4, chain lengths {1, 2}) and
  ``test_academic10_report``.
- sqrt: ``test_sqrt_report`` (n2 = 4, depth 1, no terminal chain); the README
  and ``test_cli_flat_output_needs_phi1`` say its flat output needs the
  ``phi1`` the file supplies.
- template: the file header (two terminal chains of length one, core of
  size three, rear depth one) and ``test_cli_check_template``.
- product: criterion 6 transforms it, and the test fixture derives its flat
  output without ``phi1``, so it is not the no-terminal-chain case.  Its
  five prolonged states then leave only depth 1, n2 = 3 and chains [1, 0].
- chained4, extchained5: negative controls; ``check`` exits 1
  (``test_cli_check_failure_exit_code``, ROADMAP baseline).

Generated instances take their answers from the generator: verdict true,
``TemplateInstance.case``, n2, depth n3 and chain lengths (l1, l2).
"""

from __future__ import annotations

from dataclasses import dataclass

EXIT_TRUE, EXIT_FALSE = 0, 1


@dataclass(frozen=True)
class Expected:
    case: str
    n2: int
    depth: int
    chains: tuple  # terminal chain lengths, any order

    def chain_key(self):
        return sorted(self.chains)


POSITIVES = {
    "vtol": Expected("TwoChains", 3, 1, (1, 1)),
    "sin": Expected("OneChain", 3, 1, (1, 0)),
    "academic10": Expected("TwoChains", 4, 2, (1, 2)),
    "sqrt": Expected("NoX1", 4, 1, (0, 0)),
    "template": Expected("TwoChains", 3, 1, (1, 1)),
    "product": Expected("OneChain", 3, 1, (1, 0)),
}
NEGATIVES = ("chained4", "extchained5")


def for_instance(inst) -> Expected:
    l1, l2, n2, n3 = inst.dims
    return Expected(inst.case, n2, n3, (l1, l2))


def _mismatch(label, got, want):
    return None if got == want else f"{label} {got!r}, expected {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def check_decision(rep: dict, exp: Expected):
    """Reason the check fields of one report differ from ``exp``, or None."""
    lengths = rep.get("chain_lengths")
    return _first(
        _mismatch("verdict", rep.get("verdict"), True),
        _mismatch("case", rep.get("case"), exp.case),
        _mismatch("n2", rep.get("n2"), exp.n2),
        _mismatch("depth", rep.get("depth_n3"), exp.depth),
        _mismatch("chain lengths", sorted(lengths) if lengths else lengths, exp.chain_key()),
    )


def check_transform(final: dict, verified, exp: Expected):
    """Reason a transform result differs from ``exp``, or None."""
    chains = sorted(n for n in final["chain_lengths"] if n)
    return _first(
        _mismatch("verified", verified, True),
        _mismatch("structure_ok", final["structure_ok"], True),
        _mismatch("terminal chains", chains, [n for n in exp.chain_key() if n]),
        _mismatch("core size", final["core"], exp.n2),
        _mismatch("rear chain lengths", (final["rear_long"], final["rear_short"]),
                  (exp.depth, exp.depth - 1)),
    )


def check_cli(system: str, command: str, code, out: dict | None):
    """Reason a CLI run on a corpus system failed, or None.

    No answer (exit 3, an error, no report) fails as a wrong one does."""
    if system in NEGATIVES:
        if command != "check":
            return f"no known answer for {command}"
        if code != EXIT_FALSE:
            return f"exit {code}, expected {EXIT_FALSE}"
        return _mismatch("verdict", (out or {}).get("verdict"), False)
    exp = POSITIVES[system]
    if code != EXIT_TRUE or out is None:
        return f"exit {code}, expected {EXIT_TRUE}"
    if command == "check":
        reps = out.get("reports") or [{}]
        reason = _first(_mismatch("verdict", out.get("verdict"), True),
                        check_decision(reps[0], exp))
    elif command == "flat-output":
        dims = out.get("dims") or {}
        reason = check_decision({"verdict": out.get("verdict"), "case": out.get("case"),
                                 "n2": dims.get("n2"), "depth_n3": dims.get("n3"),
                                 "chain_lengths": dims.get("x1_chain_lengths")}, exp)
    elif command == "transform":
        fin = out["final"]
        final = {
            "chain_lengths": [len(c) for c in fin["terminal_chains"]],
            "structure_ok": fin["structure_ok"],
            "core": len(fin["core"]),
            "rear_long": len(fin["rear_long"]),
            "rear_short": len(fin["rear_short"]),
        }
        reason = check_transform(final, out.get("verified"), exp)
    elif command == "verify":
        reason = _mismatch("verified", out.get("verified"), True)
    else:
        reason = f"no known answer for {command}"
    return reason
