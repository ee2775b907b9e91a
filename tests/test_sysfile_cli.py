"""System-definition files and the command-line interface."""

import json
import os
import re
import subprocess
import sys

import pytest

from triflat import cli, transform, triform
from triflat.cli import main
from triflat.sysfile import SysFileError, load_sysfile, parse_sysfile

from reference import counting

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CORPUS = os.path.join(SRC, "triflat", "corpus")


def corpus(name):
    return os.path.join(CORPUS, name)


MINIMAL = """
name = demo
[states]
x1 x2
[inputs]
u1 u2
[drift]
x1 = x2
[b1]
x2 = 1
[b2]
x1 = eps
[params]
eps = 0.5
[domain]
x1 = 0.1 : 0.4
[hints]
x1 + x2
phi1 = x1
"""


def test_parse_minimal():
    d = parse_sysfile(MINIMAL)
    assert d.name == "demo"
    assert d.states == ["x1", "x2"]
    assert d.inputs == ["u1", "u2"]
    assert d.params == {"eps": 0.5}
    assert d.domains == {"x1": (0.1, 0.4)}
    assert len(d.hints) == 1 and d.phi1 is not None
    sysm = d.system()
    assert sysm.frame == ("x1", "x2")
    sp = d.sampler()
    assert sp.domains["x1"] == (0.1, 0.4)
    lo, hi = sp.domains["eps"]
    assert lo < 0.5 < hi and hi - lo < 1e-6


def test_parse_general_system():
    d = load_sysfile(corpus("sin.sys"))
    assert d.general
    sysm = d.system()
    assert sysm.frame == ("x1", "x2", "x3", "u1", "u2")
    assert sysm.input_syms == ("u1_1", "u2_1")


def test_reject_one_input():
    with pytest.raises(SysFileError):
        parse_sysfile("[states]\nx\n[inputs]\nu1\n")


def test_reject_unknown_state_in_component():
    bad = "[states]\nx\n[inputs]\nu1 u2\n[drift]\ny = 1\n"
    with pytest.raises(SysFileError):
        parse_sysfile(bad)


def test_reject_undeclared_symbol():
    bad = "[states]\nx\n[inputs]\nu1 u2\n[drift]\nx = q\n"
    with pytest.raises(SysFileError):
        parse_sysfile(bad)


def test_reject_bad_domain():
    bad = "[states]\nx\n[inputs]\nu1 u2\n[domain]\nx = 2 : 1\n"
    with pytest.raises(SysFileError):
        parse_sysfile(bad)


@pytest.mark.parametrize("entry, message", [
    ("x = 0 : inf", "finite"),
    ("x = -inf : 1", "finite"),
    ("x = nan : 1", "finite"),
    ("q = 0 : 1", "'q', which is no state, input or parameter"),
    ("k = 0 : 1", "'k', a fixed parameter, which takes no domain"),
], ids=["inf", "minus-inf", "nan", "unknown-name", "fixed-parameter"])
def test_reject_domain_entry(entry, message):
    bad = f"[states]\nx\n[inputs]\nu1 u2\n[params]\nk = 2\n[domain]\n{entry}\n"
    with pytest.raises(SysFileError, match=message) as err:
        parse_sysfile(bad)
    assert err.value.line_no == 8


def test_domain_may_name_a_state_an_input_or_a_parameter():
    text = "[states]\nx\n[inputs]\nu1 u2\n[params]\np\n[domain]\nx = 0 : 1\nu1 = 1 : 2\np = 2 : 3\n"
    assert parse_sysfile(text).domains == {"x": (0, 1), "u1": (1, 2), "p": (2, 3)}


@pytest.mark.parametrize("line, repeat, message", [
    ("x = vx", "x = z", "repeated component 'x' in [drift]"),
    ("vz = cos(theta)", "vz = 0", "repeated component 'vz' in [b1]"),
    ("omega = 1", "omega = 2", "repeated component 'omega' in [b2]"),
    ("theta = 0.2 : 1.2", "theta = 5 : 6", "repeated [domain] entry for 'theta'"),
    ("[hints]\nphi1 = x", "phi1 = z", "repeated 'phi1' in [hints]"),
], ids=["drift", "b1", "b2", "domain", "phi1"])
def test_cli_rejects_a_repeated_entry(capsys, tmp_path, line, repeat, message):
    with open(corpus("vtol.sys")) as fh:
        text = fh.read() + "\n[hints]\nphi1 = x\n"
    text = text.replace(line + "\n", f"{line}\n{repeat}\n", 1)
    path = tmp_path / "vtol.sys"
    path.write_text(text)
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    line_no = text[:text.index(repeat)].count("\n") + 1
    assert json.loads(captured.err)["error"] == f"{message} (line {line_no})"


def test_reject_general_with_fields():
    bad = "[states]\nx\n[inputs]\ngeneral = true\nu1 u2\n[b1]\nx = 1\n"
    with pytest.raises(SysFileError):
        parse_sysfile(bad)


# --- CLI ----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cli_check_template(capsys):
    code, out = run_cli(capsys, "check", corpus("template.sys"), "--variant")
    assert code == 0
    assert out["verdict"] is True
    assert out["reports"][0]["case"] == "TwoChains"
    assert out["equal_length_variant"]["verdict"] is False
    assert out["sampler"]["seed"] == 42


def test_cli_check_failure_exit_code(capsys):
    code, out = run_cli(capsys, "check", corpus("chained4.sys"))
    assert code == 1
    assert out["verdict"] is False


def test_cli_check_linearizable_short_circuit(capsys, tmp_path):
    f = tmp_path / "di.sys"
    f.write_text(
        "[states]\nx1 x2\n[inputs]\nu1 u2\n[drift]\n[b1]\nx1 = 1\n[b2]\nx2 = 1\n"
    )
    code, out = run_cli(capsys, "check", str(f))
    assert code == 0
    assert out["verdict"] == "static-feedback-linearizable"


def test_cli_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.sys"
    f.write_text("[states]\nx\n[inputs]\nu1 u2\n[drift]\nx = sin(\n")
    code = main(["check", str(f)])
    captured = capsys.readouterr()
    assert code == 2


def test_cli_fields_undefined_on_the_whole_box_are_a_heuristic_failure(capsys, tmp_path):
    f = tmp_path / "undefined.sys"
    f.write_text("[states]\nx1 x2 x3\n[inputs]\nu1 u2\n[drift]\nx2 = sqrt(x3 - 5)\n"
                 "[b1]\nx1 = 1\n[b2]\nx3 = 1\n")
    code = main(["check", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "heuristic"
    assert "no 16 admissible points within 200 resamples" in error["error"]


def test_cli_flat_output_template(capsys):
    code, out = run_cli(capsys, "flat-output", corpus("template.sys"))
    assert code == 0
    assert out["phi1"] == "w1_1" and out["phi2"] == "w2_1"


def test_cli_flat_output_needs_phi1(capsys, tmp_path):
    # strip the phi1 hint from the bundled sqrt file
    text = open(corpus("sqrt.sys")).read().split("[hints]")[0]
    f = tmp_path / "sqrt_nohint.sys"
    f.write_text(text)
    code, out = run_cli(capsys, "flat-output", str(f))
    assert code == 3
    assert "admissible_phi1" in out


def test_cli_transform_verify_round_trip(capsys, tmp_path):
    save = tmp_path / "map.json"
    code, out = run_cli(
        capsys, "transform", corpus("template.sys"), "--save", str(save)
    )
    assert code == 0 and out["verdict"] is True
    code, out = run_cli(
        capsys, "verify", corpus("template.sys"), "--transform", str(save)
    )
    assert code == 0 and out["verified"] is True
    payload = json.loads(save.read_text())
    key = sorted(payload["state_map"])[0]
    payload["state_map"][key] = "-(" + payload["state_map"][key] + ")"
    save.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "verify", corpus("template.sys"), "--transform", str(save)
    )
    assert code == 1 and out["verified"] is False
    # the map that BAD_MAPS alters verifies as it is
    save.write_text(vtol_identity_map())
    code, out = run_cli(capsys, "verify", corpus("vtol.sys"), "--transform", str(save))
    assert code == 0 and out["verified"] is True


@pytest.mark.parametrize("part, value, symbol", [
    ("state_map", "zz + 1", "zz"),
    ("input_map", "qq", "qq"),
    # a state map reads no input; the input map may
    ("state_map", "{} + u1", "u1"),
])
def test_cli_verify_rejects_a_map_naming_a_stray_symbol(capsys, tmp_path, part, value, symbol):
    save = tmp_path / "map.json"
    code, _out = run_cli(capsys, "transform", corpus("vtol.sys"), "--save", str(save))
    assert code == 0
    payload = json.loads(save.read_text())
    key = sorted(payload[part])[0]
    payload[part][key] = value.format(payload[part][key])
    save.write_text(json.dumps(payload))
    code = main(["verify", corpus("vtol.sys"), "--transform", str(save)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert f"{part} entry {key!r} names {symbol!r}" in error, error


def test_cli_verify_rejects_a_state_map_of_low_rank(capsys, tmp_path):
    # every state sent to 0 and a result with no dynamics: consistent, but
    # the state map is no change of coordinates
    save = tmp_path / "map.json"
    code, _out = run_cli(capsys, "transform", corpus("vtol.sys"), "--save", str(save))
    assert code == 0
    payload = json.loads(save.read_text())
    payload["state_map"] = dict.fromkeys(payload["state_map"], "0")
    for part in ("drift", "b1", "b2"):
        payload["result"][part] = {}
    save.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "verify", corpus("vtol.sys"), "--transform", str(save))
    assert code == 1 and out["verified"] is False


@pytest.mark.parametrize("mutate", [
    lambda inputs: {**inputs, "v1f": inputs["v2f"]},
    lambda inputs: {k: re.sub(r"\bu([12])\b", r"(0*u\1)", v) for k, v in inputs.items()},
], ids=["v1f-as-v2f", "inputs-scaled-by-0"])
def test_cli_verify_rejects_a_singular_input_map(capsys, tmp_path, mutate):
    # b1 and b2 are independent, so a state map of rank n consistent with the
    # result forces J B = B~ M for the input map's Jacobian M, which is then
    # nonsingular: an input map singular in the inputs fails consistency
    save = tmp_path / "map.json"
    code, _out = run_cli(capsys, "transform", corpus("vtol.sys"), "--save", str(save))
    assert code == 0
    payload = json.loads(save.read_text())
    payload["input_map"] = mutate(payload["input_map"])
    save.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "verify", corpus("vtol.sys"), "--transform", str(save))
    assert code == 1 and out["verified"] is False


def vtol_identity_map(x_name="q1", u1_name="v1", extra_state=None):
    """vtol.sys mapped to itself with its state x and input u1 renamed; no
    right-hand side reads x or u1, so those names are never evaluated."""
    frame = [x_name, "z", "theta", "vx", "vz", "omega"]
    state_map = dict(zip(frame, ["x", "z", "theta", "vx", "vz", "omega"]))
    input_map = {u1_name: "u1", "u2": "u2"}
    if extra_state:  # a wrong u1 image, and an extra state holding the right one
        input_map[u1_name] = "u2"
        state_map[extra_state] = "u1"
    return json.dumps({
        "result": {
            "states": frame, "inputs": [u1_name, "u2"], "params": ["eps"],
            "drift": {x_name: "vx", "z": "vz", "theta": "omega", "vz": "-1"},
            "b1": {"vx": "-sin(theta)", "vz": "cos(theta)"},
            "b2": {"vx": "eps*cos(theta)", "vz": "eps*sin(theta)", "omega": "1"},
        },
        "state_map": state_map,
        "input_map": input_map,
    })


BAD_MAPS = {
    "bad-json": "{",
    "no-states": json.dumps({"result": {}, "state_map": {}, "input_map": {}}),
    "unnamable-state": vtol_identity_map(x_name="q 1"),
    "extra-state": vtol_identity_map(extra_state="v1"),
    "input-named-like-a-parameter": vtol_identity_map(u1_name="eps"),
    "division-by-zero": vtol_identity_map().replace('"z": "z"', '"z": "1/0"'),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--samples", "4"],
        ["check", "--tol", "-1"],
        ["check", "--tol", "inf"],
        ["check", "--domain", "theta=2:1"],
        ["check", "--domain", "theta=0.2:inf"],
        ["check", "--domain", "thetaa=0.2:1.2"],
        ["check", "--domain", "u1_1=0.2:1.2"],  # a state only once u1 is prolonged
        ["check", "--domain", "eps=2:3"],  # with eps fixed in the file
        ["check", "--prolong", "u1=x"],
        ["check", "--prolong", "u1=-1"],
        ["check", "--prolong", "w=1"],  # vtol has no input w
        ["verify", "--transform", "bad-json"],
        ["verify", "--transform", "no-states"],
        ["verify", "--transform", "unnamable-state"],
        ["verify", "--transform", "extra-state"],
        ["verify", "--transform", "input-named-like-a-parameter"],
        ["verify", "--transform", "division-by-zero"],
        ["flat-output", "--phi1", "1/0"],
        ["flat-output", "--phi1", "x1^(1/0)"],
        ["verify", "--vtol", "nan"],
        ["verify", "--vtol", "inf"],
        ["verify", "--vtol", "-1"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_cli_bad_input_is_a_usage_error(capsys, tmp_path, argv):
    command, *options = argv
    sysfile = corpus("vtol.sys")
    if options[0] == "--transform":
        path = tmp_path / "map.json"
        path.write_text(BAD_MAPS[options[1]])
        options[1] = str(path)
    if options == ["--domain", "eps=2:3"]:  # vtol with eps fixed and no eps domain
        with open(sysfile) as fh:
            text = fh.read().replace("[params]\neps", "[params]\neps = 0.5")
        sysfile = tmp_path / "vtol.sys"
        sysfile.write_text(text.replace("eps = 0.4 : 0.9\n", ""))
    code = main([command, str(sysfile), *options])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize("argv, message", [
    (["check", "<dir>"], "Is a directory"),
    (["check", "<latin-1>"], "is not UTF-8 text"),
    (["transform", "vtol.sys", "--save", "<dir>"], "Is a directory"),
    (["verify", "vtol.sys", "--transform", "<dir>"], "Is a directory"),
], ids=["sys-directory", "sys-not-utf8", "save-directory", "transform-directory"])
def test_cli_unreadable_path_is_a_usage_error(capsys, tmp_path, argv, message):
    with open(corpus("vtol.sys"), encoding="utf-8") as fh:
        text = fh.read().replace("name = vtol", "name = vtol\xe9")
    latin = tmp_path / "latin.sys"
    latin.write_bytes(text.encode("latin-1"))
    paths = {"<dir>": str(tmp_path), "<latin-1>": str(latin), "vtol.sys": corpus("vtol.sys")}
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


@pytest.mark.parametrize("options", [
    ["--transform", "map.json", "--evidence"],
    ["--hint", "x+"],
    ["--phi1", "x"],
    ["--transform", "map.json", "--hint", "x"],
], ids=lambda options: " ".join(options))
def test_cli_verify_rejects_options_it_would_not_read(capsys, tmp_path, options):
    # --transform checks a saved map; the flat-output options serve --evidence
    saved = tmp_path / "map.json"
    saved.write_text(vtol_identity_map())
    assert main(["verify", corpus("vtol.sys"), "--transform", str(saved)]) == 0
    capsys.readouterr()
    code = main(["verify", corpus("vtol.sys"), *(str(saved) if o == "map.json" else o
                                                 for o in options)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


@pytest.mark.parametrize("line, bad, message", [
    ("theta = omega", "theta = omega + 1/0", "division by zero (offset 9)"),
    ("vz = cos(theta)", "vz = cos(theta", "expected ')' (offset 9)"),
    ("omega = 1", "omega = 1 +", "expected an operand (offset 3)"),
    ("phi1 = x", "phi1 = x/0", "division by zero (offset 1)"),
    ("x*z", "x*", "expected an operand (offset 2)"),
], ids=["drift", "b1", "b2", "phi1", "hint"])
def test_cli_names_the_line_of_a_bad_expression(capsys, tmp_path, line, bad, message):
    with open(corpus("vtol.sys")) as fh:
        text = fh.read() + "\n[hints]\nphi1 = x\nx*z\n"
    text = text.replace(line + "\n", bad + "\n", 1)
    path = tmp_path / "vtol.sys"
    path.write_text(text)
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    line_no = text[:text.index(bad + "\n")].count("\n") + 1
    assert json.loads(captured.err)["error"] == f"{message} (line {line_no})"


def test_cli_division_by_zero_in_the_file_is_a_usage_error(capsys, tmp_path):
    with open(corpus("vtol.sys")) as fh:
        text = fh.read().replace("theta = omega", "theta = omega + 1/0")
    path = tmp_path / "vtol.sys"
    path.write_text(text)
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "division by zero" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "states, params, message",
    [
        ("x1 x-2 x3", "", "'x-2' is not an identifier"),  # no expression can name it
        ("x1 x1 x3", "", "must be distinct: ['x1']"),
        ("x1 x2 x3", "x3", "must be distinct: ['x3']"),
        ("x1 x2 x3", "eps = 0.5\neps", "must be distinct: ['eps']"),  # fixed, then sampled
    ],
    ids=["unnamable-state", "repeated-state", "parameter-named-like-a-state",
         "repeated-parameter"],
)
def test_cli_rejects_names_an_expression_cannot_tell_apart(capsys, tmp_path, states,
                                                           params, message):
    path = tmp_path / "bad.sys"
    path.write_text(f"[states]\n{states}\n[inputs]\nu1 u2\n[drift]\nx1 = x3\n"
                    f"[b1]\nx3 = 1\n[b2]\nx1 = 1\n[params]\n{params}\n")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


def test_cli_reports_deterministic(capsys):
    code1, out1 = run_cli(capsys, "check", corpus("template.sys"))
    code2, out2 = run_cli(capsys, "check", corpus("template.sys"))
    assert (code1, out1) == (code2, out2)


def test_cli_prolong_flag(capsys):
    code, out = run_cli(
        capsys, "verify", corpus("chained4.sys"), "--prolong", "u2=2"
    )
    assert code == 0
    assert out["linearizable"] is True
    assert out["prolonged"] == [{"input": "u2", "order": 2}]


@pytest.mark.parametrize("seed", ["1", "3", "4", "7"])
def test_cli_evidence_on_academic10_holds_across_seeds(capsys, seed):
    # the prolonged normal form's rows differ in scale by up to 1e5 on the
    # image of academic10's box; its ranks must not follow the seed
    code, out = run_cli(capsys, "verify", corpus("academic10.sys"), "--evidence",
                        "--seed", seed)
    assert code == 0 and out["prolongation_order"] == 3 and out["linearizable"] is True


@pytest.mark.parametrize("option", ["--hint", "--phi1"])
def test_cli_check_takes_no_flat_output_options(capsys, option):
    # only flat-output, transform and verify --evidence read them
    code = main(["check", corpus("vtol.sys"), option, "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_cli_domain_of_a_prolonged_state(capsys):
    code, out = run_cli(
        capsys, "verify", corpus("chained4.sys"), "--prolong", "u2=2", "--domain", "u2_1=0.5:1"
    )
    assert code == 0 and out["linearizable"] is True
    assert out["sampler"]["domains"] == {"u2_1": [0.5, 1.0]}


def test_cli_flat_output_independent_of_hash_seed():
    # The integration heuristic tries its candidate pool in order and stops
    # at the first integrals that complete the span; when it fitted only a
    # prefix of the pool, a pool ordered by string hashes lost the second
    # sqrt integral under hash seed 216 (exit 3).
    outs = []
    for hash_seed in ("216", "0"):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "triflat.cli", "flat-output", corpus("sqrt.sys")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-500:] + proc.stderr[-500:]
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, checks", [("check", 2), ("flat-output", 1)])
def test_cli_flat_output_stops_at_the_first_passing_candidate(capsys, command, checks):
    # sin has two quadratic roots and the first passes: check reports both,
    # flat-output decides the first only
    with counting(triform, "triangular_form_check") as calls:
        assert main([command, corpus("sin.sys")]) == 0
    assert len(calls) == checks
    if command == "check":
        assert [r["verdict"] for r in json.loads(capsys.readouterr().out)["reports"]] \
            == [True, False]


@pytest.mark.parametrize("command", ["check", "flat-output", "transform", "verify"])
def test_cli_one_command_parser_reads_as_the_full_parser(capsys, monkeypatch, command):
    argvs = [[command, "--help"], [command], [command, "f.sys", "--bogus"],
             [command, "f.sys", "--seed", "x"], [command, "f.sys", "--evidence"]]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    own = [run(argv) for argv in argvs]
    (subparsers,) = cli.build_parser(command)._subparsers._group_actions
    assert list(subparsers.choices) == [command]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert [run(argv) for argv in argvs] == own


@pytest.mark.parametrize("target", ["<dir>", "<dir>/missing/map.json"],
                         ids=["directory", "missing-parent"])
def test_cli_save_path_fails_before_the_transform(capsys, tmp_path, target):
    path = target.replace("<dir>", str(tmp_path))
    with pytest.raises(OSError) as failed:
        open(path, "w")
    with counting(transform, "transform_to_triangular") as calls:
        code = main(["transform", corpus("sqrt.sys"), "--save", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {"error": str(failed.value)}
    assert calls == []
