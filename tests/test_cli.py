"""End-to-end checks of the command-line interface (run in-process, but for the import check)."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from tetrachain import bary, cli, motion, strings
from tetrachain.cli import main
from tetrachain.metrics import gap_report
from tetrachain.motion import chain_gap, gap_bound_oh
from tetrachain.precision import RealCtx
from tetrachain.strings import octahelix_runs, spell

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas")


def _validate(payload, schema_name):
    with open(os.path.join(SCHEMA_DIR, schema_name)) as f:
        schema = json.load(f)
    jsonschema.validate(payload, schema)


def _run_json(capsys, argv, schema=None, rc=0):
    assert main(argv) == rc
    payload = json.loads(capsys.readouterr().out)
    if schema:
        _validate(payload, schema)
    return payload


# --- build ----------------------------------------------------------------------


def test_build_obj_is_deterministic(tmp_path, capsys):
    target = tmp_path / "qh3.obj"
    blobs = []
    for _ in range(2):
        payload = _run_json(
            capsys,
            ["build", "--kind", "quadrahelix", "--L", "3", "--out", str(target)],
            schema="build-summary.schema.json",
        )
        assert payload["mesh"] == str(target)
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]
    text = blobs[0].decode()
    assert text.count("\no tet_") + text.startswith("o tet_") == 14
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 4 * 14
    assert sum(1 for ln in text.splitlines() if ln.startswith("f ")) == 4 * 14


# sha256 of the OBJ mesh, recorded before the realization placed one vertex per
# step and the mesh formatted each shared vertex once
OBJ_SHA256 = {
    29: "1daf61cdfaa5f5b1c77eeffa4c020e5147aa3bae199cc2d6b32bd22e19ddd65e",
    1960: "812358e7f4d6597e7dac3a655bd3537a68249383890efa39d6950aed3c7c5c1b",
}


@pytest.mark.parametrize("L", sorted(OBJ_SHA256))
def test_build_obj_bytes_are_pinned(L, tmp_path, capsys):
    target = tmp_path / f"qh{L}.obj"
    assert main(["build", "--kind", "quadrahelix", "--L", str(L), "--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == OBJ_SHA256[L]


def test_build_json_summary(capsys):
    payload = _run_json(
        capsys,
        ["build", "--kind", "quadrahelix", "--L", "2", "--format", "json"],
        schema="build-summary.schema.json",
    )
    assert payload["kind"] == "quadrahelix"
    assert payload["param"] == 2
    assert payload["length"] == 10 and payload["tetrahedra"] == 10
    assert payload["string"] == "1231232132"
    assert "mesh" not in payload


def test_build_preset540_carries_loop_block(tmp_path, capsys):
    target = tmp_path / "p.json"
    argv = ["build", "--kind", "preset540", "--format", "json", "--out", str(target)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""  # --out swallows stdout
    payload = json.loads(target.read_text())
    _validate(payload, "build-summary.schema.json")
    assert payload["length"] == 540
    assert payload["loop"]["best"]["gap"] <= payload["loop"]["printed"]["gap"]
    assert payload["gap_report"] == payload["loop"]["best"]


# --- gap ------------------------------------------------------------------------


def test_gap_json_payload(capsys):
    payload = _run_json(
        capsys,
        ["gap", "--kind", "quadrahelix", "--L", "10"],
        schema="gap.schema.json",
    )
    assert payload["length"] == 42
    assert math.isclose(payload["gap_report"]["gap"], 0.0775081010798830, rel_tol=1e-10)
    assert payload["gap_report"]["r0"] == 1


def test_gap_csv_round_trips(capsys):
    assert main(["gap", "--kind", "quadrahelix", "--L", "4", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "gap,norm_gap,maxnorm_gap,discrete_gap,r0,delta_bar"
    cells = row.split(",")
    assert len(cells) == 6
    assert float(cells[0]) <= float(cells[1]) <= 4 * float(cells[2])


@pytest.mark.parametrize("kind, L", [("quadrahelix", 29), ("octahelix", 36)])
def test_spelled_named_chain_gives_the_named_report(kind, L, capsys):
    # a named chain and its letters given by --string take one product path
    named = _run_json(capsys, ["gap", "--kind", kind, "--L", str(L)])
    assert _run_json(capsys, ["gap", "--string", named["string"]]) == named


def test_gap_pinned_lead(capsys):
    payload = _run_json(capsys, ["gap", "--string", "2341", "--r0", "4"])
    assert payload["gap_report"]["r0"] == 4


def test_gap_pinned_lead_collision_is_config_error(capsys):
    assert main(["gap", "--string", "2341", "--r0", "3"]) == 2
    assert "collides" in capsys.readouterr().err


def test_gap_long_quadrahelix_goes_through_closed_form(capsys):
    # 4L+2 = 48,078 letters is past the exact-product limit
    payload = _run_json(
        capsys, ["gap", "--kind", "quadrahelix", "--L", "12019"], schema="gap.schema.json"
    )
    rep = payload["gap_report"]
    assert payload["length"] == 48078 and rep["r0"] == 1 and rep["delta_bar"] is None
    assert main(["table1", "--L-max", "12019"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert row[0] == "12019" and row[3] == "0.0001604563"
    assert f"{rep['gap']:.7e}" == f"{float(row[3]):.7e}"  # the row's 8 digits
    assert rep["gap"] <= rep["discrete_gap"] and rep["gap"] <= rep["norm_gap"]
    # the other two leads are far from closing, and --r0 still pins
    pinned = _run_json(capsys, ["gap", "--kind", "quadrahelix", "--L", "12019", "--r0", "3"])
    assert pinned["gap_report"]["r0"] == 3 and pinned["gap_report"]["gap"] > 0.8
    assert main(["gap", "--kind", "quadrahelix", "--L", "12019", "--r0", "2"]) == 2
    assert "collides" in capsys.readouterr().err
    assert main(["gap", "--kind", "quadrahelix", "--L", "6000"]) == 0


def test_gap_past_the_exact_limit_equals_the_exact_report(capsys, monkeypatch):
    # OH_2500 spells 20,004 letters: the run product, certified, against the exact
    # products with the limit moved up
    payload = _run_json(capsys, ["gap", "--kind", "octahelix", "--L", "2500"])
    assert payload["length"] == 20_004
    monkeypatch.setattr(bary, "MAX_EXACT_LENGTH", 30_000)
    monkeypatch.setattr(motion, "MAX_EXACT_LENGTH", 30_000)
    exact = gap_report(spell(octahelix_runs(2500)), RealCtx(digits=40))
    assert payload["gap_report"] == exact.to_json_dict()
    assert _run_json(capsys, ["gap", "--kind", "octahelix", "--L", "2500"]) == payload
    monkeypatch.undo()
    moved = _run_json(capsys, ["motion", "--kind", "octahelix", "--L", "2500"])
    assert moved["string"] == payload["string"] and moved["w"] is not None


def _forbid_spelling(monkeypatch):
    """Make strings.spell raise, in every module that holds it."""

    def refuse(runs):
        raise AssertionError("a chain was spelled")

    spell = strings.spell
    for mod in (strings, cli, motion):
        assert mod.spell is spell
        monkeypatch.setattr(mod, "spell", refuse)


@pytest.mark.parametrize("kind, L", [("quadrahelix", 2_499_999), ("octahelix", 434_337_601_428)])
def test_gap_csv_of_a_named_chain_spells_no_letter(kind, L, capsys, monkeypatch):
    # a CSV row prints no letters; the JSON payload does, so it still refuses
    # a chain too long to spell, from its run lengths
    _forbid_spelling(monkeypatch)
    assert main(["gap", "--kind", kind, "--L", str(L), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("gap,")
    assert main(["gap", "--kind", "quadrahelix", "--L", str(10**12)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: QH_1000000000000 would spell 4000000000002 letters; the limit is 10000000"
    ]


def test_gap_csv_of_a_table2_octahelix(capsys):
    # OH_434337601428 (3.47e12 letters), a table2 row, used to be refused as too long to spell
    L = 434_337_601_428
    assert main(["gap", "--kind", "octahelix", "--L", str(L), "--format", "csv"]) == 0
    gap = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
    ctx = RealCtx(digits=40)
    want = chain_gap(octahelix_runs(L), ctx)
    assert gap == float(want)
    with ctx.work():
        assert 0 < want <= gap_bound_oh(L, ctx).bound


@pytest.mark.parametrize("command", [["build", "--format", "json"], ["verify-embed"]])
def test_realization_past_the_exact_limit_is_refused_before_spelling(command, capsys, monkeypatch):
    # QH_2499999 spells 9,999,998 letters, which used to be spelled only to be refused
    _forbid_spelling(monkeypatch)
    assert main([*command, "--kind", "quadrahelix", "--L", "2499999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: string length 9999998 exceeds the exact-product limit 20000"
    ]


def test_gap_loop_payload(capsys):
    payload = _run_json(
        capsys,
        ["gap", "--string", "123412", "--loop"],
        schema="loop-gap.schema.json",
    )
    loop = payload["loop"]
    assert loop["best"]["gap"] <= loop["printed"]["gap"]
    assert 0 <= loop["best_cut"] < 6


def test_gap_out_file_and_silence(tmp_path, capsys):
    target = tmp_path / "gap.json"
    argv = ["gap", "--kind", "quadrahelix", "--L", "7", "--out", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert target.read_bytes() == first


# --- tables and searches ----------------------------------------------------------


def test_table1_small_range(capsys):
    assert main(["table1", "--L-max", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "L,k,delta_bar,gap"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 7, 10, 29, 40]
    row10 = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert row10["k"] == "4"
    assert float(row10["gap"]) == pytest.approx(0.077508101, rel=1e-6)


def test_table2_rows(capsys):
    assert main(["table2", "--digits", "60"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "X,x,y,err,log10_err,kronecker_ok"
    assert len(lines) == 11
    assert lines[1].split(",")[1:3] == ["4", "-1"]
    assert lines[4].split(",")[1:3] == ["64708", "-23692"]
    assert all(ln.endswith("True") for ln in lines[1:])


def test_search_cf_csv(capsys):
    assert main(["search-cf", "--count", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,q,L,err"
    assert len(lines) == 11
    assert lines[1].split(",")[:3] == ["0", "1", "0"]


def test_search_cf_json(capsys):
    assert main(["search-cf", "--count", "21", "--format", "json", "--digits", "60"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["L"] for r in rows][-1] == 65390015
    assert all(r["q"] == r["L"] + 1 for r in rows)


def test_search_lll_known_row(capsys):
    payload = _run_json(
        capsys,
        ["search-lll", "--X", "100", "--digits", "60"],
        schema="lll-solution.schema.json",
    )
    assert (payload["x"], payload["y"]) == (4, -1)
    assert payload["kronecker_ok"] is True
    assert payload["log10_err"] == pytest.approx(-1.80, abs=0.05)


@pytest.mark.parametrize(
    "argv, rc, message",
    [
        # 40 digits: the error moves when the digits double (3.29e-28 at 80)
        (["--X", "1e15", "--digits", "40"], 3, "precision failure: search-lll gives"),
        (["--X", "10"], 2, "error: X = 10 is too small: the search finds only x = 0"),
        (["--X", "1"], 2, "error: X = 1.0 is too small: the scaled basis degenerates"),
    ],
)
def test_search_lll_refuses_uncertified_answers(argv, rc, message, capsys):
    assert main(["search-lll", *argv]) == rc
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(message)


@pytest.mark.parametrize("X", ["1e100", "1e400"])
def test_search_lll_precision_failure_is_short(X, capsys):
    # x and y have hundreds of digits here; the message shows their digit counts
    assert main(["search-lll", "--X", X]) == 3
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("precision failure: search-lll gives") and len(line) <= 300
    assert "-digit number>" in line


def test_search_lll_certified_at_sixty_digits(capsys):
    payload = _run_json(
        capsys,
        ["search-lll", "--X", "1e15", "--digits", "60"],
        schema="lll-solution.schema.json",
    )
    assert payload["err"] == 3.290539343004587e-28
    assert payload["kronecker_ok"] is True


@pytest.mark.parametrize("count", ["0", "-3"])
def test_search_cf_rejects_count_below_one(count, capsys):
    assert main(["search-cf", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: count must be at least 1, got {count}"]


@pytest.mark.parametrize("X", ["0", "-5", "inf"])
def test_search_lll_rejects_nonpositive_scale(X, capsys):
    assert main(["search-lll", "--X", X]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: X must be a positive finite number")


# --- verification and scans --------------------------------------------------------


def test_verify_embed_passes_on_quadrahelix(capsys):
    payload = _run_json(
        capsys,
        ["verify-embed", "--kind", "quadrahelix", "--L", "3"],
        schema="embed-verdict.schema.json",
    )
    assert payload["embedded"] is True and payload["adjacency_ok"] is True
    assert payload["first_violation"] is None


def test_verify_embed_flags_octahelix_4(capsys):
    payload = _run_json(
        capsys,
        ["verify-embed", "--kind", "octahelix", "--L", "4"],
        schema="embed-verdict.schema.json",
        rc=4,
    )
    assert payload["embedded"] is False
    assert payload["first_violation"] == [13, 31]


def test_verify_embed_octahelix_4_bytes_are_pinned(capsys):
    # stdout of the overlapping loop, recorded before realization and the
    # exact certificate shared one vertex walk
    assert main(["verify-embed", "--kind", "octahelix", "--L", "4"]) == 4
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a383d803592ad8cbcaaf4bf21f951db9680dda735b59c947bbfed0e578b238dd"
    )


def test_verify_embed_touching_margin_is_exact(capsys):
    # verdicts are exact, so there is no tolerance to set and touching reads 0.0
    payload = _run_json(
        capsys,
        ["verify-embed", "--kind", "quadrahelix", "--L", "10"],
        schema="embed-verdict.schema.json",
    )
    assert payload["embedded"] is True and payload["min_separation_margin"] == 0.0
    with pytest.raises(SystemExit) as exc:
        main(["verify-embed", "--kind", "quadrahelix", "--L", "10", "--eps", "0"])
    assert exc.value.code == 2


def test_scan_ratio_rows(capsys):
    assert main(["scan-ratio", "--L-max", "20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "L,delta_bar,norm_gap,ratio"
    assert len(lines) == 1 + 17  # L = 4 .. 20
    assert all(float(ln.split(",")[3]) > 0 for ln in lines[1:])


def test_motion_payload(capsys):
    payload = _run_json(
        capsys,
        ["motion", "--kind", "quadrahelix", "--L", "10"],
        schema="motion.schema.json",
    )
    assert payload["angle"].startswith("0.029259")
    assert all(v < 1e-30 for v in payload["residuals"].values())
    cos = [float(x) for x in payload["leg_axis_cosines"]]
    assert cos == pytest.approx([-0.2, 0.2, -0.2], abs=1e-9)


def test_motion_prints_certified_digits(capsys):
    # QH_601944 spells 2,407,778 letters; at 40 working digits its R[0][1] and
    # angle used to end in wrong digits, and these are the first 40 at 120 digits
    payload = _run_json(
        capsys, ["motion", "--kind", "quadrahelix", "--L", "601944"], schema="motion.schema.json"
    )
    assert payload["R"][0][1] == "5.665705690530226018940550229691115529592e-19"
    assert payload["angle"] == "0.000000000001094319868406352593962763919784781877184"


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "tetrahelix", "--L", "4"],
        ["--string", "4321"],
        # past the exact-product limit: the run product
        ["--kind", "tetrahelix", "--L", "40000"],
    ],
)
def test_motion_of_a_tetrahelix_settles_at_once(argv, capsys, monkeypatch):
    # a tetrahelix screws along the z axis: R, t, w and u have exact zeros,
    # whose rounding noise differs at every precision, and R - I two columns of
    # one norm; the zeros print as 0 and two evaluations settle the payload
    calls = []

    def counted(*args):
        calls.append(args)
        return motion.decompose_motion(*args)

    monkeypatch.setattr(cli, "decompose_motion", counted)
    payload = _run_json(capsys, ["motion", *argv], schema="motion.schema.json")
    assert len(calls) == 2
    assert payload["R"][2] == ["0.0", "0.0", "1.0"]
    assert [row[2] for row in payload["R"][:2]] == ["0.0", "0.0"]
    assert payload["t"][:2] == ["0.0", "0.0"] and payload["t"][2] != "0.0"
    assert payload["w"][:2] == ["0.0", "0.0"] and payload["w"][2] in ("1.0", "-1.0")
    assert payload["u"] == ["0.0", "0.0", "0.0"]


@pytest.mark.parametrize("argv", [["--string", "123"], ["--kind", "tetrahelix", "--L", "3"]])
def test_motion_refuses_odd_chains(argv, capsys):
    # an odd number of reflections is no rigid motion; its digits would never settle
    assert main(["motion", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: an odd chain (3 letters) reverses orientation: it has no screw axis"
    ]


# --- failure modes -----------------------------------------------------------------


def test_out_error_names_the_requested_path(tmp_path, capsys):
    # the temp file beside --out has a random name; the message must not carry it
    out = str(tmp_path / "missing" / "x.obj")
    errs = []
    for _ in range(2):
        assert main(["build", "--kind", "tetrahelix", "--L", "3", "--out", out]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert len(errs[0].splitlines()) == 1 and out in errs[0]
    assert os.listdir(tmp_path) == []


def test_invalid_string_is_config_error(capsys):
    assert main(["gap", "--string", "11"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_kind_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--kind", "icosahedron"])
    assert exc.value.code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gap --string 12 --r0 x", "tetrachain gap: error: argument --r0: invalid int value: 'x'"),
        ("table1 --L-max 1e3", "tetrachain table1: error: argument --L-max: invalid int value: '1e3'"),
        ("gap --kind nope", "tetrachain gap: error: argument --kind: invalid choice: 'nope'"),
        ("", "tetrachain: error: the following arguments are required: command"),
    ],
)
def test_usage_error_is_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(message)


def test_unsupported_precision_is_reported(capsys):
    # 30 digits cannot certify 80 stable convergents
    assert main(["search-cf", "--count", "80", "--digits", "30"]) == 3
    assert "precision" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gap", "--kind", "quadrahelix"], "error: --kind quadrahelix needs --L"),
        (["gap"], "error: either --string or --kind is required"),
        (
            ["gap", "--kind", "quadrahelix", "--L", str(10**12)],
            "error: QH_1000000000000 would spell 4000000000002 letters; "
            "the limit is 10000000",
        ),
        # realization is exact-only; gap and motion take the run product past the limit
        (
            ["verify-embed", "--kind", "octahelix", "--L", "2500"],
            "error: string length 20004 exceeds the exact-product limit 20000",
        ),
        # a lead that is no face at all, and options a loop scan would ignore
        (["gap", "--string", "12", "--r0", "9"], "error: leading face must be 1..4, got 9"),
        (["gap", "--string", "12", "--r0", "0"], "error: leading face must be 1..4, got 0"),
        (
            ["gap", "--kind", "quadrahelix", "--L", "12", "--r0", "5"],
            "error: leading face must be 1..4, got 5",
        ),
        (
            ["gap", "--string", "1234", "--loop", "--format", "csv"],
            "error: --loop writes JSON only; it has no --format csv",
        ),
        (
            ["gap", "--string", "1234", "--loop", "--r0", "3"],
            "error: --loop takes the least lead of every cut; it cannot pin --r0",
        ),
        # Arabic-Indic 12 used to exit 0 as the string 12, and 12a3 with int()'s message
        (["gap", "--string", "\u0661\u0662"], "error: invalid reflection string '\u0661\u0662'"),
        (["gap", "--string", "12a3"], "error: invalid reflection string '12a3'"),
    ],
)
def test_named_chain_refusals(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--kind tetrahelix --L 3 --string 12", "error: --string and --kind name two chains; give one"),
        ("--kind preset540 --string 12", "error: --string and --kind name two chains; give one"),
        ("--kind preset540 --L 5", "error: --L needs --kind tetrahelix, quadrahelix or octahelix"),
        ("--string 12 --L 5", "error: --L needs --kind tetrahelix, quadrahelix or octahelix"),
        ("--L 5", "error: --L needs --kind tetrahelix, quadrahelix or octahelix"),
    ],
)
@pytest.mark.parametrize("command", ["verify-embed", "gap", "build", "motion"])
def test_conflicting_chain_selectors_exit_2(command, argv, message, capsys):
    # each of these used to exit 0 on one selector and silently drop the other
    assert main([command, *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize(
    "L, message",
    [
        # past int()'s 4,300-digit limit: read whole, refused as too long to spell
        (
            "1" + "0" * 4399,
            "error: QH_<4400-digit number> would spell <4400-digit number> letters; "
            "the limit is 10000000",
        ),
        ("7" * 5000 + "x", "error: --L must be an integer, got '777777777777777777777777...'"),
        ("1.5", "error: --L must be an integer, got '1.5'"),
    ],
    ids=["4400-digits", "5001-characters", "decimal"],
)
def test_long_or_malformed_L_is_one_line(L, message):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(["gap", "--kind", "quadrahelix", "--L", L])
    assert rc in (0, 2, 3)
    assert err.getvalue().splitlines() == [message]


# --- payload bytes -----------------------------------------------------------------

# sha256 of stdout, recorded before the free leading face and the named chains
# each moved behind one function; any change to these payloads is deliberate
PAYLOAD_SHA256 = {
    "gap --kind quadrahelix --L 10": (
        "5a9f9befd2fa3ccd8be22d4a4d04197d6508ff01d9c07d459107d5e30b56b472"
    ),
    "gap --kind quadrahelix --L 12019 --r0 3": (
        "2ab85c38f03d8572f258895540f07aeebdee6bac31b9e37b7b017e2dbd8b0e25"
    ),
    "gap --kind quadrahelix --L 12019 --format csv": (
        "ef52ae633a4feb4a3eae4a50af0ca139547b2efa923b3368130d5d5dc6565400"
    ),
    "gap --string 1213131323 --r0 4": (
        "2380c99a4c5b72ab7959c11274aafa29002f7beb4eec793813fd7afb01afd789"
    ),
    "gap --string 123412 --loop": (
        "81e50d309a61d231c5d8c75bab951705fba35ba75e8baf1b7afcc12c9018c9bf"
    ),
    "gap --kind octahelix --L 36": (
        "9dd575ae3eb645f61f4839c6cfd8a83ed6b65f1f0927b3b1d7cbeba0d6e310b0"
    ),
    "build --kind quadrahelix --L 3 --format json": (
        "04396b7ecd08f42be4f22a44daaf98fa7046930c14bf87e0d5ab7b5ce52cb12c"
    ),
    "table1 --L-max 20000": (
        "3d71b03492c7a86257cc6268d658fd76db56c51b7692fe43a75f9ea41466e5e1"
    ),
    # the norm column of the exact products, and every cut of the 540-loop
    "scan-ratio --L-max 200": (
        "376fe5b8ade777f5dd6bd0b1622ba856dbf26460d8051a026417ec8e57c506fb"
    ),
    "gap --kind preset540 --loop": (
        "f6fbebbe90b83fc43de7c7037bba5c423f2ccae3b6736bfa46563ffc8187cdec"
    ),
    # the realization (leg axes, embedding), the lattice table and the CSV row
    # re-recorded when K became the exact product, and when the axis point
    # came to solve in the plane orthogonal to w: only the residuals moved
    "motion --kind quadrahelix --L 29": (
        "3b60e8f210285dacd805b3699058683584193f7d464974cf248c866c09f6678c"
    ),
    "verify-embed --kind quadrahelix --L 10": (
        "2d160b7d5273e3e5d4a7435bbf7b936f062a4a03dd8dca5040217beaa67a6f1f"
    ),
    "verify-embed --kind octahelix --L 36": (
        "dbb6f89326b7bdbf3107f0c706d57d84176f76e4888c6d70e70016e13a6c3e72"
    ),
    # its margin comes from the vertex walk and the one rounding of each vertex
    "verify-embed --kind quadrahelix --L 60": (
        "49068f30e05db9670236c758b47650c04c19a4d6accd1b282da86d272809d9e9"
    ),
    # long legs: the verdicts of the sweep-pruned, T_0-frame certificate
    "verify-embed --kind quadrahelix --L 500": (
        "d3c783394721925102a838d5fe492987d2b4d8c3513796ab4e6eb80e66b4d279"
    ),
    "verify-embed --kind quadrahelix --L 1960": (
        "70d121c28c70f7b7e86c5d47e4effd7ad8e47488a3867a9acc1ec2ae47d0d542"
    ),
    "table2": (
        "3d615f823cf3bc377679cec5968e3a2957a71e47de707a9c3060183b5bf81089"
    ),
    "gap --string 12 --format csv": (
        "f2fff4c202b792ca277c4567f9666bdbafa653ccb07402617a223fb5574ab482"
    ),
    # a table2 row of 3.47e12 letters: a CSV row spells none
    "gap --kind octahelix --L 434337601428 --format csv": (
        "6c435f9879bf0977f3776be8a6093562722ac46e92b6df9e38e8cc3f29c67547"
    ),
}


@pytest.mark.parametrize("command", sorted(PAYLOAD_SHA256))
def test_payload_bytes_are_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PAYLOAD_SHA256[command]


# --- the exit contract ---------------------------------------------------------------


def _assert_exit_contract(argv):
    """Exit 0, 2, 3 or 4, with at most one line on stderr and no traceback."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse's usage errors
            rc = e.code
    assert rc in (0, 2, 3, 4), (argv, rc)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    return rc, err.getvalue()


# --digits values refused before any number is made: below 30, past the
# ceiling (an mpf at 10^11 digits exhausts memory, at 10^20 overflows), not an int
REFUSED_DIGITS = ["29", str(10**11), str(10**20), "x"]
# the default precision, or a refused one: no example computes at a huge precision
DIGITS = st.none() | st.sampled_from(REFUSED_DIGITS)


def _with_digits(argv, digits):
    return argv if digits is None else argv + ["--digits", digits]


@settings(max_examples=30)
@given(
    command=st.sampled_from(
        [["gap"], ["verify-embed"], ["motion"], ["build", "--format", "json"]]
    ),
    string=st.none() | st.text("0123456 xa\u0661\u0662", max_size=6),
    kind=st.none() | st.sampled_from(["tetrahelix", "quadrahelix", "octahelix"]),
    # past MAX_SPELLED_LENGTH letters a named chain is refused before it is spelled
    L=st.none() | st.integers(-2, 8) | st.sampled_from([10**7, 10**12, 10**40]),
    digits=DIGITS,
)
def test_chain_commands_keep_exit_contract(command, string, kind, L, digits):
    argv = list(command)
    for flag, value in (("--string", string), ("--kind", kind), ("--L", L)):
        if value is not None:
            argv += [flag, str(value)]
    _assert_exit_contract(_with_digits(argv, digits))


@settings(max_examples=20)
@given(
    argv=st.one_of(
        st.tuples(
            st.integers(-3, 200), st.integers(30, 80) | st.sampled_from(REFUSED_DIGITS)
        ).map(lambda nd: ["search-cf", "--count", str(nd[0]), "--digits", str(nd[1])]),
        st.tuples(
            st.one_of(
                st.sampled_from(["0", "-5", "-0.5", "nan", "inf", "abc", ""]),
                st.floats(-1, 40).map(lambda e: f"{10**e:.6g}"),
            ),
            DIGITS,
        ).map(lambda xd: _with_digits(["search-lll", "--X", xd[0]], xd[1])),
    )
)
def test_search_commands_keep_exit_contract(argv):
    _assert_exit_contract(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--kind", "quadrahelix", "--L", "1", "--format", "json"],
        ["gap", "--kind", "quadrahelix", "--L", "1"],
        ["table1", "--L-max", "10"],
        ["table2"],
        ["search-cf", "--count", "3"],
        ["search-lll", "--X", "100"],
        ["verify-embed", "--kind", "quadrahelix", "--L", "1"],
        ["scan-ratio", "--L-max", "5"],
        ["motion", "--kind", "quadrahelix", "--L", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_refused_digits_exit_2_on_every_command(argv):
    for digits in REFUSED_DIGITS:
        rc, err = _assert_exit_contract(argv + ["--digits", digits])
        assert rc == 2 and len(err.splitlines()) == 1, (digits, err)
        assert "digits" in err, err


def test_cli_does_not_load_numpy():
    # numpy is a test dependency only; a fresh CLI process must not import it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import tetrachain.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
