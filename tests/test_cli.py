import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bergseq import sequences
from bergseq.cli import (
    SWEEP_HEADER,
    _FLAGS,
    build_parser,
    main,
    parse_sequence_file,
    parse_weight,
    write_sequence_file,
)
from bergseq.errors import DomainViolation
from bergseq.geometry import Domain
from bergseq.sequences import SequenceSet, density_sweep, generate_lattice


def test_parse_weight_specs():
    w = parse_weight("standard-disk:s=2")
    assert w.params == {"s": 2.0}
    w = parse_weight("standard-puncture:s=2,t=3")
    assert w.params == {"s": 2.0, "t": 3.0}
    with pytest.raises(ValueError):
        parse_weight("exotic:s=2")
    with pytest.raises(ValueError):
        parse_weight("standard-disk:s2")
    with pytest.raises(ValueError):
        parse_weight("standard-disk:S=3")
    # a repeated key once read the last value, s = 3
    with pytest.raises(ValueError, match="given twice"):
        parse_weight("standard-disk:s=2,s=3")
    with pytest.raises(ValueError, match="given twice"):
        parse_weight("standard-puncture:t=3, t=3")
    for spec in ("standard-disk:s=nan", "standard-disk:s=inf", "standard-puncture:t=nan"):
        with pytest.raises(ValueError, match="finite"):
            parse_weight(spec)


def test_parse_sequence_file_basic(tmp_path):
    p = tmp_path / "seq.json"
    p.write_text('{"domain":"disk","points":[[0.5,0]]}')
    seq = parse_sequence_file(p)
    assert seq.domain is Domain.DISK
    assert seq.points == (0.5 + 0j,)


def test_parse_sequence_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain":"disk","points":[[1.1,0]]}')
    with pytest.raises(DomainViolation, match="points\\[0\\]"):
        parse_sequence_file(bad)
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"domain": "disk", points: }')
    with pytest.raises(DomainViolation, match="line"):
        parse_sequence_file(malformed)
    missing = tmp_path / "missing.json"
    missing.write_text('{"points": []}')
    with pytest.raises(DomainViolation, match="domain"):
        parse_sequence_file(missing)
    with pytest.raises(DomainViolation):
        parse_sequence_file(tmp_path / "nope.json")
    nan = tmp_path / "nan.json"
    nan.write_text('{"domain":"disk","points":[[NaN,0]]}')
    with pytest.raises(DomainViolation, match="points\\[0\\]"):
        parse_sequence_file(nan)
    # the first two escaped main as TypeErrors, the third as an OverflowError,
    # and the last read as the point 0.5
    for text, where in (('{"domain":"disk","points":5}', "points must be a list"),
                        ('{"domain":"disk","points":[[0.1,0.2],[0.1,null]]}', "points\\[1\\]"),
                        ('{"domain":"disk","points":[[1' + "0" * 400 + ',0]]}', "points\\[0\\]"),
                        ('{"domain":"disk","points":[["0.5",false]]}', "points\\[0\\]")):
        odd = tmp_path / "odd.json"
        odd.write_text(text)
        with pytest.raises(DomainViolation, match=where):
            parse_sequence_file(odd)
        assert main(["analyze", str(odd)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_parse_empty_points_is_valid(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text('{"domain":"disk","points":[]}')
    assert len(parse_sequence_file(p)) == 0


def test_gen_parse_roundtrip_exact(tmp_path):
    out = tmp_path / "lat.json"
    assert main(["gen", "--kind", "hyperbolic-disk", "--count", "15",
                 "--mesh", "0.5", "--seed", "4", "--out", str(out)]) == 0
    seq = parse_sequence_file(out)
    ref = generate_lattice("hyperbolic-disk", 15, seed=4, d=0.5)
    assert seq.points == ref.points  # bit-exact via repr-precision JSON


def test_roundtrip_write_parse(tmp_path):
    seq = SequenceSet((0.123456789012345 + 0.9j * 0.5,), Domain.DISK, "x")
    p = tmp_path / "s.json"
    write_sequence_file(p, seq)
    assert parse_sequence_file(p).points == seq.points


def test_analyze_exit_codes(tmp_path):
    single = tmp_path / "single.json"
    single.write_text('{"domain":"disk","points":[[0.5,0]]}')
    assert main(["analyze", str(single)]) == 0
    # colliding points -> NotInterpolating, still exit 0 (a decision)
    twin = tmp_path / "twin.json"
    twin.write_text('{"domain":"disk","points":[[0.5,0],[0.5000000001,0]]}')
    assert main(["analyze", str(twin)]) == 0
    # nonexistent file -> error
    assert main(["analyze", str(tmp_path / "void.json")]) == 1


def test_analyze_indeterminate_exit_2(tmp_path):
    # puncture points with no admissible center lifts
    seq = tmp_path / "p.json"
    pts = [[math.exp(-k), 0.0] for k in (1, 2, 3)]
    seq.write_text(json.dumps({"domain": "punctured-disk", "points": pts}))
    assert main(["analyze", str(seq), "--weight", "standard-puncture:s=2,t=3"]) == 2


def test_sweep_csv_shape(tmp_path):
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "10", "--mesh", "0.6",
          "--out", str(lat)])
    out = tmp_path / "table.csv"
    assert main(["sweep", str(lat), "--r-grid", "0.9,0.95", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == SWEEP_HEADER
    n_rows = len(rows) - 1
    assert n_rows % 2 == 0  # |r grid| x |center net|
    assert all(len(r.split(",")) == 7 for r in rows[1:])


def test_sweep_writes_its_csv_without_density_reports(tmp_path, monkeypatch):
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "10", "--mesh", "0.6", "--out", str(lat)])
    plain, columns = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(lat), "--out", str(plain)]) == 0

    def no_report(*args, **kwargs):
        raise AssertionError("a DensityReport was built")

    monkeypatch.setattr(sequences, "DensityReport", no_report)
    assert main(["sweep", str(lat), "--out", str(columns)]) == 0
    monkeypatch.undo()
    assert columns.read_bytes() == plain.read_bytes()
    rows = [row.split(",") for row in plain.read_text().splitlines()[1:]]
    reports = density_sweep(parse_sequence_file(lat), parse_weight("standard-disk:s=2")).reports
    assert rows == [[repr(x) if isinstance(x, float) else x for x in (
        rep.center.real, rep.center.imag, rep.radius, rep.kind, rep.numerator, rep.denominator, rep.ratio)]
        for rep in reports]


def test_sweep_refuses_a_weight_of_the_other_domain(tmp_path, capsys):
    # the default weight, standard-disk:s=2, once swept a punctured-disk file
    seq = tmp_path / "p.json"
    main(["gen", "--kind", "puncture-exponential", "--count", "20", "--step", "0.5", "--rays", "2",
          "--out", str(seq)])
    capsys.readouterr()
    assert main(["sweep", str(seq)]) == 1
    assert "error: the weight lives on the disk, the sequence on the punctured-disk" in capsys.readouterr().err


def test_deterministic_reruns_byte_identical(tmp_path):
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "12", "--mesh", "0.55",
          "--seed", "9", "--out", str(lat)])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", str(lat), "--out", str(out1)])
    main(["sweep", str(lat), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    r1, r2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    main(["analyze", str(lat), "--out", str(r1)])
    main(["analyze", str(lat), "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_pj_verify_is_deterministic_and_exact(tmp_path):
    # the standard weights' curvature term is closed-form, so every case
    # balances to rounding
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["pj-verify", "--out", str(out1)]) == 0
    assert main(["pj-verify", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    residuals = [float(x) for x in re.findall(r"residual[=:] ?(\S+)", text)]
    assert len(residuals) == 21 and max(residuals) < 1e-12
    assert text.endswith("pass\n")


def test_config_file_with_flag_override(tmp_path):
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "8", "--mesh", "0.6",
          "--out", str(lat)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r-grid=0.9,0.95\nweight=standard-disk:s=3\n")
    out_cfg = tmp_path / "cfg.csv"
    main(["sweep", str(lat), "--config", str(cfg), "--out", str(out_cfg)])
    rows = out_cfg.read_text().splitlines()
    radii = {r.split(",")[2] for r in rows[1:]}
    assert radii == {"0.9", "0.95"}
    # explicit flag beats the config value
    out_flag = tmp_path / "flag.csv"
    main(["sweep", str(lat), "--config", str(cfg), "--r-grid", "0.99",
          "--out", str(out_flag)])
    radii = {r.split(",")[2] for r in out_flag.read_text().splitlines()[1:]}
    assert radii == {"0.99"}


def test_config_file_explicit_flag_equal_to_default_wins(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "8", "--mesh", "0.6",
          "--out", str(lat)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weight=standard-disk:s=3\n")
    plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
    assert main(["sweep", str(lat), "--out", str(plain)]) == 0
    assert main(["sweep", str(lat), "--config", str(cfg), "--weight", "standard-disk:s=2",
                 "--out", str(flagged)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()
    # a key that is not a flag of the subcommand is an error
    other = tmp_path / "other.cfg"
    other.write_text("delta=0.1\n")
    capsys.readouterr()
    assert main(["gram", str(lat), "--config", str(other)]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=11\n")
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "puncture-exponential", "--count", "3", "--out", str(lat)])
    assert main(["sweep", str(lat), "--config", str(cfg)]) == 1


def test_gram_command(tmp_path, capsys):
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "6", "--mesh", "0.7",
          "--out", str(lat)])
    assert main(["gram", str(lat)]) == 0
    text = capsys.readouterr().out
    assert "interpolation_constant:" in text
    assert "spectrum:" in text


def test_usage_errors_exit_1(tmp_path, capsys):
    # exit code 2 is the Indeterminate verdict, so a usage error must not use it
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "6", "--mesh", "0.7",
          "--out", str(lat)])
    capsys.readouterr()
    assert main(["analyze", str(lat), "--seed", "3"]) == 1
    assert "error:" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=abc\n")
    assert main(["analyze", str(lat), "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    punct = tmp_path / "punct.json"
    main(["gen", "--kind", "puncture-exponential", "--count", "12", "--step", "0.3", "--rays", "6",
          "--out", str(punct)])
    capsys.readouterr()
    assert main(["analyze", str(punct), "--weight", "standard-puncture:s=2,t=3", "--split-a", "nan"]) == 1
    assert "split modulus" in capsys.readouterr().err


def test_sweep_r_grid_split_by_side(tmp_path):
    seq = tmp_path / "p.json"
    # border points near the rim keep 0, where the standard-puncture
    # curvature density is not smooth, out of every D_0.9(center)
    border = [[0.97, 0.0], [0.0, -0.96], [-0.96, 0.1]]
    star = [[math.exp(-k), 0.0] for k in range(1, 13)]
    seq.write_text(json.dumps({"domain": "punctured-disk", "points": border + star}))
    out = tmp_path / "table.csv"
    assert main(["sweep", str(seq), "--weight", "standard-puncture:s=2,t=3",
                 "--r-grid", "0.9,4", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert {(r[2], r[3]) for r in rows} == {("0.9", "border"), ("4.0", "puncture")}


def test_sweep_notes_reach_the_user(tmp_path, capsys):
    seq = tmp_path / "p.json"
    main(["gen", "--kind", "puncture-exponential", "--count", "20", "--step", "1",
          "--rays", "2", "--out", str(seq)])
    flags = ["--weight", "standard-puncture:s=2,t=3", "--r-grid", "4,16"]
    note = "note: no admissible center lifts at r = 16.0"  # the deepest lift has Im = 10
    capsys.readouterr()
    main(["analyze", str(seq)] + flags)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == note
    assert [line for line in lines if line.startswith("reason: ")]
    assert max(i for i, line in enumerate(lines) if line.startswith("reason: ")) < lines.index(note)
    assert main(["sweep", str(seq)] + flags) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [note]
    rows = out.splitlines()
    assert rows[0] == SWEEP_HEADER and all(row.split(",")[2] == "4.0" for row in rows[1:])


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_epsilon_is_neither_a_flag_nor_a_config_key(tmp_path, capsys, command):
    # the density path takes no eps: a sweep's lifts clear the real axis by 1
    seq = tmp_path / "p.json"
    main(["gen", "--kind", "puncture-exponential", "--count", "12", "--step", "1", "--out", str(seq)])
    capsys.readouterr()
    assert main([command, str(seq), "--epsilon", "0.1"]) == 1
    assert "unrecognized arguments: --epsilon 0.1" in capsys.readouterr().err
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("epsilon=0.1\n")
    assert main([command, str(seq), "--config", str(cfg)]) == 1
    assert "bad line 1: epsilon=0.1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_split_modulus_is_checked_on_a_disk_file(tmp_path, capsys, command):
    # a disk sequence has no split, and a NaN split once passed unread
    lat = tmp_path / "lat.json"
    main(["gen", "--kind", "hyperbolic-disk", "--count", "6", "--mesh", "0.7", "--out", str(lat)])
    capsys.readouterr()
    assert main([command, str(lat), "--split-a", "nan"]) == 1
    assert "split modulus" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def _parser_flags():
    """{subcommand: {long flag: its action}} of build_parser(), apart from --config, --out and --help."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: action for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt not in ("--config", "--out", "--help")}
            for name, p in sub.choices.items()}


def test_readme_cli_section_matches_the_parser():
    cli = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    flags = _parser_flags()
    table = {name: set(re.findall(r"`(--[a-z-]+)`", cell))
             for name, cell in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", cli, re.M)}
    assert table == {name: set(opts) for name, opts in flags.items()}
    # every flag the defaults line names exists, with the parser's default
    defaults = re.search(r"Defaults: (.*?)\.\n", cli, re.S).group(1)
    named = re.findall(r"`(--[a-z-]+)(?: ([^`]+))?`", defaults)
    assert named
    actions = {opt: action for opts in flags.values() for opt, action in opts.items()}
    for flag, value in named:
        assert flag in actions
        assert not value or str(actions[flag].default) == value
    # the config keys are the shared flags
    keys = re.search(r"must be one of (.*?) that the subcommand takes", cli, re.S).group(1)
    assert set(re.findall(r"`([a-z-]+)`", keys)) == {key.replace("_", "-") for key in _FLAGS}
