"""Command-line jobs: exit codes, schema strictness, determinism, rendering."""

import json

import pytest

from divalg.cli import ConfigError, main, report_json, run


def write_config(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


CLOSURE_W = {
    "schema_version": "1",
    "job": "closure",
    "algebra": "L",
    "d": 2,
    "alpha": ["1/2", "0"],
    "rep": {"kind": "exterior", "k": 1},
    "seeds": [{"n": [0, 0], "coords": ["1/2", "0"]}],
    "gen_radius": 2,
    "working_box": 3,
    "target_box": 1,
    "max_iters": 50,
}


def test_run_closure_label_w():
    report, code = run(dict(CLOSURE_W), 0)
    assert code == 0
    assert report["outcome"] == "pass"
    assert report["details"]["label"] == "W"
    assert set(report["details"]["fiber_dims"].values()) == {1}


def test_expect_label_mismatch_is_violation():
    config = dict(CLOSURE_W)
    config["expect_label"] = "Full"
    report, code = run(config, 0)
    assert code == 1
    assert report["outcome"] == "violation"


def test_verify_algebra_pass():
    report, code = run({"job": "verify-algebra", "algebra": "L", "d": 2, "triples": 30}, 3)
    assert code == 0
    assert all(s["violations"] == 0 for s in report["details"]["suites"])


def test_verify_algebra_q_side():
    report, code = run({"job": "verify-algebra", "algebra": "Lqhat",
                        "q": {"l": [2, 2]}, "triples": 30}, 3)
    assert code == 0
    assert report["details"]["suites"][0]["violations"] == 0


def test_verify_algebra_explicit_elements():
    config = {
        "job": "verify-algebra", "algebra": "L", "d": 2, "triples": 10,
        "elements": [
            [{"u": ["2", "-1"], "r": [1, 2]}],
            [{"u": ["0", "1"], "r": [1, 0]}, {"u": ["1", "0"], "r": [0, 1]}],
        ],
    }
    report, code = run(config, 0)
    assert code == 0
    info = report["details"]["elements"]
    assert info[0]["in_algebra"] and info[1]["in_algebra"]
    # an element violating the divergence condition flips the outcome
    config["elements"] = [[{"u": ["1", "0"], "r": [1, 0]}]]
    report, code = run(config, 0)
    assert code == 1
    assert not report["details"]["elements"][0]["in_algebra"]


def test_verify_module_q_records_sign():
    config = {
        "job": "verify-module",
        "algebra": "Lq",
        "d": 2,
        "alpha": ["1/2", "1/3"],
        "rep": {"kind": "natural"},
        "q": {"l": [2, 2]},
        "pairs": 40,
    }
    report, code = run(config, 1)
    assert code == 0
    assert report["details"]["outer_bracket_sign"] == 1
    assert report["details"]["ad_annihilation"] is True


def test_qtorus_info():
    report, code = run({"job": "qtorus-info", "q": {"N": 3, "exps": [[0, -1], [1, 0]]}}, 0)
    assert code == 0
    assert report["details"]["rad_basis"] == [[3, 0], [0, 3]]
    assert report["details"]["block_normal_l"] == [3, 3]
    assert len(report["details"]["classes"]) == 9


def test_unknown_field_rejected():
    config = dict(CLOSURE_W)
    config["bogus"] = 1
    with pytest.raises(ConfigError):
        run(config, 0)


def test_malformed_alpha_names_field(tmp_path, capsys):
    config = dict(CLOSURE_W)
    config["alpha"] = ["1/0", "0"]
    path = write_config(tmp_path, "bad.json", config)
    code = main(["closure", "--config", path])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha[0]" in err


def test_missing_field_rejected():
    config = dict(CLOSURE_W)
    del config["seeds"]
    with pytest.raises(ConfigError):
        run(config, 0)


def test_unknown_job():
    with pytest.raises(ConfigError):
        run({"job": "frobnicate"}, 0)


def test_cli_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, "w.json", CLOSURE_W)
    code = main(["closure", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["details"]["label"] == "W"


def test_cli_text_format(tmp_path, capsys):
    path = write_config(tmp_path, "w.json", CLOSURE_W)
    assert main(["closure", "--config", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "label: W" in out
    assert "n2\\n1" in out


def test_reports_byte_identical(tmp_path):
    path = write_config(tmp_path, "w.json", CLOSURE_W)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--seed", "7", "closure", "--config", path, "--out", str(out1)]) == 0
    assert main(["--seed", "7", "closure", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    va = write_config(tmp_path, "va.json",
                      {"job": "verify-algebra", "algebra": "Lhat", "d": 3, "triples": 40})
    assert main(["--seed", "3", "verify-algebra", "--config", va, "--out", str(out1)]) == 0
    assert main(["--seed", "3", "verify-algebra", "--config", va, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_job_command_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, "w.json", CLOSURE_W)
    assert main(["verify-algebra", "--config", path]) == 2
    assert "does not match" in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{nope")
    assert main(["closure", "--config", str(p)]) == 2


def test_config_missing_file(capsys):
    assert main(["closure", "--config", "/nonexistent/x.json"]) == 2


def test_report_json_stable_key_order():
    report, _ = run(dict(CLOSURE_W), 0)
    s1 = report_json(report)
    s2 = report_json(json.loads(s1))
    assert s1 == s2


@pytest.mark.parametrize("field, value, named", [
    ("triples", "abc", "triples"),
    ("d", 0, "d"),
    ("seeds", [{"n": ["x", 0], "coords": ["1/2", "0"]}], "seeds[0].n[0]"),
    ("working_box", -1, "working_box"),
    ("working_box", {"lo": "ab", "hi": [1, 1]}, "working_box.lo"),
    ("gen_radius", -1, "gen_radius"),
    ("max_iters", 0, "max_iters"),
])
def test_malformed_integer_field_exits_2(tmp_path, capsys, field, value, named):
    if field in ("triples", "d"):
        config = {"job": "verify-algebra", "algebra": "L", "d": 2, "triples": 10}
    else:
        config = dict(CLOSURE_W)
    config[field] = value
    path = write_config(tmp_path, "bad.json", config)
    assert main([config["job"], "--config", path]) == 2
    assert f"error: {named}:" in capsys.readouterr().err


@pytest.mark.parametrize("job, field, value, named", [
    ("closure", "seeds", [{"n": [0, 0], "coords": 5}], "seeds[0].coords"),
    ("closure", "seeds", [{"n": [0, 0], "coords": "12"}], "seeds[0].coords"),
    ("verify-algebra", "elements", [[{"u": 5, "r": [1, 2]}]], "elements[0][0].u"),
])
def test_malformed_list_field_exits_2(tmp_path, capsys, job, field, value, named):
    if job == "closure":
        config = dict(CLOSURE_W)
    else:
        config = {"job": "verify-algebra", "algebra": "L", "d": 2, "triples": 10}
    config[field] = value
    path = write_config(tmp_path, "bad.json", config)
    assert main([job, "--config", path]) == 2
    assert f"error: {named}:" in capsys.readouterr().err


@pytest.mark.parametrize("algebra", ["L", "W"])
def test_verify_module_trivial_rep_integral_alpha_exits_0(tmp_path, capsys, algebra):
    # under W the trivial rep is not Lambda^d (they differ by the trace), so
    # the wedge-invariance suite must not judge it; trivial_split does
    config = {"job": "verify-module", "algebra": algebra, "d": 2, "alpha": ["1", "-2"],
              "rep": {"kind": "trivial"}}
    path = write_config(tmp_path, "trivial.json", config)
    assert main(["verify-module", "--config", path]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert "wedge-invariance" not in [s["name"] for s in details["suites"]]
    assert details["trivial_split"] == {"irreducible": False, "split_at": [-1, 2]}
