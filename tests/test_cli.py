"""Command-line jobs: exit codes, schema strictness, determinism, rendering."""

import hashlib
import json

import pytest

import divalg.qder
from divalg import cli
from divalg.cli import ConfigError, main, report_json, run
from divalg.modules import GradedVec
from test_verify import flipped_bracket_qder


def write_config(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


NAT_REP = {"kind": "natural"}

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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_undecided_bracket_sign_exits_1_with_a_report(tmp_path, capsys, monkeypatch, fmt):
    """With the outer-inner bracket's sign flipped, the action is a
    representation under neither outer-bracket sign: the job writes its
    report with no sign, counts the violation and exits 1."""
    monkeypatch.setattr(divalg.qder, "bracket_qder", flipped_bracket_qder)
    path = write_config(tmp_path, "q.json", {
        "job": "verify-module", "algebra": "Der", "d": 2, "alpha": ["1/2", "1/3"],
        "rep": {"kind": "natural"}, "q": {"l": [2, 2]}, "pairs": 40})
    out = tmp_path / "report"
    assert main(["verify-module", "--config", path, "--out", str(out), "--format", fmt]) == 1
    assert capsys.readouterr().err == ""
    if fmt == "text":
        assert "outcome: violation" in out.read_text()
        assert "outer bracket sign: none" in out.read_text()
        return
    report = json.loads(out.read_text())
    assert report["outcome"] == "violation"
    assert report["details"]["outer_bracket_sign"] is None
    assert report["details"]["suites"][0]["violations"] > 0


def test_verify_module_q_d6_checks_ad_annihilation():
    # the radius-2 box has 15,625 degrees, 15,624 of them off the radical
    config = {"job": "verify-module", "algebra": "Lq", "d": 6,
              "alpha": ["1/5", "1/7", "0", "0", "0", "0"], "rep": {"kind": "natural"},
              "q": {"l": [2, 2, 1, 1, 1, 1]}, "pairs": 5}
    report, code = run(config, 1)
    assert code == 0
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


@pytest.mark.parametrize("content", [
    b'{"job": "closure", "gen_radius": ' + b"9" * 5000 + b"}",  # over the digit limit
    b'{"job": "closure", "algebra": "\xff"}',  # not UTF-8
], ids=["5000-digit-integer", "non-utf8"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, content):
    p = tmp_path / "unreadable.json"
    p.write_bytes(content)
    assert main(["closure", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1


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
    # integer fields are JSON integers: no floats, no booleans
    ("gen_radius", 1.9, "gen_radius"),
    ("seeds", [{"n": [0.4, 0], "coords": ["1/2", "0"]}], "seeds[0].n[0]"),
    ("working_box", True, "working_box"),
    ("working_box", {"lo": [-1, -1], "hi": [1.0, 1]}, "working_box.hi[0]"),
    ("d", True, "d"),
    ("triples", 10.0, "triples"),
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
    # a q of another dimension than d
    ("verify-module", "q", {"l": [2, 2]}, "q"),
    # JSON floats are not exact rationals
    ("closure", "alpha", [0.5, 0], "alpha[0]"),
    ("closure", "seeds", [{"n": [0, 0], "coords": [0.5, 0]}], "seeds[0].coords[0]"),
    ("verify-algebra", "elements", [[{"u": [0.5, 0], "r": [1, 2]}]], "elements[0][0].u[0]"),
    # a rep kind without its own field
    ("closure", "rep", {"kind": "exterior"}, "rep"),
    ("closure", "rep", {"kind": "twisted", "l": [1, 1]}, "rep"),
    ("verify-module", "q", {"l": None}, "q.l"),
    # fields that the chosen algebra does not read
    ("verify-algebra", "algebra", "Lq", "d"),
    ("verify-algebra", "q", {"l": [2, 2]}, "q"),
    ("verify-module", "algebra", "L", "q"),
    ("closure", "q", {"l": [2, 2]}, "q"),
    # booleans are not rationals or integers
    ("closure", "alpha", [True, 0], "alpha[0]"),
    ("closure", "seeds", [{"n": [0, 0], "coords": [True, 0]}], "seeds[0].coords[0]"),
    ("verify-algebra", "elements", [[{"u": [True, 0], "r": [1, 2]}]], "elements[0][0].u[0]"),
    ("closure", "rep", {"kind": "exterior", "k": 1.5}, "rep: k"),
    ("closure", "rep", {"kind": "exterior", "k": True}, "rep: k"),
    ("closure", "rep", {"kind": "symmetric", "m": 2.0}, "rep: m"),
    ("closure", "rep", {"kind": "twisted", "l": [1, 1.5], "inner": {"kind": "natural"}},
     "rep: l[1]"),
    ("closure", "expect_label", 5, "expect_label"),
    # q.N is named once, not wrapped in another "q:" prefix
    ("verify-module", "q", {"N": "x", "exps": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}, "q.N"),
    ("verify-module", "q", {"l": [2, 2.0, 1]}, "q.l[1]"),
    ("verify-module", "q", {"N": 2, "exps": [[0, 1, 0], [-1, 0, 0], [0, 0, True]]},
     "q.exps[2][2]"),
    # a torus of dimension 0
    ("qtorus-info", "q", {"N": 2, "exps": []}, "q"),
    # list fields of a rep are JSON lists, not numbers or strings
    ("closure", "rep", {"kind": "tensor", "factors": 5}, "rep: factors"),
    ("closure", "rep", {"kind": "tensor", "factors": "nn"}, "rep: factors"),
    ("closure", "rep", {"kind": "twisted", "l": 5, "inner": {"kind": "natural"}}, "rep: l"),
    ("closure", "rep", {"kind": "twisted", "l": "11", "inner": {"kind": "natural"}}, "rep: l"),
])
def test_malformed_list_field_exits_2(tmp_path, capsys, job, field, value, named):
    config = {
        "closure": dict(CLOSURE_W),
        "verify-algebra": {"job": "verify-algebra", "algebra": "L", "d": 2, "triples": 10},
        "verify-module": {"job": "verify-module", "algebra": "Lq", "d": 3,
                          "alpha": ["1/2", "1/3", "0"], "rep": {"kind": "natural"},
                          "q": {"l": [2, 2, 1]}},
        "qtorus-info": {"job": "qtorus-info", "q": {"l": [2, 2]}},
    }[job]
    config[field] = value
    path = write_config(tmp_path, "bad.json", config)
    assert main([job, "--config", path]) == 2
    assert f"error: {named}:" in capsys.readouterr().err


@pytest.mark.parametrize("rep, named", [
    ({"kind": "tensor", "factors": [{"kind": "natural"}, {"kind": "exterior", "k": 1.5}]},
     "rep: factors[1].k"),
    ({"kind": "tensor", "factors": [{"kind": "natural"}, {"kind": "cyclic"}]},
     "rep: factors[1]"),
    ({"kind": "twisted", "l": [1, 2], "inner": {"kind": "symmetric", "m": "2"}},
     "rep: inner.m"),
    ({"kind": "twisted", "l": [1, 2],
      "inner": {"kind": "twisted", "l": [1, True], "inner": {"kind": "natural"}}},
     "rep: inner.l[1]"),
    ({"kind": "twisted", "l": [1, 2], "inner": {"kind": "exterior", "k": 3}}, "rep: inner"),
    # a factor of no labels makes the product of dims 0, not over the budget,
    # though the dims before it multiply past it
    ({"kind": "tensor", "factors": [{"kind": "symmetric", "m": 200}] * 3
      + [{"kind": "exterior", "k": 3}]}, "rep: factors[3]"),
])
def test_nested_rep_error_names_its_path(tmp_path, capsys, rep, named):
    path = write_config(tmp_path, "nested.json", dict(CLOSURE_W, rep=rep))
    assert main(["closure", "--config", path]) == 2
    assert f"error: {named}:" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [33, 1500])
def test_deeply_nested_rep_exits_2(tmp_path, capsys, depth):
    # 33 levels parse but exceed the rep depth cap; 1,500 exceed the
    # interpreter's recursion limit while the JSON is read
    rep = '{"kind": "natural"}'
    for _ in range(depth):
        rep = '{"kind": "twisted", "l": [1, 1], "inner": %s}' % rep
    config = json.dumps(dict(CLOSURE_W, rep=None)).replace("null", rep)
    path = tmp_path / "deep.json"
    path.write_text(config)
    assert main(["closure", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_parse_rep():
    assert cli._parse_rep({"kind": "exterior", "k": 2}, 3).dim == 3
    assert cli._parse_rep({"kind": "symmetric", "m": 2}, 2).dim == 3
    assert cli._parse_rep({"kind": "natural"}, 2).dim == 2
    assert cli._parse_rep({"kind": "trivial"}, 2).dim == 1
    tw = cli._parse_rep({"kind": "twisted", "l": [2, 2], "inner": {"kind": "natural"}}, 2)
    assert tw.kind == "twisted"
    with pytest.raises(ConfigError):
        cli._parse_rep({"kind": "exterior", "k": 1, "bogus": 1}, 2)
    with pytest.raises(ConfigError):
        cli._parse_rep({"kind": "nope"}, 2)


def label_cells(rep):
    """Cells of a built rep's labels: dim times the label length (at least
    1), plus those of its tensor factors; a twisted rep shares its parent's
    labels and adds one index entry per label."""
    if rep.kind == "twisted":
        return rep.dim + label_cells(rep.params["parent"])
    width = max(1, len(rep.basis_labels[0]))
    return rep.dim * width + sum(label_cells(f) for f in rep.params.get("factors", ()))


REP_CONFIGS = [
    (2, {"kind": "natural"}), (3, {"kind": "trivial"}), (4, {"kind": "exterior", "k": 2}),
    (3, {"kind": "exterior", "k": 3}), (2, {"kind": "symmetric", "m": 5}),
    (3, {"kind": "symmetric", "m": 3}),
    (3, {"kind": "tensor", "factors": [{"kind": "natural"}, {"kind": "exterior", "k": 2},
                                       {"kind": "symmetric", "m": 2}]}),
    (2, {"kind": "twisted", "l": [2, 3],
         "inner": {"kind": "tensor", "factors": [{"kind": "natural"}] * 2}}),
]


@pytest.mark.parametrize("d, obj", REP_CONFIGS)
def test_rep_size_from_closed_forms_matches_the_built_rep(monkeypatch, d, obj):
    build, dim, cells = cli._rep_plan(obj, d, "rep", 1)
    rep = build()
    assert (dim, cells) == (rep.dim, label_cells(rep))
    # the budget admits a rep of exactly its cells and refuses one cell less
    monkeypatch.setattr(cli, "MAX_CELLS", cells)
    assert cli._parse_rep(obj, d).basis_labels == rep.basis_labels
    monkeypatch.setattr(cli, "MAX_CELLS", cells - 1)
    with pytest.raises(ConfigError, match="budget of"):
        cli._parse_rep(obj, d)


def test_binomial_stops_over_the_cap():
    from math import comb
    for n in range(12):
        for k in range(n + 1):
            assert cli._binom(n, k, float("inf")) == comb(n, k)
            got = cli._binom(n, k, 10)
            assert got == comb(n, k) if comb(n, k) <= 10 else 10 < got <= comb(n, k)


@pytest.mark.parametrize("q, named", [
    ({"N": 401, "exps": [[0, 1], [-1, 0]]}, "q.N"),
    ({"l": [361, 361]}, "q.l"),
])
@pytest.mark.parametrize("job", ["verify-algebra", "verify-module", "closure", "qtorus-info"])
def test_q_order_above_cap_exits_2_for_every_job(tmp_path, capsys, job, q, named):
    module = {"d": 2, "alpha": ["1/2", "1/3"], "rep": {"kind": "natural"}}
    config = {
        "verify-algebra": {"algebra": "Lq"},
        "verify-module": {"algebra": "Lq", **module},
        "closure": {"algebra": "Lq", **module, "seeds": [{"n": [1, 0], "coords": ["1", "0"]}]},
        "qtorus-info": {},
    }[job]
    config.update(job=job, q=q)
    path = write_config(tmp_path, "cap.json", config)
    assert main([job, "--config", path]) == 2
    assert f"error: {named}:" in capsys.readouterr().err


Q_CLOSURE = {"job": "closure", "algebra": "Lq", "d": 2, "alpha": ["1/2", "1/3"],
             "rep": NAT_REP, "q": {"l": [2, 2]}, "seeds": [{"n": [1, 0], "coords": ["1", "0"]}],
             "gen_radius": 1, "working_box": 2, "target_box": 1}


def _no_closure(*args, **kwargs):
    raise AssertionError("the closure ran")


@pytest.mark.parametrize("seeds, across, message", [
    ([{"n": [1, 0], "coords": ["0", "0"]}], None, "zero seed"),
    ([{"n": [0, 0], "coords": ["0", "0"]}], None, "zero seed"),
    ([{"n": [1, 0], "coords": ["1", "0"]}, {"n": [0, 0], "coords": ["0", "0"]}], None,
     "zero seed"),
    ([{"n": [1, 0], "coords": ["1", "0"]}], (0, 2), "seed on 2 degrees"),
    ([{"n": [1, 0], "coords": ["1", "0"]}], (1, 0), "seed on 2 degrees"),
], ids=["off-zero", "radical-zero", "zero-after-off", "two-degrees-one-side",
        "two-degrees-across"])
def test_q_closure_seed_errors_come_before_the_radical_bound(tmp_path, capsys, monkeypatch,
                                                             seeds, across, message):
    # the radical bound reads the seeds' degrees before the driver checks
    # them; it must neither raise first nor hide the driver's error.  No
    # config spells a seed on two degrees, so the second degree (the seed's
    # own shifted by ``across``, on the seed's side of the radical or not) is
    # added where the CLI builds the seed
    if across is not None:
        def graded(params, n, coords):
            other = tuple(a + b for a, b in zip(n, across))
            return GradedVec(params, {tuple(n): coords, other: coords})
        monkeypatch.setattr("divalg.cli.graded", graded)
    path = write_config(tmp_path, "seeds.json", dict(Q_CLOSURE, seeds=seeds))
    assert main(["closure", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: closure: {message}" + (
        ": the closure takes seeds at one degree each" if across else "")]


@pytest.mark.parametrize("base, label", [
    (CLOSURE_W, "Bogus"), (CLOSURE_W, "GqFull"), (CLOSURE_W, "Class0"),
    (CLOSURE_W, "WPrime"), (CLOSURE_W, "WPrime(0)"), (CLOSURE_W, "WPrime(01)"),
    (CLOSURE_W, "WPrime(-1)"), (CLOSURE_W, "full"), (CLOSURE_W, "W "),
    (Q_CLOSURE, "Bogus"), (Q_CLOSURE, "W"), (Q_CLOSURE, "WPrime(1)"), (Q_CLOSURE, ""),
], ids=lambda x: x if isinstance(x, str) else x["algebra"])
def test_unknown_expect_label_exits_2_before_the_closure(tmp_path, capsys, monkeypatch,
                                                         base, label):
    # no classifier of the config's algebra gives the label, so the config is
    # malformed: exit 2, not a violation, and without running the closure
    monkeypatch.setattr("divalg.cli.closure", _no_closure)
    monkeypatch.setattr("divalg.cli.closure_q", _no_closure)
    path = write_config(tmp_path, "label.json", dict(base, expect_label=label))
    assert main(["closure", "--config", path]) == 2
    assert "error: expect_label:" in capsys.readouterr().err


@pytest.mark.parametrize("base, label", [
    (CLOSURE_W, "Full"), (CLOSURE_W, "W"), (CLOSURE_W, "WPrime(1)"),
    (CLOSURE_W, "WPrime(12)"), (CLOSURE_W, "Other"), (dict(CLOSURE_W, algebra="W"), "W"),
    (Q_CLOSURE, "Full"), (Q_CLOSURE, "GqFull"), (Q_CLOSURE, "Class0"), (Q_CLOSURE, "Other"),
    (dict(Q_CLOSURE, algebra="Lqhat"), "Class0"),
], ids=lambda x: x if isinstance(x, str) else x["algebra"])
def test_every_classifier_label_is_a_valid_expect_label(base, label):
    # a label some classifier gives passes validation; a mismatch is then a
    # mathematical outcome, exit 1, as in test_expect_label_mismatch_is_violation
    report, code = run(dict(base, expect_label=label), 0)
    assert code == (0 if report["details"]["label"] == label else 1)
    assert report["details"]["expect_label"] == label


def test_closure_of_a_verify_only_algebra_exits_2_naming_the_closure_algebras(tmp_path,
                                                                              capsys):
    # Der has verify jobs but no closure
    path = write_config(tmp_path, "der.json", dict(Q_CLOSURE, algebra="Der"))
    assert main(["closure", "--config", path]) == 2
    assert capsys.readouterr().err == ("error: algebra: no closure of algebra 'Der'; the "
                                       "closure algebras are W, Lhat, L, Lq, Lqhat\n")


class _Listed(Exception):
    pass


def _no_listing(self):
    raise _Listed("a box was listed")


CLOSURE_D3 = {"job": "closure", "algebra": "L", "d": 3, "alpha": ["1/2", "1/3", "0"],
              "rep": NAT_REP, "seeds": [{"n": [0, 0, 0], "coords": ["1", "0", "0"]}]}


@pytest.mark.parametrize("job, config, named", [
    ("closure", dict(CLOSURE_W, working_box=1000000), "working_box"),
    ("closure", dict(CLOSURE_W, working_box={"lo": [0, 0], "hi": [1000, 1000]}, target_box=0),
     "working_box"),
    ("closure", dict(CLOSURE_W, d=5, alpha=["1/2", "1/3", "1/5", "1/7", "1/11"],
                     rep={"kind": "exterior", "k": 2},
                     seeds=[{"n": [0] * 5, "coords": ["1"] + ["0"] * 9}], working_box=6),
     "working_box"),
    ("closure", dict(CLOSURE_W, gen_radius=1000000), "gen_radius"),
    ("closure", dict(Q_CLOSURE, gen_radius=1000000), "gen_radius"),
    ("closure", dict(Q_CLOSURE, working_box=100000), "working_box"),
    ("qtorus-info", {"job": "qtorus-info", "q": {"l": [2, 2]}, "sample_radius": 1000000},
     "sample_radius"),
    ("verify-algebra", {"job": "verify-algebra", "algebra": "L", "d": 12, "triples": 1},
     "degree_radius"),
    ("verify-module", {"job": "verify-module", "algebra": "L", "d": 12,
                       "alpha": ["0"] * 12, "rep": NAT_REP, "pairs": 1}, "d"),
    ("verify-module", {"job": "verify-module", "algebra": "Lq", "d": 12,
                       "alpha": ["0"] * 12, "rep": NAT_REP, "q": {"l": [2, 2] + [1] * 10},
                       "pairs": 1}, "d"),
    # boxes whose cell counts have thousands of digits, and a d at which
    # merely multiplying out the box's 5^d degrees takes seconds: the budget
    # stops at the first factor past it and formats no count
    ("verify-algebra", {"job": "verify-algebra", "algebra": "L", "d": 20000, "triples": 1},
     "degree_radius"),
    ("verify-algebra", {"job": "verify-algebra", "algebra": "L", "d": 200000, "triples": 1},
     "degree_radius"),
    ("closure", dict(CLOSURE_D3, working_box=10 ** 1500), "working_box"),
    ("closure", dict(CLOSURE_D3, gen_radius=10 ** 1500), "gen_radius"),
    ("qtorus-info", {"job": "qtorus-info", "q": {"l": [2, 2, 1]}, "sample_radius": 10 ** 1500},
     "sample_radius"),
])
def test_over_budget_config_exits_2_before_listing_a_box(tmp_path, capsys, monkeypatch,
                                                         job, config, named):
    # listing any box (or building a closure) raises at once, so a missing
    # guard fails here rather than allocating the box
    monkeypatch.setattr("divalg.closure.Box.degrees", _no_listing)
    monkeypatch.setattr("divalg.cli.closure", _no_closure)
    monkeypatch.setattr("divalg.cli.closure_q", _no_closure)
    path = write_config(tmp_path, "big.json", config)
    assert main([job, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and "budget" in err


RADIUS_0_ALGEBRA = {"job": "verify-algebra", "triples": 5, "degree_radius": 0}
RADIUS_0_MODULE = {"job": "verify-module", "d": 2, "alpha": ["1/2", "1/3"], "rep": NAT_REP,
                   "pairs": 5, "degree_radius": 0}
SUITES = ("lie_suite_classical", "d_basis_span_suite", "lemma_orthg_suite", "lie_suite_q",
          "module_suite_classical", "act_crosscheck_suite", "w_invariance_suite",
          "module_suite_q", "qtorus_suite", "equivariance_suite")


@pytest.mark.parametrize("job", ["verify-algebra", "verify-module"])
@pytest.mark.parametrize("algebra", ["L", "Lhat", "Der", "Lq", "Lqhat"])
def test_degree_radius_0_exits_2_unless_w(tmp_path, capsys, monkeypatch, job, algebra):
    # these algebras sample nonzero degrees, which the radius-0 box has none
    # of; every suite raises at once, so a missing guard fails here rather
    # than sampling forever
    for suite in SUITES:
        monkeypatch.setattr(f"divalg.verify.{suite}", _no_listing)
    config = dict(RADIUS_0_ALGEBRA if job == "verify-algebra" else RADIUS_0_MODULE,
                  algebra=algebra)
    config.update({"q": {"l": [2, 2]}} if algebra in ("Der", "Lq", "Lqhat") else
                  {} if job == "verify-module" else {"d": 2})
    path = write_config(tmp_path, "r0.json", config)
    assert main([job, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: degree_radius: must be at least 1, got 0\n"


@pytest.mark.parametrize("config", [dict(RADIUS_0_ALGEBRA, algebra="W", d=2),
                                    dict(RADIUS_0_MODULE, algebra="W")],
                         ids=["verify-algebra", "verify-module"])
def test_degree_radius_0_runs_under_w(config):
    report, code = run(config, 0)
    assert code == 0 and report["outcome"] == "pass"


def _no_labels(*args):
    raise _Listed("rep labels were built")


SYM_BIG = {"kind": "symmetric", "m": 100000}


@pytest.mark.parametrize("config, named", [
    (dict(CLOSURE_W, rep=SYM_BIG), "rep: m"),
    (dict(CLOSURE_W, rep={"kind": "tensor", "factors": [NAT_REP, SYM_BIG]}),
     "rep: factors[1].m"),
    (dict(CLOSURE_W, rep={"kind": "twisted", "l": [1, 2], "inner": SYM_BIG}), "rep: inner.m"),
    # two factors of 1,001 x 1,000 cells each fit; their 1,002,001 two-entry labels do not
    (dict(CLOSURE_W, rep={"kind": "tensor", "factors": [{"kind": "symmetric", "m": 1000}] * 2}),
     "rep: factors"),
    (dict(CLOSURE_W, rep={"kind": "symmetric", "m": 10 ** 18}), "rep: m"),
    ({"job": "verify-module", "algebra": "L", "d": 40, "alpha": ["0"] * 40,
      "rep": {"kind": "exterior", "k": 20}}, "rep: k"),
], ids=["symmetric", "tensor-factor", "twisted-inner", "tensor-product", "symmetric-huge-m",
        "exterior"])
def test_oversized_rep_exits_2_before_building_its_labels(tmp_path, capsys, monkeypatch,
                                                          config, named):
    # building any label list raises at once, so a missing guard fails here
    # rather than allocating the labels
    for builder in ("combinations", "combinations_with_replacement", "product"):
        monkeypatch.setattr(f"divalg.reps.{builder}", _no_labels)
    monkeypatch.setattr("divalg.cli.closure", _no_closure)
    path = write_config(tmp_path, "big.json", config)
    assert main([config["job"], "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and "budget" in err


D5 = {"job": "closure", "algebra": "L", "d": 5, "alpha": ["1/2", "1/3", "1/5", "1/7", "1/11"],
      "seeds": [{"n": [0] * 5, "coords": ["1"] + ["0"] * 9}], "gen_radius": 1,
      "working_box": 3, "target_box": 1, "rep": {"kind": "exterior", "k": 2}}


@pytest.mark.parametrize("config", [
    D5,  # 16,807 degrees x 10 coordinates
    dict(D5, d=4, alpha=D5["alpha"][:4], seeds=[{"n": [0] * 4, "coords": ["1"] + ["0"] * 5}],
         gen_radius=2),
    dict(D5, working_box=4),
    dict(CLOSURE_W, working_box=300, gen_radius=5, target_box=0),
], ids=["d5-k2-box3", "d4-k2-radius2", "d5-k2-box4", "d2-box300"])
def test_budget_admits_the_large_closures(monkeypatch, config):
    # the guard passes them on to the closure, which is stubbed out here
    monkeypatch.setattr("divalg.cli.closure", _no_closure)
    with pytest.raises(AssertionError, match="the closure ran"):
        run(config, 0)


def _no_span_state(*args):
    raise AssertionError("a span state was built")


def test_rep_over_the_annihilator_budget_exits_2(tmp_path, capsys, monkeypatch):
    # each fiber of a closure starts from a dim x dim annihilator; exterior
    # k = 4 at d = 40 (dim 91,390) passes the label budget and a one-degree
    # working box, but one such identity would hold 8.4e9 entries
    monkeypatch.setattr("divalg.closure.SpanState", _no_span_state)
    d, dim = 40, 91390
    config = {"job": "closure", "algebra": "L", "d": d, "alpha": ["1/2"] * d,
              "rep": {"kind": "exterior", "k": 4},
              "seeds": [{"n": [0] * d, "coords": ["1"] + ["0"] * (dim - 1)}],
              "gen_radius": 0, "working_box": 0, "target_box": 0}
    path = write_config(tmp_path, "d40.json", config)
    assert main(["closure", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rep: ") and "budget" in err


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


# sha256 of report_json for fixed configs: a refactor must leave every report
# byte-identical.  The GqFull q closures take qder.off_radical_closure, whose
# iterations count its rounds in V (2 each; the engine takes 4, 4 and 5)
NAT = {"kind": "natural"}
BOXES = {"schema_version": "1", "gen_radius": 2, "working_box": 3, "target_box": 1,
         "max_iters": 50}
GOLDEN = [
    ("L-W", dict(CLOSURE_W, expect_label="W"),
     "4aea63db0d94cd840027754fe0bba6a1dc897b6f4eae1ab8087c24065fae8a1a"),
    ("L-Full", dict(BOXES, job="closure", algebra="L", d=2, alpha=["1/3", "1/5"], rep=NAT,
                    seeds=[{"n": [0, 0], "coords": ["0", "1"]}]),
     "e590ef300c4930bde17bdf4cb9ac7ce5f7cfc7811329d569cbf29c9aef0d3d23"),
    ("L-WPrime", dict(BOXES, job="closure", algebra="L", d=2, alpha=["1", "-2"], rep=NAT,
                      seeds=[{"n": [-1, 2], "coords": ["2", "3"]}],
                      working_box={"lo": [-4, -1], "hi": [2, 5]},
                      target_box={"lo": [-2, 1], "hi": [0, 3]}),
     "456890cb1f6833e2935abce79ea8e0474656b768c2d099aa2d68332c3d12081b"),
    ("Lq-22-GqFull", dict(BOXES, job="closure", algebra="Lq", d=2, alpha=["1/2", "1/3"],
                          rep=NAT, q={"l": [2, 2]}, seeds=[{"n": [1, 0], "coords": ["1", "0"]}]),
     "908d5462caf7af033a2263b469d07b21fb57ab194aaab3fbc3c30f5f318fde59"),
    ("Lqhat-22-Class0", dict(BOXES, job="closure", algebra="Lqhat", d=2, alpha=["1/2", "1/3"],
                             rep=NAT, q={"l": [2, 2]},
                             seeds=[{"n": [0, 0], "coords": ["1", "0"]}]),
     "d0877da29f9237563582985140d043009eb9bb3dc9eac760968b785176274f96"),
    ("Lq-33-GqFull", dict(BOXES, job="closure", algebra="Lq", d=2, alpha=["1/2", "1/3"],
                          rep=NAT, q={"l": [3, 3]}, gen_radius=3,
                          seeds=[{"n": [1, 2], "coords": ["1", "-1"]}]),
     "930b95f3265c13ab43e1117fb5468844cd19b44d9ee19ffc3c9fdcb7c4e09ac8"),
    ("Lhat-seeds-on-two-degrees", dict(BOXES, job="closure", algebra="Lhat", d=2,
                                       alpha=["1", "-2"], rep=NAT,
                                       seeds=[{"n": [-1, 2], "coords": ["0", "1"]},
                                              {"n": [0, 1], "coords": ["1", "1"]}]),
     "6febc3275c7bd0f4bdaeff61d976d465a53f6f8fbe80d30471651ce0970083a1"),
    # a q whose coordinates all anticommute: sigma is not 1 on its radical,
    # so the outer generators act through sigma-twisted fiber maps
    ("Lq-anticommuting-GqFull", {"job": "closure", "algebra": "Lq", "d": 3,
                                 "alpha": ["1/2", "1/3", "0"], "rep": NAT,
                                 "q": {"N": 2, "exps": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
                                 "seeds": [{"n": [1, 0, 0], "coords": ["1", "0", "0"]}],
                                 "gen_radius": 1, "working_box": 2, "target_box": 1,
                                 "expect_label": "GqFull"},
     "4c0f49d7d877aff4e2df5391988658998fb45cdc7d4287e75a9351332b4ae38c"),
    # the Witt algebra W itself: d generators per shift, with the zero shift
    # (the degree derivations) in the middle of the list
    ("W-Full", dict(BOXES, job="closure", algebra="W", d=2, alpha=["1/3", "1/5"], rep=NAT,
                    seeds=[{"n": [0, 0], "coords": ["0", "1"]}], expect_label="Full"),
     "bd3958fd512bbdb529c759be546609b181a7c8747a003e61ad81869bc410a619"),
    ("readme-verify-module", {"job": "verify-module", "algebra": "Lq", "d": 2,
                              "alpha": ["1/2", "1/3"], "rep": NAT, "q": {"l": [2, 2]},
                              "pairs": 200},
     "55cc9ae3338acc3c0e0b382217c59fe4cd96efbfdc2488850736e3cc2e3226f9"),
    # the verify paths: classical and q Lie suites, the wedge-invariance suite
    # at k = 2, and the q module suites with the equivariance suite
    ("verify-algebra-L-d3", {"job": "verify-algebra", "algebra": "L", "d": 3, "triples": 50},
     "05a9e6abdaeca9799a5b11b2234f435be1bab6195d36ef37cb1d8762f133afca"),
    ("verify-algebra-Lqhat-33", {"job": "verify-algebra", "algebra": "Lqhat",
                                 "q": {"l": [3, 3]}, "triples": 50},
     "9a71ff7a75aa097de8f1aff2bab4ebf51ef5d842dc333ed8c60bc8eb01d85453"),
    ("verify-module-L-d3-wedge2", {"job": "verify-module", "algebra": "L", "d": 3,
                                   "alpha": ["1/2", "1/3", "1/5"],
                                   "rep": {"kind": "exterior", "k": 2}, "pairs": 50},
     "40b127b16fbb8baf11a24694cc508abb41ea545e9cec7e98fa9cdde9a3276e5f"),
    ("verify-module-Der-22", {"job": "verify-module", "algebra": "Der", "d": 2,
                              "alpha": ["1/2", "1/3"], "rep": NAT, "q": {"l": [2, 2]},
                              "pairs": 50},
     "8b34783fedbf2146e8727f391d497e4e1e1bf24733911b408abe907af31f9bf6"),
    ("verify-module-Der-33", {"job": "verify-module", "algebra": "Der", "d": 2,
                              "alpha": ["1/2", "1/3"], "rep": NAT, "q": {"l": [3, 3]},
                              "pairs": 50},
     "c5e978688ba9c57b883ded4ff752bc76e104a9ae0a8ac80aac5c0a4167830028"),
    ("verify-module-Lqhat-22", {"job": "verify-module", "algebra": "Lqhat", "d": 2,
                                "alpha": ["1/2", "1/3"], "rep": NAT, "q": {"l": [2, 2]},
                                "pairs": 50},
     "6d09928adfd2079cd961da464251e06bee5cd2cefab58eddac03670e568dc83f"),
    ("verify-module-Lqhat-33", {"job": "verify-module", "algebra": "Lqhat", "d": 2,
                                "alpha": ["1/2", "1/3"], "rep": NAT, "q": {"l": [3, 3]},
                                "pairs": 50},
     "e82926c16b99a19cc8a134524254bdd57fa188d47a45911555bd766db33f3287"),
]


@pytest.mark.parametrize("config, digest", [(c, h) for _, c, h in GOLDEN],
                         ids=[name for name, _, _ in GOLDEN])
def test_report_golden_bytes(config, digest):
    report, code = run(json.loads(json.dumps(config)), 0)
    assert code == 0
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", [n for n, c, _ in GOLDEN if c["job"] == "closure"])
def test_golden_closure_fibers_match_plain_elimination(name, plain_extraction, q_engine):
    # a fiber of dim rows is read off as the identity, every other fiber is
    # eliminated; both must give basis_of of the fiber's rows.  The q
    # closures run on the engine, whose fibers extract_fibers reads
    config = next(c for n, c, _ in GOLDEN if n == name)
    _, code = run(json.loads(json.dumps(config)), 0)
    assert code == 0 and plain_extraction["fibers"]


# machine-independent work of each golden closure on the engine (the q
# closures through the q_engine fixture): generator applications (block_apply
# calls), SpanState.insert calls, inserts accepted, saturation rounds and final
# rank.  A change to the engine that keeps the report bytes must keep these
# too, or say why the work moved.  L-W's seed lies in the wedge submodule W, so
# each fiber is full once it holds its W fiber and no generator is applied into
# it afterwards.  A q closure's seeds lie on one side of the radical, and each
# fiber on the other side is full from the start (qder.radical_bound).
# "-unbounded" runs a closure with both bounds off (closure.w_bound and
# qder.radical_bound return None), the plain path.  A graded frontier carries
# each accepted image as it stands, not reduced against the span; the span
# after each round is the same, but a raw image's images vanish identically
# (block_apply returns None, and no insert is made) a little more often than a
# reduced row's.  The Lhat and Lqhat families hold no degree derivation, whose
# images are scalar multiples of the row they act on.
WORK = {
    "L-W": (52, 49, 49, 3, 49),
    "L-W-unbounded": (792, 759, 49, 3, 49),
    "L-Full": (123, 124, 98, 4, 98),
    "L-WPrime": (792, 713, 49, 3, 49),
    "Lq-22-GqFull": (103, 104, 80, 4, 80),
    "Lq-22-GqFull-unbounded": (343, 104, 80, 4, 80),
    "Lqhat-22-Class0": (25, 26, 18, 4, 18),
    "Lqhat-22-Class0-unbounded": (265, 26, 18, 4, 18),
    "Lq-33-GqFull": (169, 157, 80, 4, 80),
    "Lq-33-GqFull-unbounded": (521, 157, 80, 4, 80),
    "Lhat-seeds-on-two-degrees": (169, 156, 98, 3, 98),
    "Lq-anticommuting-GqFull": (670, 671, 270, 5, 270),
    "Lq-anticommuting-GqFull-unbounded": (1858, 671, 270, 5, 270),
    "W-Full": (110, 111, 98, 3, 98),
}


@pytest.fixture
def work_counters(monkeypatch):
    """Count the closure engine's work by wrapping it from outside, the way
    perfbench/tracing.py does: each generator's block_apply once the family is
    built, SpanState.insert, and saturate's rounds and final rank."""
    import divalg.closure as closure_mod
    import divalg.qder as qder_mod

    counts = {"apply": 0, "insert": 0, "accepted": 0, "rounds": 0, "rank": 0}

    def counted_family(make):
        def family(*args, **kwargs):
            gens = make(*args, **kwargs)
            for gen in gens:
                def block_apply(n, w, inner=gen.block_apply):
                    counts["apply"] += 1
                    return inner(n, w)
                gen.block_apply = block_apply
            return gens
        return family

    insert = closure_mod.SpanState.insert

    def counted_insert(self, i, w):
        counts["insert"] += 1
        row = insert(self, i, w)
        counts["accepted"] += row is not None
        return row

    saturate = closure_mod.saturate

    def counted_saturate(state, *args):
        rounds, saturated = saturate(state, *args)
        counts["rounds"] += rounds
        counts["rank"] += state.rank()
        return rounds, saturated

    monkeypatch.setattr(closure_mod, "classical_generators",
                        counted_family(closure_mod.classical_generators))
    monkeypatch.setattr(qder_mod, "qder_generators", counted_family(qder_mod.qder_generators))
    monkeypatch.setattr(closure_mod.SpanState, "insert", counted_insert)
    monkeypatch.setattr(closure_mod, "saturate", counted_saturate)
    return counts


@pytest.mark.parametrize("name", list(WORK))
def test_golden_closure_work_counters(name, work_counters, monkeypatch, q_engine):
    golden = name.removesuffix("-unbounded")
    if golden != name:
        import divalg.closure as closure_mod
        import divalg.qder as qder_mod
        monkeypatch.setattr(closure_mod, "w_bound", lambda params, seeds: None)
        monkeypatch.setattr(qder_mod, "radical_bound", lambda q, params, seeds: None)
    config = next(c for n, c, _ in GOLDEN if n == golden)
    _, code = run(json.loads(json.dumps(config)), 0)
    assert code == 0
    got = tuple(work_counters[k] for k in ("apply", "insert", "accepted", "rounds", "rank"))
    assert got == WORK[name]


@pytest.mark.parametrize("name", ["Lq-22-GqFull", "Lq-33-GqFull", "Lq-anticommuting-GqFull"])
def test_graded_q_closures_stay_on_integer_rows(name, monkeypatch, q_engine):
    # every q generator acts on a fiber as a scalar times a plain map; on
    # the single-block rows of graded seeds the engine leaves the scalar out,
    # so neither an image nor an accepted row holds a cyclotomic entry
    import divalg.closure as closure_mod
    from divalg.scalars import Cyc
    insert = closure_mod.SpanState.insert
    inserted, accepted = [], []

    def recorded_insert(self, i, w):
        inserted.append((i, w))
        row = insert(self, i, w)
        if row is not None:
            accepted.append(row)
        return row

    monkeypatch.setattr(closure_mod.SpanState, "insert", recorded_insert)
    config = next(c for n, c, _ in GOLDEN if n == name)
    _, code = run(json.loads(json.dumps(config)), 0)
    assert code == 0 and accepted
    for rows in (inserted, accepted):
        assert not any(isinstance(x, Cyc) for _, w in rows for x in w)
