"""Command-line contract: exit codes, the single-line stderr error format,
deterministic byte-identical reports in both encodings, flag overrides,
and the suite runner."""

import contextlib
import copy
import hashlib
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charplab.cli as cli
from charplab import TimeLimitError, perturb
from charplab.jobs import check_expectations

SUITE = os.path.join(os.path.dirname(__file__), os.pardir, "paper-suite")
# sha256 of every `run-suite paper-suite --out-dir` artifact, in
# `sha256sum` format; regenerate only for an intended change of output
DIGESTS = os.path.join(os.path.dirname(__file__), "data",
                       "suite_artifacts.sha256")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def job_path(name):
    return os.path.join(SUITE, name)


def write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- happy path --------------------------------------------------------------------


def test_task_reports_json_to_stdout(capsys):
    code, out, err = run(capsys, "length", "--job",
                         job_path("06-length-quadric-13.json"))
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["artifact_version"] == "1.0.0"
    assert doc["task"] == "length"
    assert doc["result"]["value"] == 13


def test_reruns_are_byte_identical(capsys):
    args = ("hk", "--job", job_path("14-hk-quadric-f3.json"))
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0
    csv_first = run(capsys, *args, "--format", "csv")
    csv_second = run(capsys, *args, "--format", "csv")
    assert csv_first == csv_second


def test_out_flag_writes_the_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "length", "--job",
                         job_path("06-length-quadric-13.json"),
                         "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert json.loads(target.read_text())["result"]["value"] == 13


# -- CSV shapes ---------------------------------------------------------------------


@pytest.mark.parametrize("job,header", [
    ("14-hk-quadric-f3.json",
     "e,q,length,normalized_num,normalized_den"),
    ("39-fsig-cone-f5.json",
     "e,q,a_e,normalized_num,normalized_den"),
    ("17-fpt-cusp-f7.json",
     "e,q,nu,lower_num,lower_den,upper_num,upper_den"),
    ("30-perturb-constancy-node.json",
     "sample,epsilon,e,base,perturbed,delta_num,delta_den,verdict"),
    ("26-disc-congruence-quintic.json",
     "base,perturbed,order,n_target,verdict"),
    ("06-length-quadric-13.json", "value"),
])
def test_csv_headers_are_fixed_per_task(capsys, tmp_path, job, header):
    task = {"hk": "hk", "fsig": "fsig", "fpt": "fpt", "perturb": "perturb",
            "disc": "disc", "length": "length"}[job.split("-")[1]]
    target = tmp_path / "report.csv"
    code, out, err = run(capsys, task, "--job", job_path(job),
                         "--format", "csv", "--out", str(target))
    assert code == 0, err
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == header
    assert text.endswith("\n") and "\r" not in text


def test_empty_basis_renders_a_header_only_table(capsys):
    code, out, err = run(capsys, "gb", "--job",
                         job_path("03-gb-zero-ideal.json"),
                         "--format", "csv")
    assert code == 0
    assert out == "index,polynomial\n"


def test_length_csv_is_a_single_value_cell(capsys):
    code, out, err = run(capsys, "length", "--job",
                         job_path("06-length-quadric-13.json"),
                         "--format", "csv")
    assert code == 0
    assert out == "value\n13\n"


# -- overrides ---------------------------------------------------------------------


def test_emax_override_changes_the_row_count(capsys):
    code, out, _ = run(capsys, "hk", "--job",
                       job_path("14-hk-quadric-f3.json"))
    assert code == 0
    assert len(json.loads(out)["result"]["series"]["rows"]) == 2
    code, out, _ = run(capsys, "hk", "--job",
                       job_path("14-hk-quadric-f3.json"), "--emax", "3")
    assert code == 0
    rows = json.loads(out)["result"]["series"]["rows"]
    assert [r["length"] for r in rows] == [13, 121, 1093]


def test_seed_override_changes_sampled_epsilons(capsys):
    args = ("perturb", "--job", job_path("30-perturb-constancy-node.json"))
    base = run(capsys, *args)
    reseeded = run(capsys, *args, "--seed", "999")
    assert base[0] == reseeded[0] == 0
    eps = lambda out: [r["epsilon"]
                       for r in json.loads(out)["result"]["rows"]]
    assert eps(base[1]) != eps(reseeded[1])


@pytest.mark.parametrize("flags,message", [
    (("--limit-basis", "0"),
     "bad job: limits: max_basis must be an integer >= 1, got 0"),
    (("--limit-degree", "0"),
     "bad job: limits: max_degree must be an integer >= 1, got 0"),
    (("--emax", "1"), "e_max must be an integer >= 2, got 1"),
    (("--seed", "-1"), "bad job: unknown params key(s): seed"),
], ids=[
    # Ids name the rule each flag breaks, so they stay fixed when the
    # wording of the message changes.
    "flags0-limits.basis must be >= 1",
    "flags1-limits.degree must be >= 1",
    "flags2-params.e_max must be >= 2",
    "flags3-unknown params key(s): seed",
])
def test_override_flags_are_checked_like_job_values(capsys, flags, message):
    code, out, err = run(capsys, "hk", "--job",
                         job_path("14-hk-quadric-f3.json"), *flags)
    assert code == 1 and out == ""
    assert err == f"error: input: {message}\n"


# -- failure surfaces ---------------------------------------------------------------


def test_task_subcommand_mismatch_is_an_input_error(capsys):
    code, out, err = run(capsys, "hk", "--job",
                         job_path("06-length-quadric-13.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: input: ")
    assert err.count("\n") == 1


def test_unknown_job_key_is_an_input_error(capsys, tmp_path):
    path = write_job(tmp_path, "bad.json", {
        "field": {"p": 3}, "variables": ["x"], "defining": [],
        "task": "length", "wobble": 1,
    })
    code, _, err = run(capsys, "length", "--job", path)
    assert code == 1 and err.startswith("error: input: ")


def test_malformed_json_and_missing_files_are_input_errors(capsys, tmp_path):
    path = tmp_path / "broken.json"
    for content in (b"{",
                    b"\xff\xfe{",                              # not UTF-8
                    b'{"field": {"p": ' + b"9" * 5000 + b"}}",  # > int digits
                    b"[" * 100000 + b"]" * 100000):             # too deep
        path.write_bytes(content)
        code, _, err = run(capsys, "length", "--job", str(path))
        assert code == 1 and err.startswith("error: input: ")
        assert err.count("\n") == 1
    code, _, err = run(capsys, "length", "--job",
                       str(tmp_path / "absent.json"))
    assert code == 1 and err.startswith("error: input: ")


# -- mutated jobs ------------------------------------------------------------------

SHIPPED = sorted(n for n in os.listdir(SUITE) if n.endswith(".json"))
# Only small JSON values replace a shipped value: no large e_max, N, prime or
# exponent, so every mutated job stays about as cheap as the job it came from
# and 500 examples run in seconds.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 5), st.just(0.5),
    st.sampled_from(["", "x", "z", "lex", "x^2 + y", "x*y + t^2", "z^2 - u"]))
SMALL_JSON = st.one_of(
    _SCALARS, st.just([]), st.just({}),
    st.lists(_SCALARS, min_size=1, max_size=1),
    st.dictionaries(st.sampled_from(["p", "x", "e_max"]), _SCALARS,
                    min_size=1, max_size=1))
ERROR_LINE = re.compile(r"error: (input|limit): [^\n]*\n")


def _value_paths(node, prefix=()):
    """Paths to every value of a job document, `expect` excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if not (prefix == () and key == "expect"):
            yield prefix + (key,)
            yield from _value_paths(child, prefix + (key,))


def _shipped(name):
    with open(job_path(name), encoding="utf-8") as fh:
        return json.load(fh)


_SHIPPED_DOCS = {name: _shipped(name) for name in SHIPPED}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_jobs_exit_cleanly(tmp_path_factory, data):
    name = data.draw(st.sampled_from(SHIPPED))
    doc = copy.deepcopy(_SHIPPED_DOCS[name])
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(SMALL_JSON)
    target = tmp_path_factory.mktemp("mutated") / name
    target.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([_SHIPPED_DOCS[name]["task"], "--job", str(target)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert ERROR_LINE.fullmatch(err.getvalue()), err.getvalue()


@pytest.mark.parametrize("job,params,message", [
    ("23-disc-quadratic.json", {"n_target": 0.5},
     "bad job: params.n_target needs params.epsilon"),
    # PerturbationPlan's own mode rule rejects relation and n_target
    ("30-perturb-constancy-node.json", {"relation": "z^2 - x"},
     "extension and n_target need mode dis-congruence"),
    ("30-perturb-constancy-node.json", {"n_target": 3},
     "extension and n_target need mode dis-congruence"),
    ("30-perturb-constancy-node.json", {"extension_variable": "z"},
     "bad job: params.extension_variable needs params.relation"),
    ("20-mult-line-squared.json", {"generator_names": ["a"]},
     "bad job: params.generator_names needs a subalgebra block"),
], ids=["disc-n_target", "perturb-relation", "perturb-n_target",
        "perturb-extension_variable", "mult-generator_names"])
def test_a_parameter_the_job_does_not_read_is_an_input_error(
        capsys, tmp_path, job, params, message):
    doc = _shipped(job)
    doc["params"] = {**doc.get("params", {}), **params}
    code, out, err = run(capsys, doc["task"], "--job",
                         write_job(tmp_path, job, doc))
    assert code == 1 and out == ""
    assert err == f"error: input: {message}\n"


@pytest.mark.parametrize("job,params,message", [
    ("35-perturb-dis-congruence.json", {"targets": ["u"]},
     "dis-congruence takes no targets"),
    ("35-perturb-dis-congruence.json", {"tolerance": 3},
     "tolerance needs mode hk-continuity or fsig-continuity"),
    ("27-perturb-sop-quadric.json", {"tolerance": [1, 2]},
     "tolerance needs mode hk-continuity or fsig-continuity"),
], ids=["dis-targets", "dis-tolerance", "sop-tolerance"])
def test_a_plan_field_the_mode_does_not_read_is_an_input_error(
        capsys, tmp_path, job, params, message):
    doc = _shipped(job)
    doc["params"] = {**doc["params"], **params}
    code, out, err = run(capsys, "perturb", "--job",
                         write_job(tmp_path, job, doc))
    assert code == 1 and out == ""
    assert err == f"error: input: {message}\n"


# every parameter a task accepts, given one bad value in a shipped job
BAD_PARAMS = [
    ("01-gb-twisted-cubic-lex.json", "order", "deglex"),
    ("14-hk-quadric-f3.json", "e_max", 1),
    ("39-fsig-cone-f5.json", "e_max", "2"),
    ("17-fpt-cusp-f7.json", "e_max", 0),
    ("17-fpt-cusp-f7.json", "target", 5),
    ("22-mult-toric-surface.json", "generator_names", "a"),
    ("10-present-power-pair.json", "generator_names", ["a", 5]),
    ("23-disc-quadratic.json", "extension_variable", 5),
    ("26-disc-congruence-quintic.json", "epsilon", 5),
    ("26-disc-congruence-quintic.json", "n_target", 0),
    ("30-perturb-constancy-node.json", "mode", "constancy"),
    ("30-perturb-constancy-node.json", "targets", "x"),
    ("30-perturb-constancy-node.json", "N", 0),
    ("30-perturb-constancy-node.json", "degree_cap", 6),
    ("30-perturb-constancy-node.json", "samples", 0),
    ("30-perturb-constancy-node.json", "seed", -1),
    ("30-perturb-constancy-node.json", "e_range", "1,2"),
    ("32-perturb-hk-invisible.json", "tolerance", "1/2"),
    ("35-perturb-dis-congruence.json", "relation", 5),
    ("35-perturb-dis-congruence.json", "extension_variable", 5),
    ("35-perturb-dis-congruence.json", "n_target", 0),
]


@pytest.mark.parametrize("job,key,value", BAD_PARAMS,
                         ids=[f"{job[:2]}-{key}" for job, key, _ in BAD_PARAMS])
def test_every_parameter_is_checked(capsys, tmp_path, job, key, value):
    doc = _shipped(job)
    doc["params"] = {**doc.get("params", {}), key: value}
    code, out, err = run(capsys, doc["task"], "--job",
                         write_job(tmp_path, job, doc))
    assert code == 1 and out == ""
    assert ERROR_LINE.fullmatch(err) and err.startswith("error: input: "), err
    assert re.search(rf"\b{key}\b", err), err


@pytest.mark.parametrize("tolerance,echo", [
    (1, {"num": 1, "den": 1}),
    ([1, 3], {"num": 1, "den": 3}),
], ids=["integer", "pair"])
def test_a_tolerance_is_echoed_in_the_reproducibility_block(
        capsys, tmp_path, tolerance, echo):
    doc = _shipped("32-perturb-hk-invisible.json")
    doc["params"]["tolerance"] = tolerance
    code, out, err = run(capsys, "perturb", "--job",
                         write_job(tmp_path, "tolerance.json", doc))
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["reproducibility"]["tolerance"] == echo


@pytest.mark.parametrize("tolerance", [[1, 0], True, -1],
                         ids=["zero-denominator", "boolean", "negative"])
def test_a_bad_tolerance_is_an_input_error(capsys, tmp_path, tolerance):
    doc = _shipped("32-perturb-hk-invisible.json")
    doc["params"]["tolerance"] = tolerance
    code, out, err = run(capsys, "perturb", "--job",
                         write_job(tmp_path, "tolerance.json", doc))
    assert code == 1 and out == ""
    assert err.startswith("error: input: ") and "tolerance" in err


_SECONDS_RULE = "max_seconds must be an int or a float, finite and >= 0"


@pytest.mark.parametrize("section,value,message", [
    ("field", {"p": 1}, "characteristic must be a prime, got 1"),
    ("field", {"p": 4}, "characteristic must be a prime, got 4"),
    ("field", {"p": 3, "m": 0},
     "extension degree must be an integer >= 1, got 0"),
    ("field", {"p": 3, "m": 2, "modulus": 5}, "modulus must be a list, got 5"),
    ("field", {"p": 3, "m": 2, "modulus": [1, 0, 0]},
     "modulus must be monic"),
    ("field", {"p": 3, "m": 2, "modulus": None},
     "modulus must be a list, got None"),
    ("limits", {"basis": 0}, "max_basis must be an integer >= 1, got 0"),
    ("limits", {"seconds": True}, _SECONDS_RULE),
    ("limits", {"seconds": "5"}, _SECONDS_RULE),
    ("limits", {"seconds": -1}, _SECONDS_RULE),
], ids=["p-1", "p-4", "m-0", "modulus-5", "modulus-not-monic",
        "modulus-null", "basis-0", "seconds-true", "seconds-string",
        "seconds-negative"])
def test_field_and_limits_values_are_checked_by_field_and_limits(
        capsys, tmp_path, section, value, message):
    doc = _shipped("06-length-quadric-13.json")
    doc[section] = value
    code, out, err = run(capsys, "length", "--job",
                         write_job(tmp_path, "bad.json", doc))
    assert code == 1 and out == ""
    assert err == f"error: input: bad job: {section}: {message}\n"


def test_exhausted_limits_exit_with_code_two(capsys):
    code, out, err = run(capsys, "length", "--job",
                         job_path("06-length-quadric-13.json"),
                         "--limit-basis", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: limit: ")


def fsig_job_with_seconds(tmp_path, seconds):
    with open(job_path("39-fsig-cone-f5.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["limits"] = {"seconds": seconds}
    return write_job(tmp_path, "limited.json", doc)


def test_seconds_limit_bounds_each_basis_computation(capsys, tmp_path):
    code, out, err = run(capsys, "fsig", "--job",
                         fsig_job_with_seconds(tmp_path, 0.0001))
    assert code == 2 and out == ""
    assert err.startswith("error: limit: ")


@pytest.mark.parametrize("seconds", [-5, float("nan"), float("inf"),
                                     10 ** 400])
def test_bad_seconds_limits_are_input_errors(capsys, tmp_path, seconds):
    code, out, err = run(capsys, "fsig", "--job",
                         fsig_job_with_seconds(tmp_path, seconds))
    assert code == 1 and out == ""
    assert err.startswith("error: input: bad job: limits: max_seconds ")


def test_a_timed_out_perturbation_sample_exits_with_code_two(capsys,
                                                            monkeypatch):
    real = perturb.splitting_series
    calls = []

    def slow_after_base(pres, e_max):
        calls.append(e_max)
        if len(calls) == 2:
            raise TimeLimitError("time limit exceeded in basis computation")
        return real(pres, e_max)

    monkeypatch.setattr(perturb, "splitting_series", slow_after_base)
    code, out, err = run(capsys, "perturb", "--job",
                         job_path("30-perturb-constancy-node.json"))
    # the base series succeeded; the first sample's timeout ends the job
    # instead of grading the sample as a failure
    assert len(calls) == 2
    assert code == 2 and out == ""
    assert err == "error: limit: time limit exceeded in basis computation\n"


@pytest.mark.parametrize("argv", [
    ("hk",),
    ("hk", "--job", job_path("14-hk-quadric-f3.json"), "--emax", "x"),
    ("wobble",),
], ids=["missing-job", "non-integer-flag", "unknown-subcommand"])
def test_usage_errors_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert ERROR_LINE.fullmatch(err) and err.startswith("error: input: "), err


def test_help_exits_with_code_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["hk", "--help"])
    assert stop.value.code == 0
    assert "--job" in capsys.readouterr().out


def test_non_ascii_polynomial_text_is_an_input_error(capsys, tmp_path):
    doc = _shipped("06-length-quadric-13.json")
    doc["defining"][1] = "x^\u00b2"
    code, out, err = run(capsys, "length", "--job",
                         write_job(tmp_path, "superscript.json", doc))
    assert code == 1 and out == ""
    assert ERROR_LINE.fullmatch(err) and err.startswith("error: input: "), err


def test_unexpected_exceptions_exit_with_code_three(capsys, monkeypatch):
    def boom(job):
        raise ValueError("wires\ncrossed")
    monkeypatch.setattr(cli, "run_job", boom)
    code, out, err = run(capsys, "length", "--job",
                         job_path("06-length-quadric-13.json"))
    assert code == 3 and out == ""
    # the stderr line is single-line even when the message was not
    assert err == "error: internal: wires crossed\n"


# -- the suite runner ---------------------------------------------------------------


def test_run_suite_passes_the_shipped_jobs(capsys):
    code, out, err = run(capsys, "run-suite", SUITE)
    assert code == 0, out + err
    lines = out.splitlines()
    assert lines[-1] == "40/40 jobs passed"
    assert all(line.startswith("ok   ") for line in lines[:-1])


def test_run_suite_writes_byte_identical_artifacts(capsys, tmp_path):
    def collect(sub):
        out_dir = tmp_path / sub
        code, _, _ = run(capsys, "run-suite", SUITE, "--out-dir",
                         str(out_dir))
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    first = collect("a")
    second = collect("b")
    assert set(first) == set(second) and len(first) == 80
    assert first == second
    assert "06-length-quadric-13.csv" in first
    assert first["06-length-quadric-13.csv"] == b"value\n13\n"


def test_run_suite_artifacts_match_the_recorded_digests(capsys, tmp_path):
    code, _, _ = run(capsys, "run-suite", SUITE, "--out-dir", str(tmp_path))
    assert code == 0
    with open(DIGESTS, encoding="utf-8") as fh:
        want = dict(reversed(line.split()) for line in fh if line.strip())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert len(want) == 80
    assert got == want


def test_run_suite_reports_expectation_mismatches(capsys, tmp_path):
    doc = json.loads(
        open(job_path("06-length-quadric-13.json"), encoding="utf-8").read())
    doc["expect"] = {"result.value": 14, "result.missing": 1}
    write_job(tmp_path, "off.json", doc)
    code, out, err = run(capsys, "run-suite", str(tmp_path))
    assert code == 1
    assert "FAIL off.json" in out
    assert "expected 14, got 13" in out
    assert "result.missing: path not found" in out
    assert out.splitlines()[-1] == "0/1 jobs passed"


# each path with the element that int() would read it as
@pytest.mark.parametrize("path,element", [
    ("a.-1", 10), ("a. 1", 1), ("a.+1", 1), ("a.1_0", 10), ("a.11", None),
    ("a.x", None), ("a." + "9" * 5000, None),
], ids=["minus", "space", "plus", "underscore", "past-the-end", "name",
        "past-the-digit-limit"])
def test_a_list_index_in_an_expectation_is_a_digit_run(path, element):
    doc = json.dumps({"a": list(range(11))})
    assert check_expectations(doc, {path: element}) == \
        [f"{path}: path not found"]
    assert check_expectations(doc, {"a.10": 10, "a.01": 1}) == []


def test_an_output_directory_that_cannot_be_made_is_an_input_error(
        capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "run-suite", SUITE, "--out-dir",
                         str(blocker))
    assert code == 1 and out == ""
    assert ERROR_LINE.fullmatch(err), err
    assert err.startswith(f"error: input: cannot write {blocker}: "), err


def test_an_output_file_that_cannot_be_written_is_an_input_error(
        capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "hk", "--job",
                         job_path("14-hk-quadric-f3.json"), "--out",
                         str(target))
    assert code == 1 and out == ""
    assert ERROR_LINE.fullmatch(err), err
    assert err.startswith(f"error: input: cannot write {target}: "), err


def test_run_suite_records_job_errors_and_continues(capsys, tmp_path):
    doc = json.loads(
        open(job_path("06-length-quadric-13.json"), encoding="utf-8").read())
    doc["limits"] = {"basis": 1}
    write_job(tmp_path, "10-limited.json", doc)
    doc2 = json.loads(
        open(job_path("06-length-quadric-13.json"), encoding="utf-8").read())
    write_job(tmp_path, "20-fine.json", doc2)
    code, out, err = run(capsys, "run-suite", str(tmp_path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL 10-limited.json: limit:")
    assert lines[1] == "ok   20-fine.json"
    assert lines[-1] == "1/2 jobs passed"


def test_run_suite_rejects_missing_or_empty_directories(capsys, tmp_path):
    code, _, err = run(capsys, "run-suite", str(tmp_path / "nowhere"))
    assert code == 1 and err.startswith("error: input: ")
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "run-suite", str(empty))
    assert code == 1 and err.startswith("error: input: ")
