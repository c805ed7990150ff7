"""Input parsing, the pipeline front end, and CLI determinism."""

import gc
import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conetri
import conetri.cli
import conetri.cone_geometry
from conetri.cli import (
    RunConfig,
    main,
    parse_input,
    random_cone,
    run_pipeline,
)
from conetri.cone_geometry import coordinate_rows, make_cone, vector_content
from conetri.errors import SingularMatrixError
from conetri.verifier import Certificates, _sweep, certify

from conftest import isolated_tiling, oracle_facet_matching, perm_det

# A mu-19 d=4 cone whose phase 1 cones, refined each on its own, leave 12
# interior facets unmatched.
MU19 = ((1, 1, 0, -3), (-2, -3, 1, 3), (-2, -1, 0, -2), (1, -3, 1, -1))

# test_acceptance's campaign_cone(4, 0), mu 759: a 14.6 MB report.
CAMPAIGN_4_0 = ((-7, -3, 0, -7), (3, 2, 4, -4), (6, -1, -3, 6), (-3, -4, 4, -7))


def test_parse_input_valid():
    cone = parse_input('{"dimension": 2, "generators": [[1, 0], [1, 3]]}')
    assert cone.generators == ((1, 0), (1, 3))
    assert cone.multiplicity == 3


def test_parse_input_dependent_generators():
    with pytest.raises(SingularMatrixError):
        parse_input('{"dimension": 2, "generators": [[1, 0], [2, 0]]}')


def test_parse_input_normalizes_content(capsys):
    cone = parse_input('{"dimension": 2, "generators": [[2, 0], [0, 1]]}')
    assert cone.generators == ((1, 0), (0, 1))
    assert "divided by its content" in capsys.readouterr().err


def test_parse_input_rejects_garbage():
    with pytest.raises(ValueError):
        parse_input("not json")
    with pytest.raises(ValueError):
        parse_input("[1, 2]")
    with pytest.raises(ValueError):
        parse_input('{"dimension": 2}')
    with pytest.raises(ValueError):
        parse_input('{"dimension": 1, "generators": [[1]]}')
    with pytest.raises(ValueError):
        parse_input('{"dimension": 2, "generators": [[1, 0]]}')
    with pytest.raises(ValueError):
        parse_input('{"dimension": 2, "generators": [[true, 0], [0, 1]]}')
    with pytest.raises(ValueError):
        parse_input('{"dimension": 2, "generators": [[0, 0], [0, 1]]}')


def test_random_cone_deterministic():
    a = random_cone(3, 5, random.Random(99))
    b = random_cone(3, 5, random.Random(99))
    assert a.generators == b.generators
    for _ in range(50):
        c = random_cone(2, 1, random.Random(_))
        assert c.multiplicity in {1, 2}
        assert all(vector_content(g) == 1 for g in c.generators)
        assert abs(perm_det([list(g) for g in c.generators])) >= 1
    with pytest.raises(ValueError):
        random_cone(1, 5, random.Random(0))
    with pytest.raises(ValueError):
        random_cone(2, 0, random.Random(0))


def test_run_pipeline_report_mu3():
    doc, trace = run_pipeline(RunConfig(generators=((1, 0), (1, 3))))
    assert doc["base"]["multiplicity"] == 3
    assert doc["final"]["count"] == 3
    assert doc["max_dilation"] == "1/1"
    assert all(doc["certificates"].values())
    assert len(trace) == 1 and trace[0].parent_id == 0

    # Round trip: the emitted tiling re-verifies against the base.
    base = make_cone(doc["base"]["generators"])
    cones = [make_cone(c["generators"]) for c in doc["final"]["cones"]]
    vol, cont, unimodular, _ = _sweep(base, coordinate_rows(base), cones)
    assert vol and cont and unimodular


def test_run_pipeline_trace_output():
    _, trace = run_pipeline(RunConfig(generators=((1, 0), (1, 3))))
    assert len(trace) == 1
    ev = trace[0]
    assert ev.p == 3
    assert ev.x_prime == (1, 1)
    assert ev.mu_parent == 3
    assert sorted(ev.mu_children) == [1, 2]


def test_run_config_has_no_options_beyond_the_trace():
    # The trace is always returned; what a caller keeps of it is its own
    # choice, so no option selects it.
    assert RunConfig._fields == ("generators",)


def test_import_loads_neither_dataclasses_nor_inspect():
    # Every run pays the import. dataclasses alone would pull in inspect,
    # ast, dis and tokenize; fractions pulls in decimal and numbers. -S
    # keeps a site .pth from preloading any of them.
    src = Path(conetri.__file__).resolve().parents[1]
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import conetri, conetri.cli; "
        f"print(conetri.__file__); print(sorted({unwanted!r} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    where, loaded = out.stdout.splitlines()
    assert Path(where).resolve().parent == src / "conetri"
    assert loaded == "[]"


@pytest.mark.parametrize(
    "gens, count",
    [(((1, 0), (1, 3)), 3), (((1, 0), (1, 4)), 4), (MU19, None)],
    ids=["mu3", "mu4", "mu19"],
)
def test_run_pipeline_report_has_the_eight_certificates(gens, count):
    # One phase 2, one report shape: exactly these keys, in this order.
    doc, _ = run_pipeline(RunConfig(generators=gens))
    assert list(doc["certificates"]) == [
        "volume_ok",
        "containment_ok",
        "all_unimodular",
        "phi_descent_ok",
        "label_depth_ok",
        "mu_bound_ok",
        "xi_length_ok",
        "final_bound_ok",
    ]
    assert all(doc["certificates"].values())
    if count is not None:
        assert doc["final"]["count"] == count


def test_report_certificates_are_the_certificates_fields():
    # The report writes the Certificates record as it is, so a new
    # certificate needs no edit in the CLI.
    doc, _ = run_pipeline(RunConfig(generators=MU19))
    assert tuple(doc["certificates"]) == Certificates._fields


def test_run_pipeline_computes_only_base_adjugates(monkeypatch):
    # Both phases derive every containment numerator from the split point's
    # own coefficients and build children without adjugate arithmetic. The
    # only adjugate of a run is the base's, which certify computes once and
    # hands to both the certificate sweep and the label-length audit.
    gens = MU19
    real_adjugate = conetri.cone_geometry.adjugate
    calls = []
    checks = ("certify", "_sweep", "_audit", "audit_trace")

    def counting(m):
        callers = {frame.function for frame in inspect.stack()}
        calls.append((m, [f for f in checks if f in callers]))
        return real_adjugate(m)

    monkeypatch.setattr(conetri.cone_geometry, "adjugate", counting)
    doc, trace = run_pipeline(RunConfig(generators=gens))
    assert all(doc["certificates"].values())
    assert len(trace) > 1 and doc["final"]["count"] > 19
    base = make_cone(gens).matrix()
    assert calls == [(base, ["certify"])]


def test_isolated_tiling_is_not_face_to_face():
    # A known gap: refining each phase 1 cone on its own leaves facets
    # that only one cone holds inside the base, and no certificate sees it.
    # The pipeline tiles the same cone face to face.
    gens = MU19
    base, state, final = isolated_tiling(gens)
    assert base.multiplicity == 19
    report = certify(base, final, state.trace)
    assert len(report.certificates) == 8 and all(report.certificates)
    facets = oracle_facet_matching(gens, [c.generators for c in final])
    assert len(facets["interior_bad"]) == 12
    assert facets["boundary_bad"] == []
    doc, _ = run_pipeline(RunConfig(generators=gens))
    cones = [c["generators"] for c in doc["final"]["cones"]]
    assert oracle_facet_matching(gens, cones)["face_to_face_ok"]


@pytest.fixture
def keep_collector_state():
    """Put the cyclic collector back as it was, whatever the test did."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_run_pipeline_leaves_no_cyclic_garbage(keep_collector_state):
    # run_pipeline pauses the cyclic collector, which is only sound if a run
    # makes no reference cycles: with the collector off throughout, a full
    # collection afterwards must find nothing unreachable. The OverflowError
    # exit is covered too.
    gc.disable()
    gc.collect()
    rng = random.Random(8)
    for d, bound in ((2, 9), (3, 5), (4, 3)):
        for _ in range(4):
            cone = random_cone(d, bound, rng)
            doc, _ = run_pipeline(RunConfig(generators=cone.generators))
            assert all(doc["certificates"].values())
    with pytest.raises(OverflowError):
        run_pipeline(RunConfig(generators=((1, 0), (1, 10**37 + 1))))
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "gens, during",
    [(((1, 0), (1, 3)), [False]), (((1, 0), (1, 10**37 + 1)), [])],
    ids=["returns", "overflow"],
)
def test_run_pipeline_restores_the_collector(
    monkeypatch, keep_collector_state, enabled, gens, during
):
    # The collector is off while the phases run and afterwards is as the
    # caller left it, whether the run returns or raises.
    seen = []
    real_run_p2t = conetri.cli.run_p2t

    def spy(base):
        seen.append(gc.isenabled())
        return real_run_p2t(base)

    monkeypatch.setattr(conetri.cli, "run_p2t", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        run_pipeline(RunConfig(generators=gens))
    except OverflowError:
        pass
    assert gc.isenabled() == enabled
    assert seen == during


def write_cone(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def test_main_run_exit_codes(tmp_path, capsys):
    good = write_cone(
        tmp_path, "good.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    assert main(["run", good, "--verify"]) == 0
    capsys.readouterr()

    assert main(["run", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    capsys.readouterr()


def test_main_run_byte_determinism(tmp_path, capsys):
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 3, "generators": [[1, 0, 0], [1, 3, 0], [2, 1, 5]]}
    )
    assert main(["run", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["run", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert all(doc["certificates"].values())


def test_main_run_text_format(tmp_path, capsys):
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 5]]}
    )
    assert main(["run", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "max dilation: 1/1" in out
    assert "volume_ok: pass" in out


def test_main_run_writes_trace(tmp_path, capsys):
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    trace_path = tmp_path / "trace.json"
    assert main(["run", path, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    events = json.loads(trace_path.read_text(encoding="utf-8"))
    assert len(events) == 1 and events[0]["p"] == 3


def test_main_random_campaign(capsys):
    args = ["random", "--dim", "2", "--bound", "3", "--count", "3", "--seed", "42", "--verify"]
    assert main(args) == 0
    first = capsys.readouterr().out
    summary = json.loads(first)
    assert summary["all_pass"] is True
    assert len(summary["runs"]) == 3
    assert [r["index"] for r in summary["runs"]] == [0, 1, 2]
    # Same seed, same bytes.
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("batch", [1, 2, 7, 8192])
def test_write_json_writes_the_json_dumps_bytes(monkeypatch, batch):
    # Whatever the batch size, a batch boundary may fall anywhere in the
    # encoder's pieces and the bytes are those of one json.dumps call.
    monkeypatch.setattr(conetri.cli, "_JSON_BATCH", batch)
    obj = {
        "generators": ((1, 0), (1, 3)),
        "ratio": 0.1,
        "none": None,
        "empty": [[], {}],
        "flags": {"a": True, "b": False},
        "text": "caf\u00e9",
    }
    for value in (obj, [obj, obj], [], 3):
        fh = io.StringIO()
        conetri.cli._write_json(value, fh)
        assert fh.getvalue() == json.dumps(value, indent=2) + "\n"


def test_main_random_and_bounds_print_indented_json(capsys):
    for args in (
        ["random", "--dim", "3", "--bound", "4", "--count", "5", "--seed", "0"],
        ["bounds", "--mu", "12", "--dim", "4"],
    ):
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_main_verify_exits_2_on_a_failing_certificate(tmp_path, capsys, monkeypatch):
    # No real run fails a certificate, so certify is made to report two.
    real_certify = conetri.cli.certify

    def failing_certify(*args):
        report = real_certify(*args)
        return report._replace(
            certificates=report.certificates._replace(volume_ok=False, xi_length_ok=False)
        )

    monkeypatch.setattr(conetri.cli, "certify", failing_certify)
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    rand = ["random", "--dim", "2", "--bound", "3", "--count", "2", "--seed", "42"]

    # Without --verify a failing certificate shows only in the output.
    assert main(["run", path]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"]["volume_ok"] is False
    assert main(rand) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_pass"] is False
    assert captured.err == ""

    assert main(["run", path, "--verify"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["certificates"]["xi_length_ok"] is False
    assert captured.err == "certificate failure: volume_ok, xi_length_ok\n"
    assert main([*rand, "--verify"]) == 2
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


def test_main_bounds(capsys):
    assert main(["bounds", "--mu", "6", "--dim", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == 6 and doc["dimension"] == 3
    assert doc["mu_ceiling"] == pytest.approx(149.0, rel=1e-2)
    assert doc["simplified"] > doc["mu"]
    assert main(["bounds", "--mu", "0", "--dim", "3"]) == 1


def cli_env():
    src = Path(conetri.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src))


def run_cli(*args, preexec_fn=None, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "conetri.cli", *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60,
        preexec_fn=preexec_fn,
    )


def run_bounds_cli(mu, preexec_fn=None):
    return run_cli("bounds", "--mu", mu, "--dim", 2, preexec_fn=preexec_fn)


@pytest.fixture
def memory_cap():
    """preexec_fn capping a child at 512 MB of address space: a run that
    blows up dies with a MemoryError instead."""
    resource = pytest.importorskip("resource")
    cap = 512 << 20
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def assert_error_exit(out):
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_main_bounds_overflow_is_an_error():
    # 2**44: the intermediate ceiling 2**(L*(L+3)/2) no longer fits a float.
    out = run_bounds_cli(2**44)
    assert_error_exit(out)
    assert out.stderr == f"error: the bounds for mu {2**44} overflow a float\n"


def test_main_bounds_huge_dimension_is_an_error_naming_it():
    # final_bounds' d**2 no longer fits a float from d ~2**512 on, while the
    # mu ceiling is fine, so the message names the dimension, not mu.
    out = run_cli("bounds", "--mu", 12, "--dim", 10**400)
    assert_error_exit(out)
    assert out.stderr == f"error: the bounds for dimension {10**400} overflow a float\n"


def test_main_bounds_infinite_bound_is_an_error_naming_mu_and_dimension():
    # d**2 fits a float here, but the theorem bound's product does not: it
    # used to saturate to inf and print the non-JSON token Infinity.
    out = run_cli("bounds", "--mu", 12, "--dim", 10**154)
    assert_error_exit(out)
    assert out.stderr == (
        f"error: the bounds for mu 12 and dimension {10**154} overflow a float\n"
    )


def test_main_bounds_huge_mu_is_an_error_without_a_sieve(memory_cap):
    # 10**18 is past the multiplicity ceiling's overflow, so the bounds
    # are refused before any work; under a 512 MB address-space cap, a
    # regression that grew memory on the way dies with a MemoryError.
    assert_error_exit(run_bounds_cli(10**18, preexec_fn=memory_cap))


def test_main_run_non_utf8_input_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_main_run_unwritable_trace_fails_before_the_run(tmp_path, capsys, monkeypatch):
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    ran = []
    monkeypatch.setattr("conetri.cli.run_pipeline", lambda cfg: ran.append(cfg))
    trace_path = tmp_path / "missing" / "trace.json"
    assert main(["run", path, "--trace", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert ran == []


def test_main_run_huge_mu_is_an_error_before_phase_1(tmp_path, memory_cap):
    # mu = 10**37 + 1: no report could hold its multiplicity ceiling, so
    # the run fails before phase 1 factorizes it or splits a cone.
    path = write_cone(
        tmp_path,
        "huge.json",
        {"dimension": 2, "generators": [[1, 0], [1, 10**37 + 1]]},
    )
    assert_error_exit(run_cli("run", path, preexec_fn=memory_cap))


def test_main_failed_run_deletes_the_trace_file_it_created(tmp_path):
    path = write_cone(
        tmp_path, "huge.json", {"dimension": 2, "generators": [[1, 0], [1, 10**37 + 1]]}
    )
    trace_path = tmp_path / "trace.json"
    assert_error_exit(run_cli("run", path, "--trace", trace_path))
    assert not trace_path.exists()


def test_main_failed_run_leaves_an_existing_trace_path(tmp_path):
    # The path was there before the run, so it is not the run's to delete
    # (it could be /dev/stdout).
    path = write_cone(
        tmp_path, "huge.json", {"dimension": 2, "generators": [[1, 0], [1, 10**37 + 1]]}
    )
    trace_path = tmp_path / "trace.json"
    trace_path.write_text("old", encoding="utf-8")
    assert_error_exit(run_cli("run", path, "--trace", trace_path))
    assert trace_path.exists()
    # It is not truncated before the run, so the old bytes survive.
    assert trace_path.read_text(encoding="utf-8") == "old"


def test_main_run_over_a_longer_trace_file_leaves_only_the_trace(tmp_path):
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    trace_path = tmp_path / "trace.json"
    trace_path.write_text("x" * 100_000, encoding="utf-8")
    out = run_cli("run", path, "--trace", trace_path)
    assert out.returncode == 0, out.stderr
    _, trace = run_pipeline(RunConfig(generators=((1, 0), (1, 3))))
    want = json.dumps([ev._asdict() for ev in trace], indent=2) + "\n"
    assert trace_path.read_text(encoding="utf-8") == want


def test_main_run_mu_too_long_to_print_is_an_error(tmp_path):
    # mu has over 6000 digits, past Python's int-to-str limit: the message
    # names it by its bit length instead of raising a ValueError.
    big = 10**3000
    path = write_cone(
        tmp_path, "huge.json", {"dimension": 2, "generators": [[big, 1], [1, big + 1]]}
    )
    mu = big * (big + 1) - 1
    for extra in ((), ("--trace", tmp_path / "trace.json")):
        out = run_cli("run", path, *extra)
        assert_error_exit(out)
        assert out.stderr == (
            f"error: the bounds for mu of {mu.bit_length()} bits overflow a float\n"
        )
    assert not (tmp_path / "trace.json").exists()


def test_main_random_mu_too_long_to_print_is_an_error():
    assert_error_exit(
        run_cli("random", "--dim", 2, "--bound", 10**3999, "--count", 1, "--seed", 0)
    )


def test_main_run_trace_to_dev_stdout(tmp_path):
    # An existing path is opened for writing, not created.
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    out = run_cli("run", path, "--trace", "/dev/stdout")
    assert out.returncode == 0, out.stderr
    trace, _, report = out.stdout.partition("\n]\n")
    assert json.loads(trace + "\n]")[0]["p"] == 3
    assert json.loads(report)["final"]["count"] == 3


def test_main_run_trace_to_dev_stdout_redirected_to_a_file(tmp_path):
    # As in `conetri run cone.json --trace /dev/stdout > both.json`: the file
    # gets what a pipe gets, the trace file's bytes and then the report's.
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    trace_path = tmp_path / "trace.json"
    alone = run_cli("run", path, "--trace", trace_path)
    assert alone.returncode == 0, alone.stderr
    piped = run_cli("run", path, "--trace", "/dev/stdout")
    both = tmp_path / "both.json"
    with open(both, "w", encoding="utf-8") as fh:
        out = run_cli("run", path, "--trace", "/dev/stdout", stdout=fh)
    assert out.returncode == 0, out.stderr
    want = trace_path.read_text(encoding="utf-8") + alone.stdout
    assert piped.stdout == want
    assert both.read_text(encoding="utf-8") == want


def test_main_run_out_of_memory_is_an_error(tmp_path):
    # mu ~ 1.23e12 is under the 2**44 cap, so the run starts, and its
    # pipeline alone peaks near 852 MB. Under a 100 MB address-space cap on
    # the child alone it runs out within seconds; the error is one line,
    # stdout stays empty and the trace file the run created is deleted.
    resource = pytest.importorskip("resource")
    cap = 100 << 20
    path = write_cone(
        tmp_path,
        "big.json",
        {"dimension": 2, "generators": [[1, 0], [158613278149, 1234118746823]]},
    )
    trace_path = tmp_path / "trace.json"
    out = run_cli(
        "run", path, "--trace", trace_path,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert_error_exit(out)
    assert out.stderr == "error: out of memory\n"
    assert not trace_path.exists()


def test_main_random_huge_mu_is_an_error_before_phase_1(memory_cap):
    out = run_cli(
        "random", "--dim", 2, "--bound", 10**30, "--count", 1, "--seed", 0,
        preexec_fn=memory_cap,
    )
    assert_error_exit(out)


def test_main_run_deeply_nested_json_is_an_error(tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, on this.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    assert_error_exit(run_cli("run", path))


def test_main_run_rejects_the_isolated_cones_flag(tmp_path, capsys):
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 4]]}
    )
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--isolated-cones"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage:")
    assert "unrecognized arguments: --isolated-cones" in captured.err
    assert captured.out == ""


def test_main_random_into_a_closed_pipe_exits_1_quietly():
    # As in `conetri random ... | head -1`, the reader is gone before the
    # summary is written; a pipe whose read end is closed makes that certain.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_cli(
            "random", "--dim", 3, "--bound", 5, "--count", 3, "--seed", 1,
            stdout=write_end,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""


def test_main_run_into_a_pipe_closed_mid_report_exits_1_quietly(tmp_path):
    # As in `conetri run ... | head -c 100`: the reader takes the first bytes
    # of a 14.6 MB report and goes away while the rest is being written.
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 4, "generators": CAMPAIGN_4_0}
    )
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "conetri.cli", "run", path],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=cli_env(),
        )
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        first = reader.read(100)
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b'{\n  "dimension": 4,')
    assert proc.returncode == 1
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        ("run", "CONE"),
        ("random", "--dim", 2, "--bound", 3, "--count", 2, "--seed", 0),
        ("bounds", "--mu", 12, "--dim", 4),
    ],
    ids=["run", "random", "bounds"],
)
def test_main_stdout_on_a_full_device_is_an_error(tmp_path, args):
    # The command's own write or the flush after it fails with ENOSPC; the
    # flush at exit must not fail again.
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    args = [path if a == "CONE" else a for a in args]
    with open("/dev/full", "w") as full:
        out = run_cli(*args, stdout=full)
    assert out.returncode == 1
    assert out.stderr.startswith("error: cannot write stdout:")
    assert out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
    assert "Exception ignored" not in out.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_main_run_trace_on_a_full_device_is_an_error(tmp_path):
    # Writes to /dev/full fail with ENOSPC, here only when the buffered
    # trace is flushed as the file closes.
    path = write_cone(
        tmp_path, "cone.json", {"dimension": 2, "generators": [[1, 0], [1, 3]]}
    )
    out = run_cli("run", path, "--trace", "/dev/full")
    assert_error_exit(out)
    assert out.stderr.startswith("error: cannot write /dev/full:")
