"""Input parsing, the pipeline front end, and CLI determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conetri
from conetri.cli import (
    RunConfig,
    main,
    parse_input,
    random_cone,
    run_pipeline,
)
from conetri.cone_geometry import make_cone, vector_content
from conetri.errors import SingularMatrixError
from conetri.verifier import verify_triangulation

from conftest import perm_det


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
    assert "hk_ok" not in doc["certificates"]
    assert trace == []

    # Round trip: the emitted tiling re-verifies against the base.
    base = make_cone(doc["base"]["generators"])
    cones = [make_cone(c["generators"]) for c in doc["final"]["cones"]]
    vol, cont, flags = verify_triangulation(base, cones)
    assert vol and cont and all(flags)


def test_run_pipeline_trace_output():
    cfg = RunConfig(generators=((1, 0), (1, 3)), keep_trace=True)
    _, trace = run_pipeline(cfg)
    assert len(trace) == 1
    ev = trace[0]
    assert ev["p"] == 3
    assert ev["x_prime"] == [1, 1]
    assert ev["mu_parent"] == 3
    assert sorted(ev["mu_children"]) == [1, 2]


def test_run_pipeline_isolated_mode():
    cfg = RunConfig(generators=((1, 0), (1, 4)), isolated_cones=True)
    doc, _ = run_pipeline(cfg)
    assert doc["certificates"]["hk_ok"] is True
    assert doc["final"]["count"] == 4
    assert all(doc["certificates"].values())


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


def test_main_bounds(capsys):
    assert main(["bounds", "--mu", "6", "--dim", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == 6 and doc["dimension"] == 3
    assert doc["mu_ceiling"] == pytest.approx(149.0, rel=1e-2)
    assert doc["simplified"] > doc["mu"]
    assert main(["bounds", "--mu", "0", "--dim", "3"]) == 1


def run_cli(*args, preexec_fn=None):
    src = Path(conetri.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "conetri.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=preexec_fn,
    )


def run_bounds_cli(mu, preexec_fn=None):
    return run_cli("bounds", "--mu", mu, "--dim", 2, preexec_fn=preexec_fn)


@pytest.fixture
def memory_cap():
    """preexec_fn capping a child at 512 MB of address space: a sieve or a
    run that blows up dies with a MemoryError instead."""
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
    assert_error_exit(run_bounds_cli(2**44))


def test_main_bounds_huge_mu_is_an_error_without_a_sieve(memory_cap):
    # Factorizing 10**18 would sieve the primes up to 10**9, a gigabyte;
    # under a 512 MB address-space cap that dies with a MemoryError.
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
    # mu = 10**37 + 1: factorizing it would sieve far past 512 MB, and no
    # report could hold its multiplicity ceiling anyway.
    path = write_cone(
        tmp_path,
        "huge.json",
        {"dimension": 2, "generators": [[1, 0], [1, 10**37 + 1]]},
    )
    assert_error_exit(run_cli("run", path, preexec_fn=memory_cap))


def test_main_random_huge_mu_is_an_error_before_phase_1(memory_cap):
    out = run_cli(
        "random", "--dim", 2, "--bound", 10**30, "--count", 1, "--seed", 0,
        preexec_fn=memory_cap,
    )
    assert_error_exit(out)
