"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

* Runs a tiny size of every workload, untraced and traced, and asserts
  that the result line names exactly the metrics of BENCHMARK.json, with
  their units, and that every answer was accepted.
* Plants one wrong answer of each kind into the checker and asserts
  that each is rejected, so that the failure count rises: the
  correctness gate is not vacuous.
* Runs the benchmark from a directory holding only BENCHMARK.json and
  the benchmark's files, and asserts that it exits non-zero without a
  result.

Exits 0 when every check holds; prints the first failed check otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result_lines(spec: dict) -> None:
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _require(declared[0] == run.END_TO_END_UNITS, "end_to_end differs from run.py")
    _require(declared[1] == run.per_layer_units(), "per_layer differs from run.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--size", "tiny")
            where = f"{workload} trace {trace}"
            _require(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _require(set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}")
            _require(result["correct"] is True and result["failed"] == 0, f"{where}: {result}")
            _require(result["attempted"] >= 1, where)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(got == declared[trace], f"{where}: metrics differ from BENCHMARK.json")
            for name, metric in result["metrics"].items():
                _require(isinstance(metric["value"], (int, float)), f"{where}: {name}")
            print(f"ok   {where}: {len(got)} metrics, {result['attempted']} answers")


def _planted(op: list, text: str) -> str:
    """A wrong answer of the same form as the right one."""
    kind = op[0]
    if kind == "product":
        word, _, coeff = text.split(" ")[0].rpartition(":")
        return " ".join([f"{word}:{int(coeff) + 1}"] + text.split(" ")[1:])
    if kind == "dim":
        return str(int(text) + 1)
    if kind == "phi_w":
        return "0" if text != "0" else "1/2"
    if kind == "phi_tw":
        return "inf" if text != "inf" else "0"
    if kind == "covers":
        return " ".join(text.split(" ")[1:])
    code, _, out = text.partition("\n")
    data = json.loads(out)
    if "ok" in data:
        data["ok"] = False
    else:
        data["vertices"] = data["vertices"][:-1]
    return f"{code}\n{json.dumps(data)}"


def check_planted_answers() -> None:
    for workload in workloads.WORKLOADS:
        ops = workloads.make_inputs(workload, 7, "tiny")["ops"]
        texts = [workloads.answer_text(op, workloads.run_op(op)) for op in ops]
        base = sum(checker.check(op, t) is not None for op, t in zip(ops, texts))
        _require(base == 0, f"{workload}: checker rejects {base} right answers")
        planted_kinds = set()
        for i, op in enumerate(ops):
            key = op[0] if op[0] != "cli" else op[1][0]
            if key in planted_kinds:
                continue
            planted_kinds.add(key)
            wrong = texts[:i] + [_planted(op, texts[i])] + texts[i + 1:]
            failed = sum(checker.check(o, t) is not None for o, t in zip(ops, wrong))
            _require(failed == 1, f"{workload}: planted wrong {key} answer accepted")
            print(f"ok   {workload}: planted wrong {key} answer raises the failure "
                  f"share from 0 to 1/{len(ops)}")


def check_bare_directory(spec_path: str) -> None:
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(spec_path, bare)
        proc = _bench(bare, "--workload", "scan", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
        _require(proc.returncode != 0, "bare directory: exit 0")
        _require('"metrics"' not in proc.stdout, "bare directory: printed a result")
        print(f"ok   bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    try:
        check_planted_answers()
        check_result_lines(spec)
        check_bare_directory(spec_path)
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
