"""Every op of every benchmark workload, run in-process at seeds 1-3 and
checked by the bench's own checker, which computes each answer with
perfbench/oracle.py and not with incgrade."""

import pytest

import checks
import workloads
from incgrade.cli import main


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_agrees_with_the_reference(workload, seed, tmp_path,
                                            monkeypatch, capsys):
    ops = workloads.build(workload, seed, str(tmp_path))
    assert ops
    monkeypatch.chdir(tmp_path)
    checker = checks.Checker()
    disagreements = []
    for op in ops:
        code = main(op["argv"])
        reason = checker.check(op, code, capsys.readouterr().out)
        if reason is not None:
            disagreements.append((op["id"], op["argv"], reason))
    assert disagreements == []
