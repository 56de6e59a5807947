"""The benchmark's answers, once, in process: every workload of
``perfbench/workloads.py`` at seed 1 and size full passes its checks, and
its answer digest equals the one in ``perfbench/digests.json``, which the
benchmark compares against; and every sweep family the workload can draw
fits as its checks require. Only reads ``perfbench/``."""

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from parafrob.cli import main
from parafrob.eqpfit import Fit, fit_quasipolynomial
from parafrob.frobenius import Coins, apery_table
from parafrob.qpoly import SampleSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_answers_match_the_recorded_digest(name, tmp_path,
                                                    monkeypatch):
    workload = workloads.BUILDERS[name](DIGESTS["seed"], "full")
    workload.prepare(tmp_path)
    monkeypatch.chdir(tmp_path)  # the commands name their files relative to it
    answers = []
    for cmd in workload.commands:
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            try:
                main(list(cmd.argv), prog_name="parafrob")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        assert code == 0, cmd.argv
        lines = cmd.answer(out.getvalue(), tmp_path)
        error = cmd.check(lines)
        assert error is None, f"{cmd.argv}: {error}"
        answers += lines
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert digest == DIGESTS[name]


def test_every_sweep_family_fits_from_the_first_sampled_t():
    # The sweep workload draws one family per seed and checks that both of
    # its series fit from t = 3 with period <= 2 under the default bounds.
    # Every family it can draw is held to that here, at any seed.
    for b, c in workloads.SWEEP_FAMILIES:
        tables = [apery_table(Coins(workloads.family_values(b, c, t)),
                              workloads.M) for t in range(3, 41)]
        for values in ([table.frobenius(workloads.M, workloads.L)
                        for table in tables],
                       [table.genus(workloads.M) for table in tables]):
            res = fit_quasipolynomial(SampleSeries(3, tuple(values)))
            assert isinstance(res, Fit), (b, c)
            assert res.qp.period <= 2 and res.qp.threshold < 3, (b, c)
