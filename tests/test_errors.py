import pytest

import entrate.cli
from entrate import errors
from entrate.cli import main
from entrate.errors import (
    EntrateError,
    Infeasible,
    InfeasibleRangeError,
    InvalidArgument,
    NonFiniteError,
    NumericalFailure,
    ParseError,
)

OUTCOMES = (InvalidArgument, Infeasible, NumericalFailure)
CLASSES = [obj for obj in vars(errors).values()
           if isinstance(obj, type) and obj.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_has_one_outcome(cls):
    assert issubclass(cls, EntrateError)
    if cls is EntrateError or cls in OUTCOMES:
        return
    bases = [b for b in OUTCOMES if issubclass(cls, b)]
    assert len(bases) == 1, bases
    assert (cls.exit_code, cls.label) == (bases[0].exit_code, bases[0].label)


@pytest.mark.parametrize("exc,code,stderr", [
    (EntrateError("boom"), 4, "error: boom\n"),
    (ParseError("bad spec"), 2, "error: bad spec\n"),
    (InfeasibleRangeError("no range"), 3, "infeasible: no range\n"),
    (NonFiniteError("overflow"), 4, "numerical failure: overflow\n"),
])
def test_main_reports_the_error_class_outcome(capsys, monkeypatch, exc, code, stderr):
    def cmd(args):
        raise exc

    monkeypatch.setattr(entrate.cli, "cmd_rate", cmd)
    assert main(["rate", "--p", "0.6"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr
