"""``scripts/degree_bound_survey.py`` runs the CLI's germ stage on every
graded nilpotent fixture and target preset; each row must meet the bound."""

from __future__ import annotations

import importlib.util
import pathlib

SURVEY = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "degree_bound_survey.py"


def test_survey_meets_the_bound_on_every_row(capsys):
    spec = importlib.util.spec_from_file_location("degree_bound_survey", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    survey.main()
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == len(survey.BASES) * len(survey.TARGETS) == 20
    assert all(row.split()[6] == "ok" for row in rows), rows
