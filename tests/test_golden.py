"""The spin run's outputs at the seven check configurations of ``golden.py``."""

import golden


def test_outputs_match_the_golden_file():
    report, ok = golden.compare(golden.load(), golden.compute())
    assert ok, "\n" + report
