"""The result records: immutable, slotted named tuples with value equality."""

from __future__ import annotations

import pytest

import b1alg as b
from support import msk


def test_records_are_immutable_slotted_values(ex62):
    z = msk(ex62, "z")
    broken_add = [list(row) for row in ex62.add]
    broken_add[1][2] = ex62.index["y"]  # z + x

    def calls():
        report = b.check_axioms(broken_add, ex62.mul, ex62.one)
        congruence = b.bourne_congruence(ex62, z)
        decomposition = b.radical_decomposition(ex62, 1)
        audit = b.audit(ex62)
        return {
            "Violation": report.violations[0],
            "AxiomReport": report,
            "Congruence": congruence,
            "SpectrumResult": b.spectrum(ex62),
            "DecompositionResult": decomposition,
            "EvansReport": b.evans_report(ex62, z),
            "LaskerianReport": b.laskerian_check(ex62),
            "AuditCheck": audit.checks[0],
            "AuditResult": audit,
        }

    first, second = calls(), calls()
    for name, record in first.items():
        assert type(record).__name__ == name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert not hasattr(record, "__dict__"), name
        assert record == second[name], name

    # _replace keeps the input of a decomposition of a non-radical ideal ...
    decomposition = first["DecompositionResult"]
    assert decomposition.input == 1
    assert decomposition.intersection() == z
    # ... and marks a minimalized one irredundant without touching the rest.
    slim = b.minimalize(decomposition)
    assert slim.irredundant
    assert slim.input == 1 and slim.split_trace == decomposition.split_trace
