"""The oracles redo their work on every call.

``verify`` builds its seeded inputs once per process (the random oscillators
and the mismatched dimension pairs), but each call must still compute every
integral and attempt every addition, so no cache can stand in for the check.
"""

from collections import Counter

from vfdielectric import oscillator, verify
from vfdielectric.quantity import Dimension
from vfdielectric.species import OscillatorSpec
from vfdielectric.verify import (
    _mismatched_pairs,
    _random_oscillators,
    check_dimension_audit,
    check_quadrature_vs_analytic,
)


def test_dimension_audit_attempts_every_addition_on_every_call(constants, monkeypatch):
    attempted = []
    real_add = verify.q_add

    def counting_add(a, b):
        attempted.append((a.dim, b.dim))
        return real_add(a, b)

    monkeypatch.setattr(verify, "q_add", counting_add)
    for _ in range(2):
        attempted.clear()
        result = check_dimension_audit(constants)
        assert result.passed
        assert len(attempted) == 200
        assert tuple(attempted) == _mismatched_pairs()
        assert "200/200 mismatched additions rejected" in result.detail


def _count_calls(monkeypatch, module, name, calls):
    """Replace ``module.<name>`` by a wrapper that counts its calls per node count."""
    real = getattr(module, name)

    def counting(*args):
        calls[args[-1]] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def test_quadrature_check_computes_every_integral_on_every_call(constants, monkeypatch):
    integrals, table_reads = Counter(), Counter()
    _count_calls(monkeypatch, oscillator, "_gauss_hermite_integral", integrals)
    # each integral reads the table itself, so a memoized integral reads it less often
    _count_calls(monkeypatch, oscillator, "_hermite_table", table_reads)
    for _ in range(2):
        integrals.clear()
        table_reads.clear()
        assert check_quadrature_vs_analytic(constants).passed
        # 20 oscillators plus 5 parity-forbidden elements, each coarse and fine
        assert integrals == table_reads == {32: 25, 64: 25}


def test_seeded_inputs_are_immutable_tuples():
    specs = _random_oscillators()
    assert type(specs) is tuple and len(specs) == 20
    assert all(type(spec) is OscillatorSpec for spec in specs)
    assert _random_oscillators() is specs
    pairs = _mismatched_pairs()
    assert type(pairs) is tuple and len(pairs) == 200
    for pair in pairs:
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(dim) is Dimension for dim in pair)
        assert pair[0] != pair[1]
    assert _mismatched_pairs() is pairs
