"""Validation reports shared by the algebra, bundle and cocycle checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .tensor import first_difference


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple = ()

    def __str__(self):
        if self.witness:
            return "%s at %s" % (self.axiom, self.witness)
        return self.axiom


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    checked: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def check(self, axiom: str):
        if axiom not in self.checked:
            self.checked.append(axiom)

    def fail(self, axiom: str, witness: tuple = ()):
        self.check(axiom)
        self.violations.append(Violation(axiom, witness))

    def compare(self, axiom: str, lhs, rhs, tol, at: tuple = ()):
        """Check ``axiom`` as lhs == rhs at ``tol``; on failure the witness
        is ``at`` followed by the first index where the tensors differ."""
        self.check(axiom)
        idx = first_difference(lhs, rhs, tol)
        if idx is not None:
            self.fail(axiom, at + idx)

    def failed_axioms(self):
        return sorted({v.axiom for v in self.violations})
