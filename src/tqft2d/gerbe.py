"""Rank-one bundles: 2-cocycles, scalar transport, and scalar holonomy.

When every fiber is a line, fusion is a normalized 2-cocycle theta on the
group, fission is forced to 1/(c * theta), and transport is a scalar
function tau compatible with conjugation.  Holonomy of a closed labeled
surface reduces to a product of these scalars.  The scalars are checked
as the rank-one crossed bundle they inflate to, by ``validate_bundle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bordism import COPANTS, CUP, ID, PANTS
from .crossed import (CrossedBundle, LabeledBordism, LabelError,
                      closed_surface_word, evaluate_labeled, validate_bundle)
from .groups import FiniteGroup, klein_four_group, load_over
from .report import ValidationReport
from .tensor import (DEFAULT_TOL, InputError, Tensor, content_lines,
                     first_difference, parse_scalar, format_scalar)


class CocycleError(InputError):
    """Malformed cocycle data (missing entries, zero values, bad file)."""


def _fraction(value):
    """``value`` as an exact scalar of this module: a Fraction or a complex
    as it is, any other number a Fraction, since two Python ints divide to
    a float, which the exact Tensor constructor reads as a binary fraction."""
    return value if isinstance(value, (Fraction, complex)) else Fraction(value)


def _complete(group, data, default):
    out = {}
    for g in group.elements():
        for h in group.elements():
            out[g, h] = data.get((g, h), default)
    return out


@dataclass
class ScalarBundle:
    """theta, tau and the counit scalar; exact unless the counit is complex.
    An exact bundle holds every value as a Fraction, and a complex value in
    it is a CocycleError naming its entry."""
    group: FiniteGroup
    theta: dict          # (g, h) -> scalar, the fusion cocycle
    tau: dict            # (k, g) -> scalar transport A_g -> A_{kgk^-1}
    counit_scalar: object = Fraction(1)
    tol: float = DEFAULT_TOL  # float-mode tolerance of every comparison

    def __post_init__(self):
        G, exact = self.group, self.exact
        for g in G.elements():
            for h in G.elements():
                for name, values in (("theta", self.theta), ("tau", self.tau)):
                    if (g, h) not in values:
                        raise CocycleError("missing %s(%d,%d)" % (name, g, h))
                    if values[g, h] == 0:
                        raise CocycleError("%s(%d,%d) is zero" % (name, g, h))
                    if exact and isinstance(values[g, h], complex):
                        raise CocycleError("%s(%d,%d) is complex in an exact bundle"
                                           % (name, g, h))
        if self.counit_scalar == 0:
            raise CocycleError("counit scalar must be nonzero")
        if exact:
            self.theta, self.tau = ({k: _fraction(v) for k, v in values.items()}
                                    for values in (self.theta, self.tau))
            self.counit_scalar = _fraction(self.counit_scalar)

    @property
    def exact(self):
        return not isinstance(self.counit_scalar, complex)

    @cached_property
    def crossed_bundle(self):
        """The rank-one crossed bundle (``to_crossed_bundle``), built once
        per scalar bundle for its validation and ``gerbe_holonomy``'s
        cross-check."""
        return to_crossed_bundle(self)

    @cached_property
    def report(self):
        """``validate_bundle`` of the rank-one bundle, made once for
        ``from_cocycle`` and ``check_cocycle``."""
        return validate_bundle(self.crossed_bundle)


def check_cocycle(sb: ScalarBundle) -> ValidationReport:
    """The crossed-bundle axioms of the rank-one bundle (``validate_bundle``).

    On scalars, associativity is the cocycle identity of theta, the unit
    axiom is its normalization theta(g,e) = 1, fusion-transport is the
    compatibility of tau with theta, and flatness that of tau with the
    group law; the rest follow from these.
    """
    return sb.report


def induced_transport(group: FiniteGroup, theta) -> dict:
    """Transport by twisted conjugation: tau(k,g) = theta(k,g)/theta(kgk^-1,k)."""
    theta = {key: _fraction(v) for key, v in theta.items()}
    tau = {}
    for k in group.elements():
        for g in group.elements():
            tau[k, g] = theta[k, g] / theta[group.conj(k, g), k]
    return tau


def from_cocycle(group: FiniteGroup, theta, tau=None, counit_scalar=Fraction(1),
                 tol=DEFAULT_TOL):
    """Build a scalar bundle; transport defaults to twisted conjugation.

    A complex ``counit_scalar`` makes the bundle a float one: its values are
    complex, and values within ``tol`` count as equal in the bundle's checks.
    A theta that fails an axiom of its own (the first of them, named by its
    grading) raises ``CocycleError``; a bad tau is left to ``check_cocycle``.
    """
    one = complex(1) if isinstance(counit_scalar, complex) else Fraction(1)
    theta = _complete(group, theta, one)
    for key, value in theta.items():  # before the induced transport divides by it
        if value == 0:
            raise CocycleError("theta(%d,%d) is zero" % key)
    tau = induced_transport(group, theta) if tau is None else _complete(group, tau, one)
    sb = ScalarBundle(group=group, theta=theta, tau=tau,
                      counit_scalar=counit_scalar, tol=tol)
    # the axioms theta alone can fail, each with the length of its grading,
    # which leads the witness
    theta_axioms = {"associativity": 3, "coassociativity": 3, "frobenius": 3,
                    "unit": 1, "counit": 1}
    first = next((v for v in sb.report.violations if v.axiom in theta_axioms), None)
    if first is not None:
        hint = ("; dividing by the coboundary of beta(g) = theta(g,e) "
                "normalizes the unit values"
                if "unit" in sb.report.failed_axioms() else "")
        grading = first.witness[:theta_axioms[first.axiom]]
        raise CocycleError("not a normalized cocycle: %s fails at grading (%s)%s"
                           % (first.axiom, ", ".join(group.labels[g]
                                                     for g in grading), hint))
    return sb


def coboundary(group: FiniteGroup, theta, beta) -> dict:
    """Twist a cocycle by a normalized 1-cochain beta (beta(e) = 1)."""
    if beta[group.identity] != 1:
        raise CocycleError("coboundary cochain must send the identity to 1")
    theta = {key: _fraction(v) for key, v in theta.items()}
    beta = {g: _fraction(v) for g, v in beta.items()}
    out = {}
    for g in group.elements():
        for h in group.elements():
            out[g, h] = theta[g, h] * beta[g] * beta[h] / beta[group.mul(g, h)]
    return out


def klein_anticommuting_cocycle():
    """The nontrivial bilinear cocycle on Z/2 x Z/2 (labels '00'..'11')."""
    K = klein_four_group()
    bits = {K.index(lbl): (int(lbl[0]), int(lbl[1])) for lbl in K.labels}
    theta = {}
    for g in K.elements():
        for h in K.elements():
            theta[g, h] = Fraction(-1) ** (bits[g][1] * bits[h][0])
    return K, theta


def to_crossed_bundle(sb: ScalarBundle) -> CrossedBundle:
    """Inflate the scalar data to a rank-one crossed bundle.

    Each block is one value with legs of dimension 1: theta for fusion,
    1/(c * theta) for fission, tau for transport.  One constructor call per
    distinct value of a family makes a block that every key holding that
    value shares, as a constant bundle shares its blocks, so each block has
    the den, tier and bound of its own value."""
    c, exact = sb.counit_scalar, sb.exact

    def shared(values, block):
        made = {v: Tensor(block(v), exact=exact) for v in set(values.values())}
        return {k: made[v] for k, v in values.items()}

    return CrossedBundle(group=sb.group, dims=(1,) * sb.group.order,
                         fusion=shared(sb.theta, lambda v: [[[v]]]),
                         fission=shared(sb.theta, lambda v: [[[1 / (c * v)]]]),
                         transport=shared(sb.tau, lambda v: [[v]]),
                         unit=Tensor([1], exact=exact),
                         counit=Tensor([c], exact=exact), tol=sb.tol)


def scalar_surface_product(b: LabeledBordism, sb: ScalarBundle):
    """Holonomy of a closed labeled surface as a plain product of scalars,
    in exact mode of Python ints over Python ints, one Fraction at the end."""
    if not b.is_closed():
        raise LabelError("holonomy needs a closed labeled surface")
    exact, acc, num, den = sb.exact, complex(1), 1, 1
    for t, (layer, ann_row) in enumerate(zip(b.word.layers, b.annotations)):
        cur = b.boundaries[t]
        for gen, ann, q in zip(layer, ann_row, b.word.offsets[t]):
            over = gen is COPANTS  # divides by the factor
            if gen is ID:
                x = sb.tau[ann, cur[q]]
            elif gen is PANTS:
                x = sb.theta[cur[q], cur[q + 1]]
            elif over:
                x = sb.counit_scalar * sb.theta[ann]
            elif gen is CUP:
                x = sb.counit_scalar
            else:  # CAP and SWAP contribute 1
                continue
            if exact:
                n, d = x.numerator, x.denominator
                num, den = (num * d, den * n) if over else (num * n, den * d)
            else:
                acc = acc / x if over else acc * x
    return Fraction(num, den) if exact else acc


def gerbe_holonomy(sb: ScalarBundle, genus: int, handles=()):
    """Holonomy of the closed genus-g surface with handle labels (a_i, b_i).

    Computed twice, as the scalar product along a fixed pants decomposition
    and through the general rank-one bundle evaluator, and the two values
    are required to agree.
    """
    b = closed_surface_word(sb.group, genus, handles)
    direct = scalar_surface_product(b, sb)
    via_bundle = evaluate_labeled(b, sb.crossed_bundle)
    if first_difference(Tensor.scalar(direct, sb.exact), via_bundle,
                        sb.tol) is not None:
        raise CocycleError("scalar walk %s disagrees with the evaluator %s"
                           % (direct, via_bundle.item()))
    return direct


# ---------------------------------------------------------------------------
# cocycle file format

def parse_cocycle(text: str, group: FiniteGroup, exact=True,
                  tol=DEFAULT_TOL) -> ScalarBundle:
    """Parse the cocycle format; ``tol`` is the float-mode tolerance."""
    raw = {"theta": {}, "tau": {}, "counit": {}}
    try:
        for number, line in content_lines(text):
            if line.startswith("cocycle over"):
                continue
            head, _, rhs = line.partition("=")
            toks = head.split()
            val = parse_scalar(rhs.strip(), exact)
            if len(toks) == 3 and toks[0] in ("theta", "tau"):
                key = group.index(toks[1]), group.index(toks[2])
            elif toks == ["counit"]:
                key = ()
            else:
                raise CocycleError("unexpected line")
            values = raw[toks[0]]
            if key in values:
                raise CocycleError("repeated %s" % " ".join(toks))
            if val == 0:
                raise CocycleError("%s must be nonzero" % toks[0])
            values[key] = val
    except InputError as exc:
        raise exc.at_line(number, line)
    one = Fraction(1) if exact else complex(1)
    return from_cocycle(group, raw["theta"], raw["tau"] or None,
                        raw["counit"].get((), one), tol)


def format_cocycle(sb: ScalarBundle, group_filename: str) -> str:
    G = sb.group
    lines = ["cocycle over %s" % group_filename]
    for g in G.elements():
        for h in G.elements():
            if sb.theta[g, h] != 1:
                lines.append("theta %s %s = %s"
                             % (G.labels[g], G.labels[h],
                                format_scalar(sb.theta[g, h])))
    for k in G.elements():
        for g in G.elements():
            if sb.tau[k, g] != 1:
                lines.append("tau %s %s = %s"
                             % (G.labels[k], G.labels[g],
                                format_scalar(sb.tau[k, g])))
    if sb.counit_scalar != 1:
        lines.append("counit = %s" % format_scalar(sb.counit_scalar))
    return "\n".join(lines) + "\n"


def load_cocycle(path: str, exact=True, tol=DEFAULT_TOL):
    """Load a cocycle file; ``tol`` is the float-mode tolerance."""
    text, group = load_over(path, "cocycle", CocycleError)
    return parse_cocycle(text, group, exact=exact, tol=tol)
