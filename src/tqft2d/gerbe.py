"""Rank-one bundles: 2-cocycles, scalar transport, and scalar holonomy.

When every fiber is a line, fusion is a normalized 2-cocycle theta on the
group, fission is forced to 1/(c * theta), and transport is a scalar
function tau compatible with conjugation.  Holonomy of a closed labeled
surface reduces to a product of these scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bordism import ARITY, Gen
from .crossed import (CrossedBundle, LabeledBordism, LabelError,
                      closed_surface_word, evaluate_labeled)
from .groups import FiniteGroup, LoopWord, klein_four_group, load_over
from .report import ValidationReport
from .tensor import (DEFAULT_TOL, Tensor, differences, first_difference,
                     parse_scalar, format_scalar)


class CocycleError(ValueError):
    """Malformed cocycle data (missing entries, zero values, bad file)."""


def _table(group, values, exact):
    """A (g, h) -> scalar dict as (numerators, den) of the tensor [g, h]."""
    els = group.elements()
    t = Tensor([[values[g, h] for h in els] for g in els], exact=exact)
    return t.nums, t.den


def _mismatches(lhs, lhs_den, rhs, rhs_den, exact, tol):
    """Where lhs / lhs_den and rhs / rhs_den differ, for arrays of int
    numerators (complex entries over 1 in float mode); see
    ``tensor.differences``."""
    return differences(Tensor.from_nums(lhs, lhs_den, exact),
                       Tensor.from_nums(rhs, rhs_den, exact), tol)


def _complete(group, data, default):
    out = {}
    for g in group.elements():
        for h in group.elements():
            out[g, h] = data.get((g, h), default)
    return out


@dataclass
class ScalarBundle:
    group: FiniteGroup
    theta: dict          # (g, h) -> scalar, the fusion cocycle
    tau: dict            # (k, g) -> scalar transport A_g -> A_{kgk^-1}
    counit_scalar: object = Fraction(1)
    tol: float = DEFAULT_TOL  # float-mode tolerance of every comparison

    def __post_init__(self):
        G = self.group
        for g in G.elements():
            for h in G.elements():
                if (g, h) not in self.theta:
                    raise CocycleError("missing theta(%d,%d)" % (g, h))
                if self.theta[g, h] == 0:
                    raise CocycleError("theta(%d,%d) is zero" % (g, h))
                if (g, h) not in self.tau:
                    raise CocycleError("missing tau(%d,%d)" % (g, h))
                if self.tau[g, h] == 0:
                    raise CocycleError("tau(%d,%d) is zero" % (g, h))
        if self.counit_scalar == 0:
            raise CocycleError("counit scalar must be nonzero")

    @property
    def exact(self):
        return not isinstance(self.counit_scalar, complex)

    @cached_property
    def crossed_bundle(self):
        """The rank-one crossed bundle (``to_crossed_bundle``), built once
        per scalar bundle for ``gerbe_holonomy``'s cross-check."""
        return to_crossed_bundle(self)


def check_theta(group: FiniteGroup, theta, exact=True,
                tol=DEFAULT_TOL) -> ValidationReport:
    """Cocycle identity and normalization for a fusion scalar table; in
    float mode (``exact=False``) values within ``tol`` count as equal."""
    report = ValidationReport()
    report.check("cocycle")
    report.check("normalization")
    e, els = group.identity, group.elements()
    t, d = _table(group, theta, exact)
    ones = np.ones(group.order, dtype=object)
    right = _mismatches(t[:, e], d, ones, 1, exact, tol)
    left = _mismatches(t[e], d, ones, 1, exact, tol)
    for g in els:
        if right[g]:
            report.fail("normalization", (g, e))
        if left[g]:
            report.fail("normalization", (e, g))
    # theta(g,h) theta(gh,k) = theta(h,k) theta(g,hk) on axes (g, h, k)
    mul = np.array(group.table)
    x, y, z = np.ix_(els, els, els)
    bad = _mismatches(t[x, y] * t[mul[x, y], z], d * d,
                      t[y, z] * t[x, mul[y, z]], d * d, exact, tol)
    for idx in np.argwhere(bad):
        report.fail("cocycle", tuple(int(i) for i in idx))
    return report


def check_cocycle(sb: ScalarBundle) -> ValidationReport:
    """Cocycle identity plus transport compatibility and flatness."""
    G = sb.group
    e, els = G.identity, G.elements()
    exact, tol = sb.exact, sb.tol
    report = check_theta(G, sb.theta, exact, tol)
    report.check("transport-compatibility")
    report.check("transport-flatness")
    s, ds = _table(G, sb.theta, exact)
    t, dt = _table(G, sb.tau, exact)
    mul = np.array(G.table)
    conj = np.array([[G.conj(k, g) for g in els] for k in els])
    x, y, z = np.ix_(els, els, els)
    # tau(k,g) tau(k,h) theta(kgk^-1,khk^-1) = tau(k,gh) theta(g,h) on axes (k, g, h)
    compat = _mismatches(t[x, y] * t[x, z] * s[conj[x, y], conj[x, z]], dt * dt * ds,
                         t[x, mul[y, z]] * s[y, z], dt * ds, exact, tol)
    # tau(kl,g) = tau(k,lgl^-1) tau(l,g) on axes (k, l, g)
    flat = _mismatches(t[mul[x, y], z], dt, t[x, conj[y, z]] * t[y, z], dt * dt,
                       exact, tol)
    unit = _mismatches(t[e], dt, np.ones(G.order, dtype=object), 1, exact, tol)
    for k in els:
        for g in els:
            if unit[g]:
                report.fail("transport-flatness", (e, g))
            for h in np.flatnonzero(compat[k, g]):
                report.fail("transport-compatibility", (k, g, int(h)))
            for l in np.flatnonzero(flat[k, :, g]):
                report.fail("transport-flatness", (k, int(l), g))
    return report


def induced_transport(group: FiniteGroup, theta) -> dict:
    """Transport by twisted conjugation: tau(k,g) = theta(k,g)/theta(kgk^-1,k)."""
    tau = {}
    for k in group.elements():
        for g in group.elements():
            tau[k, g] = theta[k, g] / theta[group.conj(k, g), k]
    return tau


def from_cocycle(group: FiniteGroup, theta, tau=None, counit_scalar=Fraction(1),
                 tol=DEFAULT_TOL):
    """Build a scalar bundle; transport defaults to twisted conjugation.

    A complex ``counit_scalar`` makes the bundle a float one: its values are
    complex, and values within ``tol`` count as equal in the cocycle check
    and in the bundle's own checks.
    """
    exact = not isinstance(counit_scalar, complex)
    one = Fraction(1) if exact else complex(1)
    theta = _complete(group, theta, one)
    rep = check_theta(group, theta, exact, tol)
    if not rep.passed:
        raise CocycleError(
            "not a normalized cocycle (%s); dividing by the coboundary of "
            "beta(g) = theta(g,e) normalizes the unit values"
            % ", ".join(rep.failed_axioms()))
    if tau is None:
        tau = induced_transport(group, theta)
    else:
        tau = _complete(group, tau, one)
    return ScalarBundle(group=group, theta=theta, tau=tau,
                        counit_scalar=counit_scalar, tol=tol)


def coboundary(group: FiniteGroup, theta, beta) -> dict:
    """Twist a cocycle by a normalized 1-cochain beta (beta(e) = 1)."""
    if beta[group.identity] != 1:
        raise CocycleError("coboundary cochain must send the identity to 1")
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
    """Inflate the scalar data to a rank-one crossed bundle."""
    G = sb.group
    c = sb.counit_scalar
    exact = sb.exact

    def t3(x):
        return Tensor([[[x]]], exact=exact)

    fusion = {k: t3(v) for k, v in sb.theta.items()}
    fission = {k: t3(1 / (c * v)) for k, v in sb.theta.items()}
    transport = {k: Tensor([[v]], exact=exact) for k, v in sb.tau.items()}
    one = 1 if exact else complex(1)
    return CrossedBundle(group=G, dims=(1,) * G.order,
                         fusion=fusion, fission=fission, transport=transport,
                         unit=Tensor([one], exact=exact),
                         counit=Tensor([c], exact=exact), tol=sb.tol)


def scalar_surface_product(b: LabeledBordism, sb: ScalarBundle):
    """Holonomy of a closed labeled surface as a plain product of scalars."""
    if not b.is_closed():
        raise LabelError("holonomy needs a closed labeled surface")
    acc = Fraction(1) if sb.exact else complex(1)
    for t, (layer, ann_row) in enumerate(zip(b.word.layers, b.annotations)):
        qi = 0
        for gen, ann in zip(layer, ann_row):
            ins = b.boundaries[t][qi:qi + ARITY[gen][0]]
            qi += ARITY[gen][0]
            if gen is Gen.ID:
                acc = acc * sb.tau[ann, ins[0]]
            elif gen is Gen.PANTS:
                acc = acc * sb.theta[ins[0], ins[1]]
            elif gen is Gen.COPANTS:
                acc = acc / (sb.counit_scalar * sb.theta[ann])
            elif gen is Gen.CUP:
                acc = acc * sb.counit_scalar
            # CAP and SWAP contribute 1
    return acc


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


def fusion_lambda_check(sb: ScalarBundle, words) -> ValidationReport:
    """Associativity of the fusion scalars between four loop words.

    Word i fuses with word j through the scalar on the grading
    (w_i w_j^-1, w_j w_k^-1); the square lambda_134 . lambda_123 =
    lambda_124 . lambda_234 is exactly one instance of the cocycle identity.
    """
    G = sb.group
    pts = [w.evaluate(G) if isinstance(w, LoopWord) else w for w in words]
    if len(pts) != 4:
        raise ValueError("need exactly four loop words")
    report = ValidationReport()
    report.check("lambda-associativity")

    def lam(i, j, k):
        g = G.mul(pts[i], G.inverse(pts[j]))
        h = G.mul(pts[j], G.inverse(pts[k]))
        return sb.theta[g, h]

    lhs = Tensor.scalar(lam(0, 2, 3) * lam(0, 1, 2), sb.exact)
    rhs = Tensor.scalar(lam(0, 1, 3) * lam(1, 2, 3), sb.exact)
    if first_difference(lhs, rhs, sb.tol) is not None:
        report.fail("lambda-associativity", tuple(pts))
    return report


# ---------------------------------------------------------------------------
# cocycle file format

def parse_cocycle(text: str, group: FiniteGroup, exact=True,
                  tol=DEFAULT_TOL) -> ScalarBundle:
    """Parse the cocycle format; ``tol`` is the float-mode tolerance."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    one = Fraction(1) if exact else complex(1)
    theta_raw, tau_raw = {}, {}
    counit = one
    for ln in lines:
        if ln.startswith("cocycle over"):
            continue
        head, _, rhs = ln.partition("=")
        toks = head.split()
        if not rhs.strip():
            raise CocycleError("missing value in line %r" % ln)
        val = parse_scalar(rhs.strip(), exact)
        if len(toks) == 3 and toks[0] == "theta":
            theta_raw[group.index(toks[1]), group.index(toks[2])] = val
        elif len(toks) == 3 and toks[0] == "tau":
            tau_raw[group.index(toks[1]), group.index(toks[2])] = val
        elif toks == ["counit"]:
            counit = val
        else:
            raise CocycleError("unexpected line %r" % ln)
    return from_cocycle(group, theta_raw, tau_raw or None, counit, tol)


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
    text, group = load_over(path, "cocycle")
    if group is None:
        raise CocycleError("cocycle file must start with 'cocycle over <groupfile>'")
    return parse_cocycle(text, group, exact=exact, tol=tol)
