"""Registry of verifiable q-series identities.

Each record pins one equality between two independently built series (or a
small family of them) together with its default truncation.  Records are the
unit the command line's ``verify`` subcommand runs, and the acceptance suite
drives the registry by tag groups: propositions (defining sum vs character
expansion), structural substitutions, terminating and surgery rewritings,
classical self-tests, hypergeometric transformation instances, and the
Taylor-expansion identities for L-values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError, UnknownIdError
from .report import VerificationReport
from .series import (INFINITY, Monomial, ProductSum, QSeries, coeff_pow, pochhammer,
                     pochhammer_inverse, selftest_eta_cubed, selftest_euler,
                     selftest_q_binomial_theorem, selftest_triple_product,
                     substitute_power)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    description: str
    default_truncation: int
    runner: Callable[[int], VerificationReport]
    tags: frozenset = frozenset()

    def run(self, truncation: Optional[int] = None) -> VerificationReport:
        if truncation is None:
            truncation = self.default_truncation
        elif truncation < 1:
            raise DomainError(f"truncation must be at least 1, got {truncation}: "
                              f"a check over no coefficients proves nothing")
        rep = self.runner(truncation)
        rep.id = self.id
        return rep


_records: dict[str, IdentityRecord] = {}


def _register(rec: IdentityRecord) -> IdentityRecord:
    _records[rec.id] = rec
    return rec


def get_identity(identity_id: str) -> IdentityRecord:
    try:
        return _records[identity_id]
    except KeyError:
        raise UnknownIdError(f"unknown identity id: {identity_id!r}") from None


def identity_ids(tags: Optional[set] = None, include_negative_controls: bool = False
                 ) -> list[str]:
    out = []
    for rec in _records.values():
        if not include_negative_controls and "negative-control" in rec.tags:
            continue
        if tags and not (rec.tags & tags):
            continue
        out.append(rec.id)
    return sorted(out)


def verify_identity(identity_id: str, truncation: Optional[int] = None) -> VerificationReport:
    return get_identity(identity_id).run(truncation)


def verify_all(truncation: Optional[int] = None, tags: Optional[set] = None,
               jobs: int = 1) -> list[VerificationReport]:
    """Run every registered identity (minus negative controls); failures are
    data, not exceptions.  ``jobs`` > 1 fans records out to worker processes
    and merges the reports back in id order."""
    ids = identity_ids(tags)
    if jobs and jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_one, [(i, truncation) for i in ids]))
        return reports
    return [verify_identity(i, truncation) for i in ids]


def _run_one(args) -> VerificationReport:
    identity_id, truncation = args
    return verify_identity(identity_id, truncation)


# ---------------------------------------------------------------------------
# record builders
# ---------------------------------------------------------------------------

def _pair(id_: str, desc: str, default_t: int, lhs_fn, rhs_fn, tags) -> IdentityRecord:
    def runner(t: int) -> VerificationReport:
        lhs, rhs = lhs_fn(t), rhs_fn(t)
        mm = lhs.first_mismatch(rhs)
        return VerificationReport(id=id_, status="pass" if mm is None else "fail",
                                  truncation=t, first_mismatch=mm)
    return _register(IdentityRecord(id_, desc, default_t, runner, frozenset(tags)))


def _multi(id_: str, desc: str, default_t: int, pieces, tags) -> IdentityRecord:
    """pieces(t) yields (label, lhs, rhs) triples; the record passes when all do."""
    def runner(t: int) -> VerificationReport:
        for label, lhs, rhs in pieces(t):
            mm = lhs.first_mismatch(rhs)
            if mm is not None:
                return VerificationReport(id=id_, status="fail", truncation=t,
                                          first_mismatch=mm, detail=f"in {label}")
        return VerificationReport(id=id_, status="pass", truncation=t)
    return _register(IdentityRecord(id_, desc, default_t, runner, frozenset(tags)))


def _adapter(id_: str, desc: str, default_t: int, fn, tags) -> IdentityRecord:
    def runner(t: int) -> VerificationReport:
        return fn(t)
    return _register(IdentityRecord(id_, desc, default_t, runner, frozenset(tags)))


def _variant_pair(id_: str, fn_id: str, va: str, vb: str, default_t: int, tags,
                  desc: Optional[str] = None):
    from . import catalog

    def lhs(t):
        return catalog.expand(fn_id, t, va)

    def rhs(t):
        return catalog.expand(fn_id, t, vb)

    _pair(id_, desc or f"{fn_id}: {va} == {vb}", default_t, lhs, rhs, tags)


# -- propositions: defining sums against character expansions ----------------

_PROPOSITIONS = [
    ("prop_5th_chi0", "chi0_star"), ("prop_5th_chi1", "chi1_star"),
    ("prop_3rd_phi", "phi_star"), ("prop_3rd_nu", "nu_star"),
    ("prop_3rd_phi_minus", "phi_star_minus"), ("prop_3rd_f", "f_star"),
    ("prop_3rd_omega", "omega_star"), ("prop_3rd_chi", "chi3_star"),
    ("prop_3rd_rho", "rho3_star"),
    ("prop_7th_F0", "F0_star"), ("prop_7th_F1", "F1_star"), ("prop_7th_F2", "F2_star"),
    ("prop_6th_phi", "phi6_star"), ("prop_6th_psi", "psi6_star"),
    ("prop_6th_rho", "rho6_star"),
    ("prop_10th_Phi", "Phi10_star"), ("prop_10th_Psi", "Psi10_star"),
    ("prop_10th_X", "X10_star"), ("prop_10th_chi", "chi10_star"),
    ("prop_8th_D5", "D5_star"), ("prop_8th_D6", "D6_star"),
    ("prop_8th_I12", "I12_star"), ("prop_8th_I13", "I13_star"),
]


def _build_propositions():
    for rec_id, fn_id in _PROPOSITIONS:
        t = 240 if fn_id in ("phi_star_minus",) else 200
        _variant_pair(rec_id, fn_id, "defining", "false_theta", t,
                      ("proposition",),
                      desc=f"{fn_id}: defining sum == character expansion")


def _build_fine_forms():
    for rec_id, fn_id in (("fine_form_f", "f"), ("fine_form_omega", "omega"),
                          ("fine_form_chi3", "chi3"), ("fine_form_rho3", "rho3")):
        t = 120 if fn_id in ("chi3", "rho3") else 200
        _variant_pair(rec_id, fn_id, "defining", "fine_form", t, ("fine-form",),
                      desc=f"{fn_id}: product/series definition == single-sum form")


# -- structural substitutions -------------------------------------------------

def _build_structural():
    from . import catalog

    _pair("omega_sq_eq_nu", "omega_star(q^2) == nu_star(q)", 300,
          lambda t: substitute_power(catalog.expand("omega_star", (t + 1) // 2), 2),
          lambda t: catalog.expand("nu_star", t),
          ("structural",))
    _pair("rho_eq_psi_sq", "rho6_star(q) == psi6_star(q^2)", 300,
          lambda t: catalog.expand("rho6_star", t),
          lambda t: substitute_power(catalog.expand("psi6_star", (t + 1) // 2), 2),
          ("structural",))
    _pair("psi_sq_eq_d5_cube", "psi6_star(q^2) == D5_star(q^3)", 300,
          lambda t: substitute_power(catalog.expand("psi6_star", (t + 1) // 2), 2),
          lambda t: substitute_power(catalog.expand("D5_star", (t + 2) // 3), 3),
          ("structural",))


# -- terminating and surgery rewritings ---------------------------------------

def _build_terminating():
    from . import catalog

    def le_pieces(t):
        defining = catalog.expand("chi0_star", t, "defining")
        yield "le_product", defining, catalog.expand("chi0_star", t, "le_product")
        yield "le_sum", defining, catalog.expand("chi0_star", t, "le_sum")

    _multi("le_chi0_forms", "chi0_star: defining == both terminating rewritings",
           200, le_pieces, ("terminating",))
    _variant_pair("le_chi1", "chi1_star", "defining", "le", 200, ("terminating",))
    _variant_pair("phi_star_finite", "phi_star", "defining", "finite", 200,
                  ("terminating",))
    _variant_pair("nu_star_finite", "nu_star", "defining", "finite", 200,
                  ("terminating",))
    _variant_pair("chi0_star_surgery", "chi0_star", "defining", "surgery", 100,
                  ("surgery",))
    _variant_pair("phi_star_surgery", "phi_star", "defining", "surgery", 100,
                  ("surgery",))
    _variant_pair("F0_star_surgery", "F0_star", "defining", "surgery", 100,
                  ("surgery",))
    _variant_pair("F0_star_double_sum", "F0_star", "defining", "double_sum", 200,
                  ("terminating",))


# -- classical self-tests ------------------------------------------------------

def _build_classical():
    _adapter("euler_identity_q", "Euler identity with z = q", 500,
             lambda t: selftest_euler(t, Monomial.q(1)), ("classical",))
    _adapter("euler_identity_neg_q", "Euler identity with z = -q", 500,
             lambda t: selftest_euler(t, Monomial(-1, 1, 1)), ("classical",))
    _adapter("triple_product_half", "Jacobi triple product, z = q^(1/2)", 100,
             lambda t: selftest_triple_product(Monomial.q(Fraction(1, 2)), t),
             ("classical",))
    _adapter("triple_product_neg_half", "Jacobi triple product, z = -q^(1/2)", 100,
             lambda t: selftest_triple_product(Monomial(-1, 1, 2), t), ("classical",))
    _adapter("triple_product_q", "Jacobi triple product, z = q", 100,
             lambda t: selftest_triple_product(Monomial.q(1), t), ("classical",))
    _adapter("eta_cubed", "cube of the eta product as an odd-weighted theta sum", 400,
             selftest_eta_cubed, ("classical",))

    def qbt(t):
        for n in (0, 2, 5, 8):
            for z in (Monomial.q(1), Monomial.q(3)):
                rep = selftest_q_binomial_theorem(n, z)
                if not rep.passed:
                    return rep
        return VerificationReport(id="q_binomial_theorem", status="pass", truncation=t)

    _adapter("q_binomial_theorem", "finite q-binomial theorem, exact", 100, qbt,
             ("classical",))

    def qbs(t):
        from .series import q_binomial_column
        for z in (Monomial.q(1), Monomial.q(2)):
            en = z.num
            for n in range(0, 11):
                # 1/(z)_N as the binomial series in z, multiplied back by (z)_N
                lhs = QSeries.zero(1, t)
                col = q_binomial_column(n, t)
                m = 0
                while m * en < t:
                    lhs = lhs + next(col).shift(Monomial.q(m * en)).truncate(t)
                    m += 1
                prod = lhs * pochhammer(z, 1, n, t)
                mm = prod.first_mismatch(QSeries.one(1, t))
                if mm is not None:
                    return VerificationReport(id="q_binomial_series", status="fail",
                                              truncation=t, first_mismatch=mm,
                                              detail=f"z=q^{z.exponent}, N={n}")
        return VerificationReport(id="q_binomial_series", status="pass", truncation=t)

    _adapter("q_binomial_series", "1/(z)_N as a binomial series, times (z)_N", 100,
             qbs, ("classical",))

    def qbf(t):
        cases = [(Monomial(0, 0, 1), Monomial.q(1)), (Monomial.q(1), Monomial.q(2)),
                 (Monomial(-1, 1, 1), Monomial.q(1))]
        for a, z in cases:
            # sum_n (a)_n / (q)_n z^n, for integer exponents of a and z
            lhs = ProductSum(lambda n: n * z.num,
                             lambda n: [(a.num + n - 1, a.coeff, 1), (n, 1, -1)] if n else [],
                             lambda n: coeff_pow(z.coeff, n)).series(t)
            az = Monomial(a.coeff * z.coeff, a.num + z.num, 1)
            rhs = pochhammer(az, 1, INFINITY, t) * pochhammer_inverse(z, 1, INFINITY, t)
            mm = lhs.first_mismatch(rhs)
            if mm is not None:
                return VerificationReport(id="q_binomial_formula", status="fail",
                                          truncation=t, first_mismatch=mm,
                                          detail=f"a-exp={a.exponent}, z-exp={z.exponent}")
        return VerificationReport(id="q_binomial_formula", status="pass", truncation=t)

    _adapter("q_binomial_formula", "binomial sum equals the product ratio", 100, qbf,
             ("classical",))


# -- hypergeometric transformation instances -----------------------------------

def _build_transformations():
    # instances of the two-base transformation used for the order-6 proofs;
    # factors are (e, c, s) for (1 - c q^e)^s entering the running product
    def andrews_1(t):
        # alpha=0, beta=q, gamma=-q^2, z=q
        lhs = ProductSum(lambda n: n, lambda n: [
            (2 * n - 1, 1, 1), (2 * n, 1, 1), (2 * n, 1, -1), (2 * n, -1, -1),
            (2 * n + 1, -1, -1)] if n else []).series(t)
        pref = pochhammer(Monomial.q(1), 1, INFINITY, t) \
            * pochhammer_inverse(Monomial(-1, 2, 1), 1, INFINITY, t) \
            * pochhammer_inverse(Monomial.q(1), 2, INFINITY, t)
        msum = ProductSum(lambda m: m, lambda m: [
            (m, -1, 1), (2 * m - 1, 1, 1), (m, 1, -1)] if m else []).series(t)
        return lhs, pref * msum

    def andrews_2(t):
        # alpha=0, beta=q, gamma=-q, z=q
        lhs = ProductSum(lambda n: n, lambda n: [
            (2 * n - 1, 1, 1), (2 * n, 1, 1), (2 * n, 1, -1), (2 * n - 1, -1, -1),
            (2 * n, -1, -1)] if n else []).series(t)
        pref = pochhammer(Monomial.q(1), 1, INFINITY, t) \
            * pochhammer_inverse(Monomial(-1, 1, 1), 1, INFINITY, t) \
            * pochhammer_inverse(Monomial.q(1), 2, INFINITY, t)
        # (-1; q)_m jumps to 2 at m = 1
        msum = ProductSum(lambda m: m, lambda m: ([(m - 1, -1, 1)] if m > 1 else [])
                          + [(2 * m - 1, 1, 1), (m, 1, -1)],
                          lambda m: 2, start=1, constant=1).series(t)
        return lhs, pref * msum

    def andrews_3(t):
        # alpha=q, beta=-q, gamma=0, z=q^2
        lhs = ProductSum(lambda n: 2 * n, lambda n: [
            (2 * n - 1, 1, 1), (2 * n - 1, -1, 1), (2 * n, -1, 1),
            (2 * n, 1, -1)] if n else []).series(t)
        pref = pochhammer(Monomial(-1, 1, 1), 1, INFINITY, t) \
            * pochhammer(Monomial.q(3), 2, INFINITY, t) \
            * pochhammer_inverse(Monomial.q(2), 2, INFINITY, t)
        msum = ProductSum(lambda m: m, lambda m: [
            (2 * m, 1, 1), (m, 1, -1), (2 * m + 1, 1, -1)] if m else [],
            lambda m: -1 if m % 2 else 1).series(t)
        return lhs, pref * msum

    def andrews_4(t):
        # base q^2: alpha=0, beta=q^2, gamma=-q^4, z=q^2
        lhs = ProductSum(lambda n: 2 * n, lambda n: [
            (4 * n - 2, 1, 1), (4 * n, 1, 1), (4 * n, 1, -1), (4 * n, -1, -1),
            (4 * n + 2, -1, -1)] if n else []).series(t)
        pref = pochhammer(Monomial.q(2), 2, INFINITY, t) \
            * pochhammer_inverse(Monomial(-1, 4, 1), 2, INFINITY, t) \
            * pochhammer_inverse(Monomial.q(2), 4, INFINITY, t)
        msum = ProductSum(lambda m: 2 * m, lambda m: [
            (2 * m, -1, 1), (4 * m - 2, 1, 1), (2 * m, 1, -1)] if m else []).series(t)
        return lhs, pref * msum

    def fine_1(t):
        # alpha=1, beta=0, z=q
        lhs = ProductSum(lambda m: m, lambda m: [
            (2 * m - 1, 1, 1), (2 * m, 1, 1), (m, 1, -1), (m, 1, -1)] if m else []).series(t)
        tail = {}
        k = 0
        while k * (3 * k + 3) // 2 < t:
            tail[k * (3 * k + 3) // 2] = -1 if k % 2 else 1
            k += 1
        rhs = pochhammer_inverse(Monomial.q(1), 1, INFINITY, t) * QSeries.make(1, t, tail)
        return lhs, rhs

    def fine_2(t):
        # alpha=q, beta=0, z=q
        lhs = ProductSum(lambda m: m, lambda m: [
            (2 * m, 1, 1), (2 * m + 1, 1, 1), (m + 1, 1, -1), (m, 1, -1)] if m else []
        ).series(t)
        tail = {}
        k = 0
        while 2 * k + k * (3 * k + 1) // 2 < t:
            tail[2 * k + k * (3 * k + 1) // 2] = -1 if k % 2 else 1
            k += 1
        rhs = pochhammer_inverse(Monomial.q(1), 1, INFINITY, t) * QSeries.make(1, t, tail)
        return lhs, rhs

    def fine_2071(t):
        # base q^2 with argument q; the even/odd split behind nu_star's
        # terminating form (the overall 1/(1 + q) enters at n = 0)
        lhs = ProductSum(lambda n: n, lambda n: [(2 * n + 1, -1, -1)]).series(t)
        rhs = ProductSum(lambda n: 2 * n, lambda n: [(4 * n - 2, 1, 1)] if n else []).series(t)
        return lhs, rhs

    def fine_2072(t):
        # base -q with argument q; the alternating split behind phi_star's
        # terminating form (the overall 1 - q enters at n = 0)
        lhs = ProductSum(lambda n: n, lambda n: [(n, 1 if n % 2 else -1, 1)] if n
                         else [(1, 1, 1)]).series(t)
        rhs = ProductSum(lambda n: 2 * n, lambda n: [(2 * n + 1, 1, -1)] if n else [],
                         lambda n: -1 if n % 2 else 1).series(t)
        return lhs, rhs

    for name, builder, desc in (
            ("andrews_spec_1", andrews_1, "two-base transformation: order-6 psi instance"),
            ("andrews_spec_2", andrews_2, "two-base transformation: order-6 phi instance"),
            ("andrews_spec_3", andrews_3, "two-base transformation: order-6 rho instance"),
            ("andrews_spec_4", andrews_4, "two-base transformation: squared-base instance"),
            ("fine_spec_1", fine_1, "single-base transformation: order-6 psi instance"),
            ("fine_spec_2", fine_2, "single-base transformation: order-6 phi instance"),
            ("fine_2071_order3", fine_2071, "even/odd split behind the nu_star rewriting"),
            ("fine_2072_order3", fine_2072, "alternating split behind the phi_star rewriting"),
    ):
        def runner(t, b=builder, n=name):
            lhs, rhs = b(t)
            mm = lhs.first_mismatch(rhs)
            return VerificationReport(id=n, status="pass" if mm is None else "fail",
                                      truncation=t, first_mismatch=mm)
        _register(IdentityRecord(name, desc, 150, runner, frozenset(("transformation",))))


def verify_fine_andrews_specializations(truncation: int = 150) -> list[VerificationReport]:
    """Run the transformation-formula instances used in the terminating-form
    proofs, as univariate series identities."""
    return [verify_identity(i, truncation) for i in identity_ids({"transformation"})]


# -- L-value generating identities ---------------------------------------------

def _build_tseries():
    def make_runner(spec_id):
        def runner(order):
            from . import lfunc
            return lfunc.verify_t_series(spec_id, order)
        return runner

    for spec_id in ("t_chi60_111", "t_chi60_112", "t_chi24_1", "t_chi24_2"):
        _register(IdentityRecord(
            spec_id, f"exponential-variable expansion matches L-values ({spec_id})",
            10, make_runner(spec_id), frozenset(("tseries",))))

    def lvalue_runner(kmax):
        from . import lfunc
        return lfunc.verify_l_value_routes(kmax)

    _register(IdentityRecord(
        "l_value_routes", "Bernoulli-sum and cosine-ratio L-values agree", 10,
        lvalue_runner, frozenset(("tseries",))))


# -- negative control ------------------------------------------------------------

def _build_negative_control():
    from . import catalog

    def runner(t):
        lhs = catalog.expand("chi0_star", t, "defining")
        rhs = catalog.expand("chi0_star", t, "false_theta")
        corrupted = rhs + QSeries.make(1, t, {7: 1} if t > 7 else {0: 1})
        mm = lhs.first_mismatch(corrupted)
        return VerificationReport(id="negative_control", status="pass" if mm is None
                                  else "fail", truncation=t, first_mismatch=mm)

    _register(IdentityRecord(
        "negative_control", "deliberately corrupted right side; must fail", 60,
        runner, frozenset(("negative-control",))))


def _build_all():
    _build_propositions()
    _build_fine_forms()
    _build_structural()
    _build_terminating()
    _build_classical()
    _build_transformations()
    _build_tseries()
    _build_negative_control()


_build_all()
