"""closed-form workload: one op is one 2x3 state, in-process.

Synthesis ops build a state from (spectrum, E) with build_epu_min_tgx,
build_alpha_beta or build_mems and split it with ls_explicit.  Analysis ops
start from the matrix alone: classify, the closed form the form gate routes
to, ls_numeric, and the negativity of the separable part.  A fixed share of
the analysis states couple two quartets and must be rejected by the gates.
Nearly all the time goes to states, measures, ls and the numerics they call.
"""

import numpy as np

import qqent as qq
from qqent.errors import FormError
from qqent.numerics import DEGENERACY_TOL
from qqent.states import QUARTETS

from harness import WRONG, Op, floats_digest

TOL = 1e-9
NEG_TOL = 1e-8
#: Op kinds of one round, interleaved; each appears once per state slot.
KINDS = (
    "synth.epu", "synth.alpha-beta", "synth.mems",
    "analysis.epu", "analysis.lpu-tgx", "analysis.dense-sgx", "analysis.two-quartet",
)
SLOTS = 36  # states per kind; slot k has rank 1 + k % 6
#: Minimal-TGX coherence positions (0-based) grouped by the quartet holding them.
_QUARTET_POSITIONS = (((0, 4), (1, 3)), ((0, 5), (2, 3)), ((1, 5), (2, 4)))


def random_spectrum(rng, rank):
    lam = np.zeros(6)
    lam[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    return lam


def is_degenerate(rho):
    """True when two eigenvalues fall in one hermitian_eig cluster."""
    w = np.linalg.eigvalsh(rho)
    return bool(np.any(np.diff(w) <= DEGENERACY_TOL))


def coherence_quartet(rho):
    """The quartet holding every off-diagonal entry of a minimal SGX state
    whose complement pair carries no coherence ({1,3,4,6} for a diagonal one)."""
    support = {i for i in range(6) for j in range(6) if i != j and abs(rho[i, j]) > 1e-10}
    return next(q for q in (QUARTETS[1], QUARTETS[0], QUARTETS[2]) if support <= {k - 1 for k in q})


def quartet_rotation(rng):
    """A Haar unitary on the {1,3,4,6} quartet, identity on levels 2 and 5."""
    big = np.eye(6, dtype=complex)
    idx = np.array([0, 2, 3, 5])
    big[np.ix_(idx, idx)] = qq.haar_unitary(4, rng)
    return big


def two_quartet_state(rng, slot):
    """A TGX state with coherence in two different quartets."""
    d = rng.dirichlet(np.ones(6))
    rho = np.diag(d).astype(complex)
    qa, qb = ((0, 1), (0, 2), (1, 2))[slot % 3]
    for q, pick in ((qa, slot // 3 % 2), (qb, slot // 6 % 2)):
        i, j = _QUARTET_POSITIONS[q][pick]
        # PSD: the normalized coherence graph has spectral radius < 1
        c = rng.uniform(0.3, 1.0) * np.sqrt(d[i] * d[j]) / 2 * np.exp(2j * np.pi * rng.uniform())
        rho[i, j], rho[j, i] = c, np.conj(c)
    return rho


class ClosedForm:
    name = "closed-form"

    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng([seed, 1])
        self.residual_max = 0.0
        lpus = qq.enumerate_lpus()
        self.ops = []
        self.inputs = []
        for slot in range(SLOTS):
            rank = 1 + slot % 6
            for kind in KINDS:
                lam = random_spectrum(rng, rank)
                eta = 1.0 if slot % 5 == 4 else rng.uniform()  # every fifth on the Q = 0 edge
                e = qq.physical_entanglement(lam, eta)
                self.ops.append(self._make(kind, rng, slot, lam, e, lpus))

    # -- op construction ----------------------------------------------------

    def _make(self, kind, rng, slot, lam, e, lpus):
        if kind == "synth.mems":
            e = qq.mems_entanglement(lam)
        # E is physical, so Q < 0 only when E = 0: every state built here has entanglement E
        base, _ = qq.build_epu_min_tgx(lam, e)
        if kind.startswith("synth."):
            if kind == "synth.epu":
                build = (qq.build_epu_min_tgx, lam, e)
            elif kind == "synth.alpha-beta":
                build = (qq.build_alpha_beta, lam, qq.alpha_solve(lam, e), 0.0)
            else:
                build = (qq.build_mems, lam)
            self.inputs.append(np.append(lam, e))
            return self._synth_op(kind, build, lam, e, base)
        lpu = lpus[slot % len(lpus)]
        if kind == "analysis.epu":
            rho, expected, explicit = base, e, (lam, e)
        elif kind == "analysis.lpu-tgx":
            alpha, beta = rng.uniform(0.0, np.pi / 2, size=2)
            rho = lpu @ qq.build_alpha_beta(lam, alpha, beta) @ lpu.T
            expected, explicit = qq.e_alpha_beta(lam, alpha, beta), None
        elif kind == "analysis.dense-sgx":
            rot = quartet_rotation(rng)
            rho = lpu @ (rot @ base @ rot.conj().T) @ lpu.T
            expected, explicit = None, None  # the numeric split's xi give the check value
        else:
            rho = two_quartet_state(rng, slot)
            self.inputs.append(rho)
            return self._rejection_op(kind, rho)
        self.inputs.append(rho)
        return self._analysis_op(kind, rho, expected, explicit)

    def _synth_op(self, kind, build, lam, e, canonical):
        """``canonical`` is build_epu_min_tgx(lam, e), the state ls_explicit
        splits.  The built state is checked by its entanglement, not by
        identity with it: near Q = 0 the two agree only to about the square
        root of the rounding in Q (up to 4e-9 seen), with the same spectrum
        and E to 1e-16."""

        def run(tr):
            out = tr.call("states.build", *build)
            rho = out[0] if isinstance(out, tuple) else out
            return rho, tr.call("ls.ls_explicit", qq.ls_explicit, lam, e)

        def check(out):
            rho, dec = out
            got = qq.min_tgx_i_concurrence(rho)
            if abs(got - e) > TOL:
                return WRONG, f"{kind}: E={got!r}, expected {e!r}"
            return self._check_split(canonical, dec, e, None)

        def digest(out):
            rho, dec = out
            return floats_digest(rho, dec.p_e, dec.xi, dec.rho_e, dec.rho_s)

        return Op(kind, run, check, digest)

    def _analysis_op(self, kind, rho, expected, explicit):
        eig_span = "numerics.hermitian_eig." + ("degenerate" if is_degenerate(rho) else "generic")
        quartet = coherence_quartet(rho)
        tau = qq.tau_matrix(rho, quartet)
        real = np.max(np.abs(tau.imag)) <= 1e-12
        takagi_span = "numerics.takagi_symmetric." + ("real" if real else "complex")
        want_tgx = kind != "analysis.dense-sgx"

        def run(tr):
            flags = tr.call("states.classify", qq.classify, rho)
            if flags.is_min_tgx:
                e = tr.call("measures.min_tgx_i_concurrence", qq.min_tgx_i_concurrence, rho)
            elif flags.is_min_sgx:
                e = tr.call("measures.min_sgx_i_concurrence", qq.min_sgx_i_concurrence, rho)
            else:
                return flags, None, None, None  # no closed form applies; the check fails it
            dec = tr.call("ls.ls_numeric", qq.ls_numeric, rho)
            neg = 0.0
            if dec.p_e < 1.0 - 1e-12:  # for p_e = 1 there is no separable part
                neg = tr.call(
                    "numerics.partial_transpose_negativity",
                    qq.partial_transpose_negativity,
                    dec.rho_s,
                )
            return flags, e, dec, neg

        def check(out):
            flags, e, dec, neg = out
            if flags.is_min_tgx != want_tgx or not flags.is_min_sgx:
                return WRONG, f"{kind}: routed to the wrong form ({flags})"
            ref = expected
            if ref is None:
                ref = max(0.0, float(dec.xi[0] - dec.xi[1] - dec.xi[2] - dec.xi[3]))
            if abs(e - ref) > TOL:
                return WRONG, f"{kind}: E={e!r}, expected {ref!r}"
            if explicit is not None:
                exp = qq.ls_explicit(*explicit)
                gap = max(
                    abs(dec.p_e - exp.p_e),
                    float(np.max(np.abs(np.sort(dec.xi) - np.sort(exp.xi)))),
                )
                if gap > TOL:
                    return WRONG, f"{kind}: ls_numeric differs from ls_explicit by {gap!r}"
            return self._check_split(rho, dec, e, neg)

        def digest(out):
            flags, e, dec, neg = out
            return floats_digest(e, dec.p_e, dec.xi, dec.x_kets, dec.rho_s, neg)

        def replay(tr):
            tr.call(eig_span, qq.hermitian_eig, rho)
            tr.call(takagi_span, qq.takagi_symmetric, tau)

        return Op(kind, run, check, digest, replay)

    def _rejection_op(self, kind, rho):
        """A state no closed form covers: both form gates must reject it."""
        gates = (
            ("measures.min_tgx_i_concurrence.rejected", qq.min_tgx_i_concurrence),
            ("ls.ls_numeric.rejected", qq.ls_numeric),
        )

        def run(tr):
            flags = tr.call("states.classify", qq.classify, rho)
            raised = []
            for name, fn in gates:
                try:
                    tr.call(name, fn, rho)
                except FormError as exc:
                    raised.append(type(exc).__name__)
            return flags, raised

        def check(out):
            flags, raised = out
            if flags.is_min_tgx or flags.is_min_sgx or raised != ["NotMinimalTGX", "AmbiguousQuartet"]:
                return WRONG, f"two-quartet state not rejected: {flags}, raised {raised}"
            return None

        return Op(kind, run, check, lambda out: repr(out).encode())

    def _check_split(self, rho, dec, e, neg):
        """Reconstruction, optimality and PPT of an LS split, to TOL / NEG_TOL."""
        recon = float(np.max(np.abs(dec.p_e * dec.rho_e + (1.0 - dec.p_e) * dec.rho_s - rho)))
        if dec.p_e > 1e-12:
            top = dec.x_kets[0] / np.linalg.norm(dec.x_kets[0])
            opt = abs(dec.p_e * qq.pure_i_concurrence(top) - e)
        else:
            opt = abs(e)
        if neg is None:  # the op did not compute it
            neg = 0.0 if dec.p_e >= 1.0 - 1e-12 else qq.partial_transpose_negativity(dec.rho_s)
        self.residual_max = max(self.residual_max, recon, opt)
        if recon > TOL or opt > TOL or neg > NEG_TOL:
            return WRONG, f"split residuals: reconstruction={recon!r} optimality={opt!r} negativity={neg!r}"
        return None

    # -- run protocol -------------------------------------------------------

    def warm_up(self, tracer):
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                op.run(tracer)

    def probe(self, tracer):
        """No calls beyond the ops and their replays."""

    def layer_stats(self, tracer):
        classified = len(tracer.durations("states.classify"))
        routed = len(tracer.durations("measures.min_tgx_i_concurrence")) + len(
            tracer.durations("measures.min_sgx_i_concurrence")
        )
        return {
            "states.form_gate_pass_share": (routed / classified if classified else float("nan"), "share"),
            "ls.residual_max": (self.residual_max, "1"),
        }

    def inputs_digest(self):
        return floats_digest(*self.inputs)
