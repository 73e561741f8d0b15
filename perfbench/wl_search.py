"""search workload: one op is one decomposition search, in-process.

The mix: min_average_search on the D=2 900-point grid (the fig-2 state and
rotated rank-2 states), D=3, 4 and 6 with 1000 Haar trials on states of rank
2, 3 and 6, and sampled_gen_preconcurrence with 10k samples.  Nearly all
the time goes to decompositions, which calls decompose once per trial; the
gen-preconcurrence ops skip decompose and are the control for a change to it.
Search seeds are small integers, as a user would type them, so repeated
fig-2 searches at D=4 show whether a different seed gives a different answer.
"""

import numpy as np

import qqent as qq

from harness import WRONG, Op, floats_digest
from wl_closed_form import is_degenerate, random_spectrum

TOL = 1e-9
GRID_BUDGET = 900
HAAR_BUDGET = 1000
GEN_SAMPLES = 10_000
GEN_BATCH = 4096  # haar_unitary batch size inside sampled_gen_preconcurrence
REPLAYS = 5  # replayed decompose / hermitian_eig / haar_unitary calls per op (traced)
FIG2_SPECTRUM = (0.7, 0.3, 0.0, 0.0, 0.0, 0.0)
FIG2_E = 0.693

#: One round of searches as (state, D); the gen-preconcurrence ops follow them.
#: Per op, gen-preconcurrence < grid < D=6 < D=3 < D=4 in time; the counts put
#: the median in the middle of the D=3 ops, away from a jump between kinds.
SEARCHES = (
    ("fig2", 2), ("r2a", 2),
    ("r3", 6), ("r6", 6),
    ("fig2", 3), ("r2a", 3), ("r2b", 3), ("r3", 3),
    ("fig2", 4), ("fig2", 4), ("fig2", 4), ("r2a", 4), ("r3", 4), ("r3", 4),
)
GEN_RANKS = (2, 6)


def rotated_state(rng, rank, lpus):
    """An LPU-rotated minimal TGX state with a random spectrum of the given rank."""
    lam = random_spectrum(rng, rank)
    rho, _ = qq.build_epu_min_tgx(lam, qq.physical_entanglement(lam, rng.uniform()))
    u = lpus[int(rng.integers(len(lpus)))]
    return u @ rho @ u.T


class Search:
    name = "search"

    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng([seed, 2])
        lpus = qq.enumerate_lpus()
        self.states = states = {"fig2": qq.build_epu_min_tgx(FIG2_SPECTRUM, FIG2_E)[0]}
        for key, rank in (("r2a", 2), ("r2b", 2), ("r3", 3), ("r6", 6)):
            states[key] = rotated_state(rng, rank, lpus)
        base_seed = seed % 100
        self.excess = {}  # op index -> minimum found minus closed form
        self.minima = {}  # (state, D) -> {search seed: minimum}
        self.ops = []
        self.inputs = [states[k] for k in sorted(states)]
        for index, (key, d) in enumerate(SEARCHES):
            search_seed = base_seed + index
            self.ops.append(self._search_op(index, key, states[key], d, search_seed))
        for rank in GEN_RANKS:
            lam = random_spectrum(rng, rank)
            self.inputs.append(lam)
            self.ops.append(self._gen_op(lam, base_seed + len(self.ops)))

    def _search_op(self, index, key, rho, d, seed):
        grid = d == 2
        budget = GRID_BUDGET if grid else HAAR_BUDGET
        span = "decompositions.search_grid" if grid else "decompositions.search_haar"
        closed = qq.min_tgx_i_concurrence(rho)
        eig_span = "numerics.hermitian_eig." + ("degenerate" if is_degenerate(rho) else "generic")

        def run(tr):
            return tr.call(span, qq.min_average_search, rho, d, budget, seed)

        def check(out):
            best, params = out
            self.excess[index] = best - closed
            self.minima.setdefault((key, d), {})[seed] = best
            if best < closed - TOL:
                return WRONG, f"{key} D={d}: minimum {best!r} below the closed form {closed!r}"
            if key == "fig2" and grid and abs(best - FIG2_E) > TOL:
                return WRONG, f"fig-2 grid minimum {best!r}, expected {FIG2_E}"
            return None

        def digest(out):
            best, params = out
            return floats_digest(best) + repr(params).encode()

        def replay(tr):
            for k in range(REPLAYS):
                if grid:
                    mixer = qq.mixer_2(np.pi / 2 * k / REPLAYS, 2 * np.pi * k / REPLAYS)
                else:
                    mixer = tr.call("numerics.haar_unitary.single", qq.haar_unitary, d, seed ^ k)
                tr.call("decompositions.decompose", qq.decompose, rho, mixer)
                tr.call(eig_span, qq.hermitian_eig, rho)

        return Op(f"{'grid' if grid else 'haar'}.D{d}", run, check, digest, replay)

    def _gen_op(self, lam, seed):
        bound = qq.gen_concurrence_max(lam)

        def run(tr):
            return tr.call(
                "measures.sampled_gen_preconcurrence",
                qq.sampled_gen_preconcurrence, lam, GEN_SAMPLES, seed,
            )

        def check(out):
            if not out <= bound + TOL:
                return WRONG, f"gen preconcurrence {out!r} above its bound {bound!r}"
            return None

        def replay(tr):
            rng = np.random.default_rng(seed)
            tr.call("numerics.haar_unitary.batch", qq.haar_unitary, 6, rng, GEN_BATCH)

        return Op("gen-preconcurrence", run, check, floats_digest, replay)

    def warm_up(self, tracer):
        """One cheap call down each search path."""
        for key, d in (("fig2", 2), ("fig2", 3), ("fig2", 4), ("r6", 6)):
            qq.min_average_search(self.states[key], d, 16, 0)
        qq.sampled_gen_preconcurrence(FIG2_SPECTRUM, 64, 0)

    def probe(self, tracer):
        """No calls beyond the ops and their replays."""

    def layer_stats(self, tracer):
        per_trial = [t / GRID_BUDGET for t in tracer.durations("decompositions.search_grid")]
        per_trial += [t / HAAR_BUDGET for t in tracer.durations("decompositions.search_haar")]
        repeated = [len(set(m.values())) for m in self.minima.values() if len(m) > 1]
        pairs = sum(len(m) - 1 for m in self.minima.values() if len(m) > 1)
        distinct = (sum(repeated) - len(repeated)) / pairs if pairs else float("nan")
        excess = [self.excess[k] for k in sorted(self.excess)]
        return {
            "decompositions.trial_us": (float(np.median(per_trial)) * 1e6, "us"),
            "decompositions.excess_mean": (float(np.mean(excess)), "1"),
            "decompositions.distinct_minima_share": (distinct, "share"),
        }

    def inputs_digest(self):
        return floats_digest(*self.inputs)
