"""Derive the coefficient files for the order-6 and split schemes.

Offline development tool: it solves the order conditions for the scheme
ansatz in a truncated graded algebra and emits the data files shipped under
``src/cfqm/data``.  The package itself never runs this.

The order conditions live in the free associative algebra generated by the
graded Magnus components alpha_1..alpha_s (grade(alpha_j) = j), truncated
above grade 2s.  A scheme is an equality

    prod_i exp(sum_j x_{i,j} alpha_j) = exp(Omega^[2s])      (+ O(h^{2s+1}))

which must hold word-by-word up to grade 2s.  Split schemes use two
generator families theta_j (exchange part) and nu_j (field part) subject to
the quotient relations [theta_j, theta_k] = [nu_j, nu_k] = 0; their product
alternates exp(sum t_{i,j} theta_j) exp(sum v_{i,j} nu_j) with the trailing
field exponent zero.  Time antisymmetry is built into the parametrization,
so even-grade conditions vanish identically and the solver only fights the
odd grades.

For speed every element is represented by its coefficient vector over the
canonical word list, and a generator acts by a precomputed left-
multiplication matrix; exponentials are nilpotent series applied directly
to vectors.  The slow dictionary route is kept and used to cross-check the
residual of every accepted solution.  Each candidate is then written once,
as the text of its data file, and scored as that text loads through
``schemes.parse_scheme_text``: the scheme that is ranked is the one written.

Usage:
    python3 scripts/derive_scheme_coefficients.py --check-cf4
    python3 scripts/derive_scheme_coefficients.py --solve CF6-5 --starts 40
    python3 scripts/derive_scheme_coefficients.py --solve-all --write
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cfqm import bounds, planner, schemes, spin_model  # noqa: E402

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "cfqm" / "data"

RESIDUAL_ACCEPT = 1e-12  # max |residual component| for an accepted solution


# ---------------------------------------------------------------------------
# canonical words and the dictionary algebra (slow route)
# ---------------------------------------------------------------------------


def word_grade(word) -> int:
    if not word:
        return 0
    if isinstance(word[0], int):
        return sum(word)
    return sum(sum(run) for _, run in word)


def canonical_nonsplit(word):
    return tuple(word)


def canonical_split(word):
    """Merge adjacent same-family runs and sort within runs."""
    runs: list[list] = []
    for fam, indices in word:
        if runs and runs[-1][0] == fam:
            runs[-1][1].extend(indices)
        else:
            runs.append([fam, list(indices)])
    return tuple((fam, tuple(sorted(idx))) for fam, idx in runs)


def dict_mul(a: dict, b: dict, limit: int, canonical) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        g1 = word_grade(w1)
        for w2, c2 in b.items():
            if g1 + word_grade(w2) > limit:
                continue
            w = canonical(w1 + w2)
            out[w] = out.get(w, 0.0) + c1 * c2
    return {w: c for w, c in out.items() if c != 0.0}


def dict_add(a: dict, b: dict, factor: float = 1.0) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0.0) + factor * c
    return out


def dict_comm(a: dict, b: dict, limit: int, canonical) -> dict:
    return dict_add(dict_mul(a, b, limit, canonical),
                    dict_mul(b, a, limit, canonical), -1.0)


def dict_exp(a: dict, limit: int, canonical) -> dict:
    out = {(): 1.0}
    power = {(): 1.0}
    for k in range(1, limit + 1):
        power = dict_mul(power, a, limit, canonical)
        if not power:
            break
        out = dict_add(out, power, 1.0 / math.factorial(k))
    return out


def omega_target(s: int, alphas: dict, limit: int, canonical) -> dict:
    """Truncated Magnus operator on the graded generators (alphas[j] may be
    composite elements, e.g. theta_j + nu_j for the split quotient)."""
    om = dict(alphas[1])

    def comm(*js):
        acc = alphas[js[-1]]
        for j in reversed(js[:-1]):
            acc = dict_comm(alphas[j], acc, limit, canonical)
        return acc

    if s >= 2:
        om = dict_add(om, comm(1, 2), -1.0 / 12.0)
    if s >= 3:
        om = dict_add(om, alphas[3], 1.0 / 12.0)
        om = dict_add(om, comm(2, 3), 1.0 / 240.0)
        om = dict_add(om, comm(1, 1, 3), 1.0 / 360.0)
        om = dict_add(om, comm(2, 1, 2), -1.0 / 240.0)
        om = dict_add(om, comm(1, 1, 1, 2), 1.0 / 720.0)
    if s >= 4:
        raise NotImplementedError("targets are tabulated up to s = 3")
    return om


# ---------------------------------------------------------------------------
# matrix representation (fast route)
# ---------------------------------------------------------------------------


@dataclass
class WordSpace:
    """Canonical word list with left-multiplication matrices per generator."""

    s: int
    limit: int
    split: bool
    words: list
    index: dict
    letters: list          # generator labels, aligned with left_mul
    left_mul: list         # one (N, N) 0/1 matrix per letter
    canonical: object

    @property
    def dim(self) -> int:
        return len(self.words)

    def identity_vec(self) -> np.ndarray:
        vec = np.zeros(self.dim)
        vec[self.index[()]] = 1.0
        return vec

    def vector_of(self, element: dict) -> np.ndarray:
        vec = np.zeros(self.dim)
        for w, c in element.items():
            vec[self.index[w]] = c
        return vec


def _enumerate_words(s: int, limit: int, split: bool):
    canonical = canonical_split if split else canonical_nonsplit
    if split:
        letters = [("T", j) for j in range(1, s + 1)] + [("V", j) for j in range(1, s + 1)]
        letter_words = [((fam, (j,)),) for fam, j in letters]
    else:
        letters = list(range(1, s + 1))
        letter_words = [(j,) for j in letters]
    grades = [word_grade(w) for w in letter_words]
    seen = {(): 0}
    frontier = [()]
    words = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for lw, g in zip(letter_words, grades):
                if word_grade(w) + g > limit:
                    continue
                new = canonical(w + lw)
                if new not in seen:
                    seen[new] = len(words)
                    words.append(new)
                    nxt.append(new)
        frontier = nxt
    words.sort(key=lambda w: (word_grade(w), w))
    index = {w: i for i, w in enumerate(words)}
    return canonical, letters, letter_words, words, index


def build_space(s: int, split: bool) -> WordSpace:
    limit = 2 * s
    canonical, letters, letter_words, words, index = _enumerate_words(s, limit, split)
    n = len(words)
    mats = []
    for lw in letter_words:
        g = word_grade(lw)
        mat = np.zeros((n, n))
        for w, col in index.items():
            if word_grade(w) + g <= limit:
                mat[index[canonical(lw + w)], col] = 1.0
        mats.append(mat)
    return WordSpace(s=s, limit=limit, split=split, words=words, index=index,
                     letters=letters, left_mul=mats, canonical=canonical)


def apply_exp(space: WordSpace, gen_matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """exp(gen_matrix) @ vec for a grade-raising (nilpotent) generator."""
    out = vec.copy()
    term = vec
    for k in range(1, space.limit + 1):
        term = gen_matrix @ term / k
        if not term.any():
            break
        out = out + term
    return out


# ---------------------------------------------------------------------------
# antisymmetric parametrizations
# ---------------------------------------------------------------------------


def free_param_count(rows: int, s: int) -> int:
    return (rows // 2) * s + (rows % 2) * ((s + 1) // 2)


def expand_antisym(free: np.ndarray, rows: int, s: int) -> np.ndarray:
    """Fill an antisymmetric coefficient matrix from its free parameters.

    Row pairs satisfy x[rows-1-i, j] = (-1)^(j+1) x[i, j] (j 1-based); for
    odd row counts the middle row keeps only odd-j entries.
    """
    x = np.zeros((rows, s))
    idx = 0
    for i in range(rows // 2):
        x[i] = free[idx:idx + s]
        idx += s
    if rows % 2:
        mid = rows // 2
        for j0 in range(0, s, 2):
            x[mid, j0] = free[idx]
            idx += 1
    signs = np.array([(-1.0) ** j0 for j0 in range(s)])
    for i in range(rows // 2):
        x[rows - 1 - i] = signs * x[i]
    assert idx == free.size
    return x


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    scheme_id: str
    s: int
    m: int
    split: bool
    t_constant: bool = False  # split variant with a time-independent T part

    def __post_init__(self):
        self.space = build_space(self.s, self.split)
        canonical, limit = self.space.canonical, self.space.limit
        if self.split:
            theta = {j: ({(("T", (j,)),): 1.0} if not (self.t_constant and j > 1) else {})
                     for j in range(1, self.s + 1)}
            nu = {j: {(("V", (j,)),): 1.0} for j in range(1, self.s + 1)}
            alphas = {j: dict_add(theta[j], nu[j]) for j in range(1, self.s + 1)}
            self.theta_mats = [self.space.left_mul[j - 1] for j in range(1, self.s + 1)]
            self.nu_mats = [self.space.left_mul[self.s + j - 1] for j in range(1, self.s + 1)]
        else:
            alphas = {j: {(j,): 1.0} for j in range(1, self.s + 1)}
            self.alpha_mats = self.space.left_mul
        target = dict_exp(omega_target(self.s, alphas, limit, canonical), limit, canonical)
        self.target_dict = target
        self.target_vec = self.space.vector_of(target)

    @property
    def num_params(self) -> int:
        if not self.split:
            return free_param_count(self.m, self.s)
        n_t = (free_param_count(self.m, 1) if self.t_constant
               else free_param_count(self.m, self.s))
        return n_t + free_param_count(self.m - 1, self.s)

    def matrices(self, params: np.ndarray):
        if not self.split:
            return (expand_antisym(params, self.m, self.s),)
        if self.t_constant:
            n_t = free_param_count(self.m, 1)
            tbar = np.zeros((self.m, self.s))
            tbar[:, :1] = expand_antisym(params[:n_t], self.m, 1)
        else:
            n_t = free_param_count(self.m, self.s)
            tbar = expand_antisym(params[:n_t], self.m, self.s)
        vbar = np.zeros((self.m, self.s))
        vbar[:-1] = expand_antisym(params[n_t:], self.m - 1, self.s)
        return tbar, vbar

    def product_vec(self, params: np.ndarray) -> np.ndarray:
        """Coefficient vector of the scheme product (fast matrix route).

        The product with i = 1 leftmost is applied to the identity vector
        from the right, i.e. factors are folded in reverse order.
        """
        vec = self.space.identity_vec()
        if not self.split:
            (x,) = self.matrices(params)
            for i in reversed(range(self.m)):
                gen = sum(x[i, j] * self.alpha_mats[j] for j in range(self.s))
                vec = apply_exp(self.space, gen, vec)
            return vec
        tbar, vbar = self.matrices(params)
        for i in reversed(range(self.m)):
            if np.abs(vbar[i]).max() > 0.0:
                gen = sum(vbar[i, j] * self.nu_mats[j] for j in range(self.s))
                vec = apply_exp(self.space, gen, vec)
            if np.abs(tbar[i]).max() > 0.0:
                gen = sum(tbar[i, j] * self.theta_mats[j] for j in range(self.s))
                vec = apply_exp(self.space, gen, vec)
        return vec

    def product_dict(self, params: np.ndarray) -> dict:
        """Slow dictionary route, used to cross-check accepted solutions."""
        canonical, limit = self.space.canonical, self.space.limit
        out = {(): 1.0}
        if not self.split:
            (x,) = self.matrices(params)
            for i in range(self.m):
                gen = {(j,): x[i, j - 1] for j in range(1, self.s + 1) if x[i, j - 1]}
                out = dict_mul(out, dict_exp(gen, limit, canonical), limit, canonical)
            return out
        tbar, vbar = self.matrices(params)
        for i in range(self.m):
            gen_t = {(("T", (j,)),): tbar[i, j - 1]
                     for j in range(1, self.s + 1) if tbar[i, j - 1]}
            gen_v = {(("V", (j,)),): vbar[i, j - 1]
                     for j in range(1, self.s + 1) if vbar[i, j - 1]}
            if gen_t:
                out = dict_mul(out, dict_exp(gen_t, limit, canonical), limit, canonical)
            if gen_v:
                out = dict_mul(out, dict_exp(gen_v, limit, canonical), limit, canonical)
        return out

    def residual(self, params: np.ndarray) -> np.ndarray:
        return self.product_vec(params) - self.target_vec

    def crosscheck(self, params: np.ndarray) -> float:
        slow = self.space.vector_of(self.product_dict(params))
        fast = self.product_vec(params)
        route_gap = np.abs(slow - fast).max()
        if route_gap > 1e-12:
            raise AssertionError(f"matrix and dictionary routes disagree: {route_gap}")
        return float(np.abs(slow - self.target_vec).max())


# ---------------------------------------------------------------------------
# quality measure and solving
# ---------------------------------------------------------------------------


def _families(problem: Problem, params: np.ndarray) -> list[np.ndarray]:
    """Averaged-basis rows y = x T^{-1} of each exponential family: [y] for
    a non-split problem, [y_rho, y_sigma] for a split one."""
    r = np.linalg.inv(schemes.transform_matrices(problem.s).T)
    return [rows @ r for rows in problem.matrices(params)]


def _y_rows(problem: Problem, params: np.ndarray) -> np.ndarray:
    return np.vstack(_families(problem, params))


def _xbars(problem: Problem, params: np.ndarray) -> np.ndarray:
    """xbar_{i,j} = sum_g y_{i,g} T[g, j] for j = 1..4s, one row per
    exponential, each sum taken left to right over g."""
    t = schemes.t_matrix(problem.s, 4 * problem.s)
    return (_y_rows(problem, params)[:, :, None] * t).sum(axis=1)


def extended_coeff_spread(problem: Problem, params: np.ndarray) -> float:
    """max |xbar_{i,j}| over the extended basis, the constant that drives the
    product-vs-truncation bound; used to rank equally valid solutions."""
    return schemes.compute_cbar(candidate_scheme(problem, params), 1.0)


def _soft_spread(problem: Problem, params: np.ndarray, p: int = 8) -> float:
    """Smooth surrogate of :func:`extended_coeff_spread` (a p-norm instead
    of the max), so gradient descent can slide along the solution family."""
    acc = 0.0
    for value in _xbars(problem, params).ravel().tolist():
        acc += abs(value) ** p
    return acc ** (1.0 / p)


def bound_figure(problem: Problem, params: np.ndarray,
                 h: float = 0.1, n: int = 128) -> float:
    """The per-step bound the candidate implies on a large chain; the final
    ranking criterion among valid solutions."""
    scheme = candidate_scheme(problem, params)
    cbar = schemes.compute_cbar(scheme, 1.0)
    pars = bounds.BoundParams(c=1.0, cbar=cbar, h=h, s=problem.s, m=problem.m, n=n)
    return bounds.step_error(scheme, pars).total


def _project(problem: Problem, params: np.ndarray):
    result = least_squares(problem.residual, params, method="lm",
                           xtol=1e-15, ftol=1e-15, gtol=1e-15,
                           max_nfev=4000 * problem.num_params)
    if np.abs(result.fun).max() < RESIDUAL_ACCEPT:
        return result.x
    return None


def polish_spread(problem: Problem, params: np.ndarray):
    """Minimize the spread surrogate along the solution family by ramping a
    residual penalty, then project back onto the family."""
    from scipy.optimize import minimize

    x = params.copy()
    for weight in (1e6, 1e8, 1e10):
        def objective(q):
            res = problem.residual(q)
            return _soft_spread(problem, q) + weight * float(res @ res)

        x = minimize(objective, x, method="BFGS",
                     options={"maxiter": 300, "gtol": 1e-12}).x
    return _project(problem, x)


def solve_problem(problem: Problem, starts: int, seed: int, spread: float = 1.5):
    """Multi-start on the order conditions, spread-polish every hit, and
    return candidates sorted by the per-step bound figure."""
    rng = np.random.default_rng(seed)
    candidates = []
    for attempt in range(starts):
        x0 = rng.uniform(-spread, spread, size=problem.num_params)
        raw = _project(problem, x0)
        if raw is None:
            continue
        for stage, params in (("raw", raw), ("polished", polish_spread(problem, raw))):
            if params is None:
                continue
            if problem.crosscheck(params) < RESIDUAL_ACCEPT:
                candidates.append((bound_figure(problem, params), attempt, stage, params))
    candidates.sort(key=lambda item: item[0])
    return candidates


# ---------------------------------------------------------------------------
# data file emission
# ---------------------------------------------------------------------------


def format_scheme(problem: Problem, params: np.ndarray, comment: str) -> str:
    """The data file of a candidate: y rows for a non-split problem, rho
    and sigma rows (the averaged rows times Q) for a split one."""
    families = _families(problem, params)
    if problem.split:
        q = schemes.transform_matrices(problem.s).Q
        kind, named = "split", zip(("rho", "sigma"), (rows @ q for rows in families))
    else:
        kind, named = "non-split", [("y", families[0])]
    lines = [f"# {comment}",
             f"scheme {problem.scheme_id} s={problem.s} m={problem.m} kind={kind}"]
    for name, rows in named:
        for row in rows:
            lines.append(name + " " + " ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def candidate_scheme(problem: Problem, params: np.ndarray) -> schemes.CFQMScheme:
    """The scheme exactly as its written file loads (the parser's checks
    included)."""
    return schemes.parse_scheme_text(format_scheme(problem, params, "candidate"),
                                     source="<candidate>")


PROBLEMS = {
    "CF6-5": Problem("CF6-5", s=3, m=5, split=False),
    "CF6-6": Problem("CF6-6", s=3, m=6, split=False),
    "GS6-4": Problem("GS6-4", s=2, m=6, split=True),
    "GS10-6": Problem("GS10-6", s=3, m=10, split=True),
}

COMMENTS = {
    "CF6-5": "Order-6 scheme with five exponentials (least-squares solution "
             "of the order conditions, smallest extended-coefficient spread).",
    "CF6-6": "Order-6 scheme with six exponentials (least-squares solution "
             "of the order conditions, smallest extended-coefficient spread).",
    "GS6-4": "Order-4 split scheme, six exchange/field exponential pairs "
             "(trailing field factor empty).",
    "GS10-6": "Order-6 split scheme, ten exchange/field exponential pairs "
              "(trailing field factor empty).",
}


def free_from_matrix(x: np.ndarray, rows: int, s: int) -> np.ndarray:
    """Inverse of :func:`expand_antisym` (asserts the round trip)."""
    free = []
    for i in range(rows // 2):
        free.extend(x[i])
    if rows % 2:
        mid = rows // 2
        free.extend(x[mid, j0] for j0 in range(0, s, 2))
    free = np.array(free)
    assert np.abs(expand_antisym(free, rows, s) - x).max() < 1e-15
    return free


def check_cf4() -> None:
    """The machinery must reproduce the two shipped order-4 schemes.

    CF4-2 has a discrete solution set, so multi-start must land on the
    known coefficients (up to the alpha_2 sign flip).  CF4-3 sits on a
    one-parameter solution family (3 parameters, 1 + 2 odd-grade Lie
    conditions minus one dependency), so the checks there are that the
    known point satisfies the conditions to machine precision and that
    multi-start finds the family.
    """
    for sid, discrete in (("CF4-2", True), ("CF4-3", False)):
        known = schemes.load_scheme(sid)
        known_x = known.y @ schemes.t_matrix(known.s)
        problem = Problem(sid, s=known.s, m=known.m, split=False)
        known_params = free_from_matrix(known_x, known.m, known.s)
        known_res = np.abs(problem.residual(known_params)).max()
        known_gap = problem.crosscheck(known_params)
        print(f"{sid}: residual at known coefficients {known_res:.3e} "
              f"(dictionary route {known_gap:.3e})")
        if known_res > 1e-14 or known_gap > 1e-14:
            raise SystemExit(f"{sid}: known coefficients fail the order conditions")
        hits = solve_problem(problem, starts=24, seed=11)
        if not hits:
            raise SystemExit(f"{sid}: no solutions found")
        if discrete:
            found = False
            for _, _, _, params in hits:
                (x,) = problem.matrices(params)
                for flip in (1.0, -1.0):
                    candidate = x.copy()
                    candidate[:, 1] *= flip
                    if np.abs(candidate - known_x).max() < 1e-9:
                        found = True
            print(f"{sid}: {len(hits)} solutions, known coefficients "
                  f"{'recovered' if found else 'NOT recovered'}")
            if not found:
                raise SystemExit(f"{sid}: known solution not among the hits")
        else:
            best_spread = min(extended_coeff_spread(problem, c[3]) for c in hits)
            known_spread = extended_coeff_spread(problem, known_params)
            print(f"{sid}: {len(hits)} candidates on the family; best spread "
                  f"{best_spread:.6f}, spread at known coefficients {known_spread:.6f}, "
                  f"gap {best_spread / known_spread - 1:.3%}")
            if best_spread > known_spread * 1.01:
                raise SystemExit(f"{sid}: spread polish missed the good region")


def quick_slope(text: str) -> float:
    scheme = schemes.parse_scheme_text(text, source="<candidate>")
    model = spin_model.random_model(3, seed=5)
    grid = np.geomspace(0.4, 0.8, 4)
    return planner.verify_order(scheme, model, grid, t0=0.1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--solve", action="append", default=[],
                        choices=sorted(PROBLEMS), help="scheme to solve")
    parser.add_argument("--solve-all", action="store_true")
    parser.add_argument("--check-cf4", action="store_true",
                        help="verify the solver rediscovers the order-4 schemes")
    parser.add_argument("--starts", type=int, default=40)
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--write", action="store_true",
                        help="write the data files (default: dry run)")
    parser.add_argument("--t-constant", action="store_true",
                        help="solve split schemes assuming a time-independent "
                             "exchange part")
    args = parser.parse_args(argv)

    if args.check_cf4:
        check_cf4()

    targets = sorted(PROBLEMS) if args.solve_all else args.solve
    for sid in targets:
        problem = PROBLEMS[sid]
        if args.t_constant and problem.split:
            problem = Problem(sid, s=problem.s, m=problem.m, split=True, t_constant=True)
        print(f"{sid}: {problem.num_params} parameters, "
              f"{problem.space.dim} words, solving with {args.starts} starts ...")
        hits = solve_problem(problem, starts=args.starts, seed=args.seed)
        if not hits:
            print(f"{sid}: NO solution found")
            continue
        figure, attempt, stage, params = hits[0]
        print(f"{sid}: {len(hits)} candidates; best per-step bound figure "
              f"{figure:.3e} (start {attempt}, {stage}), spread "
              f"{extended_coeff_spread(problem, params):.6f}")
        comment = COMMENTS[sid]
        if problem.t_constant:
            comment += " Derived for a time-independent exchange part."
        text = format_scheme(problem, params, comment)
        print(text)
        slope = quick_slope(text)
        print(f"{sid}: verify-order slope {slope:.4f} "
              f"(target {2 * problem.s + 1})")
        if args.write:
            path = DATA_DIR / (sid.lower() + ".txt")
            path.write_text(text)
            print(f"{sid}: wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
