"""Independent numerical oracles and the randomized self-check suite.

Every m×m objective term T = X'QX in this package is supposed to satisfy a
trace identity of the form tr(P' T P) = (some explicit sum of squared
distances).  The oracles below evaluate those sums directly with per-sample
Python loops, sharing no code with the moment-form builder, so agreement
between the two is meaningful evidence and not a tautology.  The eigensolver is
checked against an independent dense reference from scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objectives
from .eigsolve import factor_constraint, solve_generalized
from .errors import ConfigError
from .matio import ExperimentConfig


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: worst deviation {self.worst:.3e}{extra}"


# ---------------------------------------------------------------------------
# distance-sum oracles (explicit loops, no shared code with the builders)


def trace_form(term: np.ndarray, projection: np.ndarray) -> float:
    """tr(P' T P) for an m×m term T = X'QX."""
    return float(np.trace(projection.T @ term @ projection))


def _mean_of(rows: list[np.ndarray]) -> np.ndarray:
    total = rows[0] * 0.0
    for row in rows:
        total = total + row
    return total / len(rows)


def oracle_within_scatter(projection, x, labels) -> float:
    """Sum over classes of squared distances to the projected class mean."""
    total = 0.0
    for cls in sorted(set(int(v) for v in labels)):
        members = [x[i] @ projection for i in range(len(labels)) if labels[i] == cls]
        center = _mean_of(members)
        for row in members:
            diff = row - center
            total += float(diff @ diff)
    return total


def oracle_center_push(projection, x, labels, cls) -> float:
    """count * squared distance between a class mean and the rest's mean."""
    members = [x[i] @ projection for i in range(len(labels)) if labels[i] == cls]
    rest = [x[i] @ projection for i in range(len(labels)) if labels[i] != cls]
    if not members or not rest:
        return 0.0
    diff = _mean_of(members) - _mean_of(rest)
    return len(members) * float(diff @ diff)


def oracle_marginal_mmd(projection, xs, xt) -> float:
    diff = _mean_of([row @ projection for row in xs]) - _mean_of(
        [row @ projection for row in xt]
    )
    return float(diff @ diff)


def oracle_conditional_mmd(projection, xs, ys, xt, yt, cls) -> float:
    src = [xs[i] @ projection for i in range(len(ys)) if ys[i] == cls]
    tgt = [xt[i] @ projection for i in range(len(yt)) if yt[i] == cls]
    if not src or not tgt:
        return 0.0
    diff = _mean_of(src) - _mean_of(tgt)
    return float(diff @ diff)


def oracle_cross_push_st(projection, xs, ys, xt, yt, cls) -> float:
    """Squared distance from the source class mean to the mean of the other
    classes' target samples (the target complement)."""
    src = [xs[i] @ projection for i in range(len(ys)) if ys[i] == cls]
    tgt_rest = [xt[i] @ projection for i in range(len(yt)) if yt[i] != cls]
    if not src or not tgt_rest:
        return 0.0
    diff = _mean_of(src) - _mean_of(tgt_rest)
    return float(diff @ diff)


def oracle_cross_push_ts(projection, xs, ys, xt, yt, cls) -> float:
    tgt = [xt[i] @ projection for i in range(len(yt)) if yt[i] == cls]
    src_rest = [xs[i] @ projection for i in range(len(ys)) if ys[i] != cls]
    if not tgt or not src_rest:
        return 0.0
    diff = _mean_of(tgt) - _mean_of(src_rest)
    return float(diff @ diff)


def oracle_pairwise_same_label(projection, x, labels) -> float:
    """Half the sum of squared projected distances over same-label pairs."""
    total = 0.0
    z = [x[i] @ projection for i in range(len(labels))]
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] == labels[j]:
                diff = z[i] - z[j]
                total += float(diff @ diff)
    return 0.5 * total


def oracle_empirical_errors(projection, xs, ys, xt, yt, beta) -> float:
    """Within-class scatter in both domains minus beta times the per-domain
    center separations, every class present with a complement."""
    classes = sorted(set(int(v) for v in ys) | set(int(v) for v in yt))
    total = oracle_within_scatter(projection, xs, ys)
    total += oracle_within_scatter(projection, xt, yt)
    for cls in classes:
        total -= beta * oracle_center_push(projection, xs, ys, cls)
        total -= beta * oracle_center_push(projection, xt, yt, cls)
    return total


def oracle_cross_domain_errors(projection, xs, ys, xt, yt, beta) -> float:
    """Definitional cross-domain score, summed sample by sample: each source
    sample of class c is pulled toward the target class center and pushed
    (weight beta) away from the target complement center, and symmetrically
    for target samples.  Classes missing on either side contribute nothing."""
    total = 0.0
    classes = sorted(set(int(v) for v in ys) | set(int(v) for v in yt))
    for cls in classes:
        src = [xs[i] for i in range(len(ys)) if ys[i] == cls]
        tgt = [xt[i] for i in range(len(yt)) if yt[i] == cls]
        src_rest = [xs[i] for i in range(len(ys)) if ys[i] != cls]
        tgt_rest = [xt[i] for i in range(len(yt)) if yt[i] != cls]
        if not src or not tgt or not src_rest or not tgt_rest:
            continue
        mu_s = _mean_of([v @ projection for v in src])
        mu_t = _mean_of([v @ projection for v in tgt])
        comp_s = _mean_of([v @ projection for v in src_rest])
        comp_t = _mean_of([v @ projection for v in tgt_rest])
        for x in src:
            z = x @ projection
            total += float((z - mu_t) @ (z - mu_t))
            total -= beta * float((z - comp_t) @ (z - comp_t))
        for x in tgt:
            z = x @ projection
            total += float((z - mu_s) @ (z - mu_s))
            total -= beta * float((z - comp_s) @ (z - comp_s))
    return total


# ---------------------------------------------------------------------------
# randomized instances


@dataclass
class Instance:
    xs: np.ndarray
    ys: np.ndarray
    xt: np.ndarray
    yt: np.ndarray
    selected: np.ndarray
    projection: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(max(self.ys.max(), self.yt.max())) + 1

    @property
    def features(self) -> np.ndarray:
        return np.vstack([self.xs, self.xt])


def random_instance(
    rng: np.random.Generator,
    full_selection: bool = False,
    max_samples: int = 30,
    max_dim: int = 16,
    max_classes: int = 4,
) -> Instance:
    n_classes = int(rng.integers(2, max_classes + 1))
    d = int(rng.integers(2, max_dim + 1))
    k = int(rng.integers(1, d + 1))
    n_s = int(rng.integers(n_classes, max_samples + 1))
    n_t = int(rng.integers(n_classes, max_samples + 1))
    # every class present on both sides, remaining labels uniform
    ys = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, n_s - n_classes)]
    )
    yt = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, n_t - n_classes)]
    )
    rng.shuffle(ys)
    rng.shuffle(yt)
    if full_selection:
        selected = np.ones(n_t, dtype=bool)
    else:
        selected = rng.random(n_t) < 0.7
        if not selected.any():
            selected[int(rng.integers(0, n_t))] = True
    return Instance(
        xs=rng.standard_normal((n_s, d)),
        ys=ys.astype(np.int64),
        xt=rng.standard_normal((n_t, d)),
        yt=yt.astype(np.int64),
        selected=selected,
        projection=rng.standard_normal((d, k)),
    )


def _build(inst: Instance, features: np.ndarray, config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Every term of inst's labeling alone and, as "combined", their sum
    under config's weights.  features stand for inst's stacked rows (source
    first); the source moments and the selected target rows come from them."""
    xs, xt = features[: inst.ys.shape[0]], features[inst.ys.shape[0] :]
    moments = objectives.source_moments(xs, xt, inst.ys, inst.n_classes)
    xt_sel = xt[inst.selected]
    y_sel = inst.yt[inst.selected]
    weights = objectives.term_weights(config)
    built = objectives.build_objective_matrices(moments, xt_sel, y_sel, weights)
    return {**objectives.objective_terms(moments, xt_sel, y_sel), "combined": built.combined}


# The check name of each term whose check is not named after the term.
_TERM_CHECKS = {"mmd": "mmd_all", "cross_st": "cross_push_st", "cross_ts": "cross_push_ts"}


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _first_per_class(labels: np.ndarray, count: int) -> np.ndarray:
    keep = [np.flatnonzero(labels == cls)[:count] for cls in range(int(labels.max()) + 1)]
    return np.sort(np.concatenate(keep))


def _balanced_subinstance(inst: Instance) -> Instance:
    """Fully selected sub-instance with the same count for every class in
    each domain: the first rows of each class, as many as the rarest has."""
    keep_s = _first_per_class(inst.ys, int(np.bincount(inst.ys).min()))
    keep_t = _first_per_class(inst.yt, int(np.bincount(inst.yt).min()))
    return Instance(
        xs=inst.xs[keep_s],
        ys=inst.ys[keep_s],
        xt=inst.xt[keep_t],
        yt=inst.yt[keep_t],
        selected=np.ones(keep_t.shape[0], dtype=bool),
        projection=inst.projection,
    )


def check_objective_terms(seed: int = 0, cases: int = 20, tol: float = 1e-8) -> list[CheckResult]:
    """Compare every m×m term against the sum over classes of its
    distance-sum oracle on random instances, including partially selected
    ones."""
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def record(name: str, err: float) -> None:
        worst[name] = max(worst.get(name, 0.0), err)

    for case in range(cases):
        inst = random_instance(rng, full_selection=(case % 2 == 0))
        f = inst.features
        p = inst.projection
        classes = range(inst.n_classes)
        sel = inst.selected
        xt_sel = inst.xt[sel]
        yt_sel = inst.yt[sel]
        terms = _build(inst, f, ExperimentConfig())
        oracle: dict[str, float] = {}

        oracle["within_class"] = oracle_within_scatter(p, inst.xs, inst.ys)
        if sel.any():
            oracle["within_class"] += oracle_within_scatter(p, xt_sel, yt_sel)

        oracle["center_push"] = sum(
            oracle_center_push(p, inst.xs, inst.ys, cls)
            + oracle_center_push(p, xt_sel, yt_sel, cls)
            for cls in classes
        )

        conditional = sum(
            oracle_conditional_mmd(p, inst.xs, inst.ys, xt_sel, yt_sel, cls)
            for cls in classes
        )
        oracle["mmd"] = oracle_marginal_mmd(p, inst.xs, inst.xt) + conditional

        # the pull/push pair only exists for classes present on both
        # sides, so the term oracles are gated the same way
        present = [cls for cls in classes if (yt_sel == cls).any()]
        oracle["cross_st"] = sum(
            oracle_cross_push_st(p, inst.xs, inst.ys, xt_sel, yt_sel, cls) for cls in present
        )
        oracle["cross_ts"] = sum(
            oracle_cross_push_ts(p, inst.xs, inst.ys, xt_sel, yt_sel, cls) for cls in present
        )

        x_labeled = np.vstack([inst.xs, xt_sel]) if sel.any() else inst.xs
        y_labeled = np.concatenate([inst.ys, yt_sel])
        oracle["laplacian"] = oracle_pairwise_same_label(p, x_labeled, y_labeled)

        for term in objectives.TERMS:
            check = _TERM_CHECKS.get(term, term)
            record(check, _rel_err(trace_form(terms[term], p), oracle[term]))

        if sel.all():
            beta = float(rng.uniform(0.0, 0.9))
            within, push = trace_form(terms["within_class"], p), trace_form(terms["center_push"], p)
            value = within - beta * push
            expected = oracle_empirical_errors(p, inst.xs, inst.ys, inst.xt, inst.yt, beta)
            record("empirical_total", _rel_err(value, expected))

            # count-weighted assembly that should reproduce the definitional
            # sample-level sum exactly; with equal class counts per domain
            # the per-class weights are constant, so the term totals carry
            # it, and the marginal part of the mmd term is taken back out
            bal = _balanced_subinstance(inst)
            n_sc = bal.xs.shape[0] // inst.n_classes
            n_tc = bal.xt.shape[0] // inst.n_classes
            bal_terms = _build(bal, bal.features, ExperimentConfig())
            conditional = trace_form(bal_terms["mmd"], p) - oracle_marginal_mmd(p, bal.xs, bal.xt)
            value = (1.0 - beta) * trace_form(bal_terms["within_class"], p)
            value += (n_sc + n_tc) * conditional
            value -= beta * n_sc * trace_form(bal_terms["cross_st"], p)
            value -= beta * n_tc * trace_form(bal_terms["cross_ts"], p)
            expected = oracle_cross_domain_errors(p, bal.xs, bal.ys, bal.xt, bal.yt, beta)
            record("cross_domain_total", _rel_err(value, expected))

        params = ExperimentConfig(
            beta=float(rng.uniform(0, 1)),
            lam=float(rng.uniform(0, 2)),
            gamma=float(rng.uniform(0, 2)),
            eta=float(rng.uniform(0, 2)),
            delta=1.0,
        )
        parts = _build(inst, f, params)
        manual = (
            parts["within_class"]
            - params.beta * parts["center_push"]
            + params.lam * parts["mmd"]
            + params.eta * parts["laplacian"]
            - params.gamma * (parts["cross_st"] + parts["cross_ts"])
        )
        record("composition", float(np.abs(parts["combined"] - manual).max()))
        # the operand, built in one pass, against the same weighted sum of
        # the distance-sum oracles
        weights = objectives.term_weights(params)
        expected = sum(weights[name] * oracle[name] for name in objectives.TERMS)
        record("combined", _rel_err(trace_form(parts["combined"], p), expected))
        # a shared translation of every row moves no distance
        shifted = _build(inst, f + 1.0, params)
        for name, mat in parts.items():
            scale = max(1.0, float(np.abs(mat).max()))
            record(f"symmetry:{name}", float(np.abs(mat - mat.T).max()))
            moved = float(np.abs(shifted[name] - mat).max())
            record(f"translation:{name}", moved / scale)
        for name in ("within_class", "laplacian"):
            eigs = np.linalg.eigvalsh(parts[name])
            record(f"psd:{name}", max(0.0, float(-eigs.min())))

    results = []
    for name in sorted(worst):
        bound = 1e-10 if ":" in name else tol
        bound = 1e-8 if name.startswith("psd") else bound
        results.append(CheckResult(name, worst[name] <= bound, worst[name]))
    return results


def check_eigensolver(seed: int = 0, cases: int = 20, tol: float = 1e-8) -> list[CheckResult]:
    """Random symmetric-definite pairs against scipy's dense reference."""
    import scipy.linalg  # the oracle only, so runs need not import scipy

    rng = np.random.default_rng(seed)
    worst_theta = 0.0
    worst_ortho = 0.0
    worst_resid = 0.0
    for _ in range(cases):
        m = int(rng.integers(2, 33))
        k = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, m))
        a = 0.5 * (a + a.T)
        root = rng.standard_normal((m, m))
        b = root @ root.T + 0.5 * np.eye(m)
        w = factor_constraint(b)
        sol = solve_generalized(w.T @ a @ w, k)
        reference = scipy.linalg.eigh(a, b, eigvals_only=True)
        scale = max(1.0, float(np.abs(reference).max()))
        worst_theta = max(
            worst_theta, float(np.abs(sol.eigenvalues - reference[:k]).max()) / scale
        )
        projection = w @ sol.basis
        gram = projection.T @ b @ projection
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(k)).max()))
        worst_resid = max(worst_resid, sol.residual)
    return [
        CheckResult("eigen:theta_vs_reference", worst_theta <= tol, worst_theta),
        CheckResult("eigen:b_orthonormal", worst_ortho <= 1e-6, worst_ortho),
        CheckResult("eigen:residual", worst_resid <= 1e-6, worst_resid),
    ]


def run_suite(seed: int = 0, cases: int = 20) -> list[CheckResult]:
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    if cases < 1:
        raise ConfigError(f"cases must be at least 1, got {cases}")
    return check_objective_terms(seed, cases) + check_eigensolver(seed, cases)
