"""The four benchmark workloads.

Each workload turns ``--seed`` into a list of items, runs an item either
untraced (the way a user runs it) or traced (the same public calls, each
wrapped in a span), and checks what the program returned against a
reference the harness computes itself.

An item's result is a dict:

* ``answer``  -- the values the program reported, equal between the untraced
  and the traced run of the same item (None when the program refused);
* ``refusal`` -- the error class name when the program refused, else None;
* ``digest``  -- sha256 of the canonical report bytes (untraced runs only);
* ``counts``  -- exact work counts (traced runs only);
* ``oracle``  -- small-chains only: the oracle's answer, or its refusal.

A check returns ``(kind, message)`` pairs: kind ``refused`` when the program
declined to answer where an answer was due, ``wrong`` when it answered and
the answer is off.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from qsdlab import (
    FiniteChain,
    KernelSpec,
    build_operator,
    cesaro_fit,
    check_h1_modulus,
    check_h2_reachability,
    cli,
    cyclic_components,
    estimate_birkhoff,
    estimate_yaglom,
    exact_qsd_qed,
    exact_spectrum,
    fit_yaglom_rate,
    get_spec,
    lobo_sum,
    mass_decay_check,
    peripheral_spectrum,
    quasi_ergodic_measure,
    quasi_stationary_measure,
    simulate_batch,
    tv_distance,
)
from qsdlab.errors import NeverSubunit, NumericalError, QsdlabError
from qsdlab.spectral import GAP_FLOOR_DEFAULT

import chains
from tracing import no_span

# Residual bound enforced by qsdlab.spectral.spectral_radius on the Perron pair.
RESIDUAL_TOL = 1e-10
# Agreement with the exact oracle on small chains.
ORACLE_TOL = 1e-9
# Size of the perturbation --corrupt-reference applies to a reference value.
CORRUPTION = 1e-6


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def _run_cli(argv):
    """qsdlab.cli.main in-process; None on success, else what went wrong."""
    rc = cli.main(argv + ["--canonical"])
    if rc == 0:
        return None
    return f"exit code {rc}"


def _write_report(path, doc):
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _outdir(workdir, item):
    d = os.path.join(workdir, item["id"].replace("/", "_"))
    os.makedirs(d, exist_ok=True)
    return d


def _start_node(op):
    """cmd_analyze's off-centre starting node."""
    keep = op.nonescape_indices()
    return int(keep[len(keep) // 4])


def _point_mass(size, i):
    nu0 = np.zeros(size)
    nu0[i] = 1.0
    return nu0


def _rate_fit(op, sd, n_max, span, item):
    """The rate-fit branch of cmd_analyze; returns (fit, forward steps)."""
    nu0 = _point_mass(op.size, _start_node(op))
    if sd.period_m == 1:
        with span("qsd.rate_fit", item):
            fit = fit_yaglom_rate(op, nu0, n_max=n_max, sd=sd)
        return fit, len(fit.data)
    with span("qsd.cyclic_components", item):
        part = cyclic_components(sd, op)
    nu0 = _point_mass(op.size, part.classes[0][0])
    with span("qsd.rate_fit", item):
        fit = cesaro_fit(op, nu0, n_max=n_max, sd=sd, partition=part)
    return fit, len(fit.data)


def _mass_decay(op, n_max, span, item):
    with span("qsd.mass_decay", item):
        try:
            decay = mass_decay_check(op, n_max=min(n_max, 60))
        except NeverSubunit:
            return None, min(n_max, 60)
    return decay, len(decay.sup_masses)


def _spectral_answer(lam, m, mu, eta, res_right, res_left, right, left):
    return {
        "lambda": float(lam), "m": int(m),
        "qsd": [float(v) for v in mu], "qed": [float(v) for v in eta],
        "res_right": [float(r) for r in res_right],
        "res_left": [float(r) for r in res_left],
        "f_sup": [float(np.abs(f).max()) for f in right],
        "mu_var": [float(np.abs(v).sum()) for v in left],
    }


def _check_residuals(ans):
    out = []
    for j, (r, s) in enumerate(zip(ans["res_right"], ans["f_sup"])):
        if r > RESIDUAL_TOL * max(s, 1.0):
            out.append(("wrong", f"right residual {r:.2e} of pair {j}"))
    for j, (r, s) in enumerate(zip(ans["res_left"], ans["mu_var"])):
        if r > RESIDUAL_TOL * max(s, 1.0):
            out.append(("wrong", f"left residual {r:.2e} of pair {j}"))
    return out


def _check_probability(name, vec):
    v = np.asarray(vec)
    if v.min() < 0 or abs(v.sum() - 1.0) > 1e-12:
        return [("wrong", f"{name} is not a probability vector")]
    return []


class Workload:
    #: (bundled name, grid size) pairs a fresh interpreter resolves in setup_s.
    setup_specs = ()
    #: what one operation is, in the names of the latency metrics
    op_name = "op"
    #: seconds of one untraced pass on a 2-vCPU Xeon; with --seconds it
    #: fixes the number of passes, so a run's work depends only on its arguments
    pass_s = 1.0

    def items(self, seed, tiny):
        raise NotImplementedError

    def run_plain(self, item, workdir):
        raise NotImplementedError

    def run_traced(self, item, workdir, span):
        raise NotImplementedError

    def extra_counts(self, item):
        """Counts that need work outside the traced pass's timing."""
        return {}

    def check(self, item, result, corrupt):
        raise NotImplementedError

    def extra_metrics(self, items, wall, results):
        """Named metrics that only this workload has, as {name: {value, unit}}.

        ``wall`` is the end-to-end ``wall_s``, ``results`` the item results
        of the first pass.
        """
        return {}


class DenseAnalyze(Workload):
    name = "dense-analyze"
    pass_s = 16.0
    SIZES = {"example21": 1601, "example22cubic": 801, "example23gauss": 801}
    TINY = {"example21": 101, "example22cubic": 51, "example23gauss": 51}
    setup_specs = tuple(SIZES.items())

    def items(self, seed, tiny):
        sizes = self.TINY if tiny else self.SIZES
        order = np.random.default_rng(seed).permutation(sorted(sizes))
        return [{"id": f"{s}@{sizes[s]}", "spec": str(s), "n": sizes[s]} for s in order]

    def run_plain(self, item, workdir):
        out = _outdir(workdir, item)
        refusal = _run_cli(["analyze", "--spec", item["spec"], "--grid-size",
                            str(item["n"]), "--out", out])
        if refusal:
            return {"answer": None, "refusal": refusal, "digest": None}
        files = [os.path.join(out, f) for f in ("analysis.json", "spectral.json", "tv_curve.csv")]
        with open(files[0]) as fp:
            a = json.load(fp)
        with open(files[1]) as fp:
            s = json.load(fp)
        cplx = lambda rows: [np.array([complex(*z) for z in row]) for row in rows]
        ans = _spectral_answer(a["lambda"], a["m"], a["qsd"], a["qed"],
                               s["residuals"]["right_sup"], s["residuals"]["left_tv"],
                               cplx(s["f"]), cplx(s["mu"]))
        ans["rates"] = a["rates"]
        ans["decay"] = a["decay"]
        return {"answer": ans, "refusal": None, "digest": _digest(files)}

    def run_traced(self, item, workdir, span):
        iid = item["id"]
        out = _outdir(workdir, item)
        with span("cli.analyze", iid):
            spec = get_spec(item["spec"], grid_size=item["n"])
            with span("kernels.build_operator", iid):
                op = build_operator(spec)
            with span("kernels.reachability", iid):
                reach = check_h2_reachability(op)
            with span("spectral.peripheral_spectrum", iid):
                sd = peripheral_spectrum(op, reach=reach)
            with span("qsd.measures", iid):
                mu, lam = quasi_stationary_measure(sd)
                eta = quasi_ergodic_measure(sd)
            n_max = 200 if spec.is_explicit else 120
            fit, steps = _rate_fit(op, sd, n_max, span, iid)
            decay, dsteps = _mass_decay(op, n_max, span, iid)
            ans = _spectral_answer(lam, sd.period_m, mu, eta, sd.residuals_right,
                                   sd.residuals_left, sd.right_eigs, sd.left_eigs)
            ans["rates"] = {"yaglom" if sd.period_m == 1 else "cesaro": {
                "model": fit.model, "rate": fit.fitted_rate,
                "constant": fit.fitted_constant, "r2": fit.r_squared,
                "passed": fit.passed}}
            ans["decay"] = ({"n0": None, "alpha": None, "never_subunit": True}
                            if decay is None else
                            {"n0": decay.n0, "alpha": decay.alpha, "never_subunit": False})
            _write_report(os.path.join(out, "traced_analysis.json"), ans)
            _write_report(os.path.join(out, "traced_spectral.json"), sd.to_json_dict())
        counts = {"kernels.matrix_bytes": op.size * op.size * 8, "spectral.calls": 1,
                  "qsd.propagation_steps": steps + dsteps}
        return {"answer": ans, "refusal": None, "counts": counts}

    def check(self, item, result, corrupt):
        if result["answer"] is None:
            return [("refused", f"analyze refused: {result['refusal']}")]
        ans = result["answer"]
        out = _check_residuals(ans)
        out += _check_probability("qsd", ans["qsd"]) + _check_probability("qed", ans["qed"])
        if not 0 < ans["lambda"] < 1 or ans["m"] != 1:
            out.append(("wrong", f"lambda {ans['lambda']!r}, m {ans['m']}"))
        if not all(r["passed"] for r in ans["rates"].values()):
            out.append(("wrong", f"rate fit did not pass: {ans['rates']}"))
        if item["spec"] == "example21":
            # affine doubling with unit window: lam = 1/2 and the survival
            # measure is uniform, i.e. mass 1/2 * quadrature weight per node
            want = 0.5 + (CORRUPTION if corrupt else 0.0)
            if abs(ans["lambda"] - want) > 1e-12:
                out.append(("wrong", f"example21 lambda {ans['lambda']!r} != {want}"))
            n = item["n"]
            w = np.full(n, 2.0 / (n - 1))
            w[0] = w[-1] = 1.0 / (n - 1)
            dev = np.abs(np.asarray(ans["qsd"]) / (0.5 * w) - 1.0).max()
            if dev > 1e-9:
                out.append(("wrong", f"example21 survival measure off uniform by {dev:.2e}"))
        return out


class Audit(Workload):
    name = "audit"
    pass_s = 5.0
    SYSTEMS = ("example21", "example22cubic", "example23gauss")
    setup_specs = tuple((s, 1601) for s in SYSTEMS)

    def items(self, seed, tiny):
        n = 101 if tiny else 1601
        order = np.random.default_rng(seed).permutation(self.SYSTEMS)
        return [{"id": f"{s}@{n}", "spec": str(s), "n": n} for s in order]

    def run_plain(self, item, workdir):
        out = _outdir(workdir, item)
        refusal = _run_cli(["verify-hypothesis", "--spec", item["spec"],
                            "--grid-size", str(item["n"]), "--out", out])
        if refusal:
            return {"answer": None, "refusal": refusal, "digest": None}
        path = os.path.join(out, "hypothesis_report.json")
        with open(path) as fp:
            doc = json.load(fp)
        ans = {"h1": doc["h1"]["verdict"], "h1_sup": doc["h1"]["sup_distances"],
               "h2": doc["h2"]["verdict"], "n_components": doc["h2"]["n_components"],
               "graph_period": doc["h2"]["graph_period"]}
        return {"answer": ans, "refusal": None, "digest": _digest([path])}

    def run_traced(self, item, workdir, span):
        iid = item["id"]
        out = _outdir(workdir, item)
        with span("cli.verify-hypothesis", iid):
            spec = get_spec(item["spec"], grid_size=item["n"])
            with span("kernels.build_operator", iid):
                op = build_operator(spec)
            with span("kernels.reachability", iid):
                reach = check_h2_reachability(op)
            with span("kernels.modulus", iid):
                rep = check_h1_modulus(spec)
            ans = {"h1": rep.verdict, "h1_sup": rep.sup_distances.tolist(),
                   "h2": reach.verdict, "n_components": reach.n_components,
                   "graph_period": reach.graph_period}
            _write_report(os.path.join(out, "traced_hypothesis_report.json"), ans)
        return {"answer": ans, "refusal": None,
                "counts": {"kernels.matrix_bytes": op.size * op.size * 8}}

    def check(self, item, result, corrupt):
        if result["answer"] is None:
            return [("refused", f"verify-hypothesis refused: {result['refusal']}")]
        want = "FAIL" if corrupt else "PASS"
        got = result["answer"]["h2"]
        return [] if got == want else [("wrong", f"H2 verdict {got}, expected {want}")]


class McRejection(Workload):
    name = "mc-rejection"
    pass_s = 4.0
    # (system, horizon): survival ~0.2%, ~0.3% (inverse-CDF path), ~30%
    SYSTEMS = (("example21", 10), ("ds3", 20), ("sym2", 4))
    N_PATHS = 2_000_000
    TINY_PATHS = 1_200_000
    setup_specs = tuple((s, None) for s, _ in SYSTEMS)

    def __init__(self):
        self._refs = {}

    def items(self, seed, tiny):
        rng = np.random.default_rng(seed)
        paths = self.TINY_PATHS if tiny else self.N_PATHS
        return [{"id": f"{s}/n={n}", "spec": s, "n": n, "n_paths": paths,
                 "seed": int(rng.integers(0, 2 ** 31))} for s, n in self.SYSTEMS]

    @staticmethod
    def _start(spec):
        return 0 if spec.is_explicit else float(np.mean(spec.domain))

    @staticmethod
    def _h(spec):
        if spec.is_explicit:
            return lambda s: (s == 1).astype(float)
        return lambda y: y

    def run_plain(self, item, workdir):
        out = _outdir(workdir, item)
        refusal = _run_cli(["simulate", "--spec", item["spec"], "--n", str(item["n"]),
                            "--n-paths", str(item["n_paths"]), "--seed", str(item["seed"]),
                            "--out", out])
        if refusal:
            return {"answer": None, "refusal": refusal, "digest": None}
        path = os.path.join(out, "estimates.csv")
        with open(path, newline="") as fp:
            rows = {r["kind"].split("[")[0]: r for r in csv.DictReader(fp)}
        ans = {"survivors": int(rows["yaglom_histogram"]["survivors"]),
               "hist": [float(v) for v in rows["yaglom_histogram"]["value"].split(";")],
               "tv": float(rows["yaglom_tv_vs_qsd"]["value"]),
               "birkhoff": float(rows["birkhoff_average"]["value"]),
               "birkhoff_stderr": float(rows["birkhoff_average"]["stderr"]),
               "birkhoff_survivors": int(rows["birkhoff_average"]["survivors"])}
        return {"answer": ans, "refusal": None, "digest": _digest([path])}

    def run_traced(self, item, workdir, span):
        iid = item["id"]
        out = _outdir(workdir, item)
        n, n_paths, seed = item["n"], item["n_paths"], item["seed"]
        with span("cli.simulate", iid):
            spec = get_spec(item["spec"])
            with span("kernels.build_operator", iid):
                op = build_operator(spec)
            with span("kernels.reachability", iid):
                reach = check_h2_reachability(op)
            with span("spectral.peripheral_spectrum", iid):
                sd = peripheral_spectrum(op, reach=reach)
            with span("qsd.measures", iid):
                mu, lam = quasi_stationary_measure(sd)
            x0 = self._start(spec)
            with span("simulate.estimate", iid):
                est = estimate_yaglom(spec, x0, n, n_paths, seed=seed, lam_hint=lam,
                                      grid=op.grid)
            tv = tv_distance(est.value, mu)
            with span("simulate.estimate", iid):
                est_b = estimate_birkhoff(spec, x0, n, self._h(spec), n_paths, seed=seed,
                                          lam_hint=lam)
            ans = {"survivors": est.effective_samples,
                   "hist": [float(v) for v in est.value], "tv": float(tv),
                   "birkhoff": float(est_b.value),
                   "birkhoff_stderr": float(est_b.stderr),
                   "birkhoff_survivors": est_b.effective_samples}
            _write_report(os.path.join(out, "traced_estimates.json"), ans)
        counts = {"kernels.matrix_bytes": op.size * op.size * 8, "spectral.calls": 1,
                  "simulate.paths": 2 * n_paths, "simulate.path_steps": 2 * n_paths * n,
                  "simulate.survivors": est.effective_samples + est_b.effective_samples}
        return {"answer": ans, "refusal": None, "counts": counts}

    def extra_counts(self, item):
        # the step loop's live path-steps, from the absorption-time histogram
        # of the same seeded batch the estimators drew
        spec = get_spec(item["spec"])
        n = item["n"]
        batch = simulate_batch(spec, self._start(spec), n, item["n_paths"], seed=item["seed"])
        live = int(np.dot(np.arange(n + 1), batch.tau_histogram)) + batch.survivor_count * n
        return {"simulate.live_path_steps": 2 * live,
                "simulate.batch_survivors": batch.survivor_count}

    def _reference(self, item):
        """Exact n-step conditioned law, survival and Birkhoff mean."""
        key = (item["spec"], item["n"])
        if key not in self._refs:
            spec = get_spec(item["spec"])
            n = item["n"]
            op = build_operator(spec)
            a = op.matrix
            mu = quasi_stationary_measure(peripheral_spectrum(op))[0]
            i0 = int(np.argmin(np.abs(op.grid.nodes - self._start(spec))))
            h = self._h(spec)(op.grid.nodes)
            law = np.linalg.matrix_power(a, n)[i0]
            survival = float(law.sum())
            law = law / survival
            if spec.is_explicit:
                chain = FiniteChain(Q=np.asarray(spec.params["matrix"], dtype=float))
                mean = lobo_sum(chain, h, i0, n) / (n * survival)
                slack = 0.0
            else:
                # the Monte Carlo runs the continuous kernel, the reference its
                # discretization: allow one grid step in TV and in the mean
                # same recursion as oracle.lobo_sum, on the grid operator
                suffix = [np.ones(op.size)]
                for _ in range(n):
                    suffix.append(a @ suffix[-1])
                acc = h * suffix[1]
                for k in range(n - 2, -1, -1):
                    acc = h * suffix[n - k] + a @ acc
                mean = float(acc[i0]) / (n * survival)
                slack = op.grid.step
            self._refs[key] = {"law": law, "survival": survival, "mean": mean,
                               "mu": mu, "slack": slack}
        return self._refs[key]

    def check(self, item, result, corrupt):
        if result["answer"] is None:
            return [("refused", f"simulate refused: {result['refusal']}")]
        ans, ref = result["answer"], self._reference(item)
        out = []
        law = ref["law"].copy()
        mean = ref["mean"]
        if corrupt:
            law = np.roll(law, 1)
            mean += 1.0
        ns, paths = ans["survivors"], item["n_paths"]
        # survivor count: binomial around the exact survival probability (plus
        # 2% for the grid's survival on continuous kernels)
        p = ref["survival"]
        tol = 5 * math.sqrt(paths * p * (1 - p)) + (0.02 * paths * p if ref["slack"] else 0.0)
        if abs(ns - paths * p) > tol:
            out.append(("wrong", f"survivor count {ns}, expected {paths * p:.1f} +- {tol:.1f}"))
        if ans["birkhoff_survivors"] != ns:
            out.append(("wrong", "Yaglom and Birkhoff batches kept different survivors"))
        batch = result.get("counts", {}).get("simulate.batch_survivors", ns)
        if batch != ns:
            out.append(("wrong", f"simulate_batch at the same seed kept {batch} survivors, not {ns}"))
        # Yaglom histogram against the exact n-step law: the TV of multinomial
        # noise has mean ~ sum(sigma_i) / sqrt(2 pi) and a standard deviation
        # below sqrt(sum(sigma_i^2)) / 2; allow the mean plus five of those
        sig = np.sqrt(law * (1 - law) / ns)
        bound = (sig.sum() / math.sqrt(2 * math.pi)
                 + 5 * 0.5 * math.sqrt(float((sig ** 2).sum()))
                 + ref["slack"])
        tv_law = tv_distance(ans["hist"], law)
        if tv_law > bound:
            out.append(("wrong", f"Yaglom TV {tv_law:.4f} to the exact law > {bound:.4f}"))
        if abs(ans["tv"] - tv_distance(law, ref["mu"])) > bound:
            out.append(("wrong", f"reported TV {ans['tv']:.4f} off the predicted "
                                 f"{tv_distance(law, ref['mu']):.4f} by more than {bound:.4f}"))
        z = abs(ans["birkhoff"] - mean)
        if z > 5 * ans["birkhoff_stderr"] + ref["slack"]:
            out.append(("wrong", f"Birkhoff mean {ans['birkhoff']:.5f} vs exact {mean:.5f}"))
        return out

    def extra_metrics(self, items, wall, results):
        steps = sum(2 * it["n_paths"] * it["n"] for it in items)
        survivors = sum(2 * r["answer"]["survivors"] for r in results if r.get("answer"))
        return {"path_steps_per_s": {"unit": "1/s", "value": steps / wall},
                "effective_samples_per_s": {"unit": "1/s", "value": survivors / wall}}


class SmallChains(Workload):
    name = "small-chains"
    op_name = "chain"
    pass_s = 2.0
    COUNT = 333
    TINY_COUNT = 30

    def __init__(self):
        self._refs = {}

    def items(self, seed, tiny):
        gen = chains.generate(seed, self.TINY_COUNT if tiny else self.COUNT)
        return [{"id": f"chain{i}:{kind}", "kind": kind, "q": q}
                for i, (kind, q) in enumerate(gen)]

    def run_plain(self, item, workdir):
        return self._run(item, no_span)

    def run_traced(self, item, workdir, span):
        return self._run(item, span)

    def _run(self, item, span):
        iid, q = item["id"], item["q"]
        n = len(q)
        counts = {"kernels.matrix_bytes": n * n * 8, "spectral.calls": 1,
                  "spectral.refusals": 0, "qsd.propagation_steps": 0}
        res = {"answer": None, "refusal": None, "counts": counts, "oracle": None}
        with span("harness.chain", iid):
            with span("kernels.build_operator", iid):
                op = build_operator(KernelSpec(domain=(0.0, float(n - 1)),
                                               family="explicit_matrix",
                                               params={"matrix": q}, grid_size=n))
            with span("kernels.reachability", iid):
                reach = check_h2_reachability(op)
            try:
                with span("spectral.peripheral_spectrum", iid):
                    sd = peripheral_spectrum(op, reach=reach)
            except NumericalError as exc:
                counts["spectral.refusals"] = 1
                res["refusal"] = type(exc).__name__
            else:
                try:
                    with span("qsd.measures", iid):
                        mu, lam = quasi_stationary_measure(sd)
                        eta = quasi_ergodic_measure(sd)
                    fit, steps = _rate_fit(op, sd, 200, span, iid)
                    _, dsteps = _mass_decay(op, 200, span, iid)
                    counts["qsd.propagation_steps"] = steps + dsteps
                    res["answer"] = {"lambda": float(lam), "m": sd.period_m,
                                     "qsd": mu.tolist(), "qed": eta.tolist()}
                except QsdlabError as exc:
                    res["refusal"] = type(exc).__name__
            with span("oracle.exact_qsd_qed", iid):
                try:
                    mu_o, eta_o, lam_o, m_o = exact_qsd_qed(FiniteChain(Q=np.asarray(q)))
                    res["oracle"] = {"lambda": lam_o, "m": m_o, "qsd": mu_o.tolist(),
                                     "qed": eta_o.tolist()}
                except NumericalError as exc:
                    res["oracle"] = type(exc).__name__
        return res

    def _gap(self, item):
        """1 - subdominant/lam from the oracle's own spectrum."""
        if item["id"] not in self._refs:
            vals = np.abs(exact_spectrum(FiniteChain(Q=np.asarray(item["q"]))).values)
            rest = vals[vals < vals[0] * (1 - 1e-9)]
            self._refs[item["id"]] = 1.0 - (rest.max() / vals[0] if rest.size else 0.0)
        return self._refs[item["id"]]

    def check(self, item, result, corrupt):
        oracle = result["oracle"]
        if not isinstance(oracle, dict):
            return [("refused", f"oracle refused: {oracle}")]
        if result["answer"] is None:
            gap = self._gap(item)
            if gap <= GAP_FLOOR_DEFAULT:
                return []
            return [("refused", f"{result['refusal']} with oracle gap {gap:.3g}")]
        ans = result["answer"]
        errs = []
        if ans["m"] != oracle["m"]:
            errs.append(f"m {ans['m']} vs {oracle['m']}")
        shift = CORRUPTION if corrupt else 0.0
        if abs(ans["lambda"] - oracle["lambda"] - shift) > ORACLE_TOL:
            errs.append(f"lambda {ans['lambda']!r} vs {oracle['lambda']!r}")
        for key in ("qsd", "qed"):
            d = np.abs(np.asarray(ans[key]) - np.asarray(oracle[key])).max()
            if d > ORACLE_TOL:
                errs.append(f"{key} off by {d:.2e}")
        return [("wrong", "; ".join(errs))] if errs else []


WORKLOADS = {w.name: w for w in (DenseAnalyze(), Audit(), McRejection(), SmallChains())}
