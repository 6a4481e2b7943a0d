"""The three workloads: seeded set-up, one round of operations, and the checks
of a round's outputs against the independent reference.

An operation is one call of a public route function or one in-process CLI
command. Every round of a workload attempts the same operations on the same
inputs, so its outputs must match the first round's. The one exception is the
library's duality sampler: each round draws fresh replicates (seed keyed by
the round), and the check pools the rounds' estimates.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import NamedTuple

import numpy as np

import inputs
import reference as ref_mod
from reference import CheckFailure

ROUTES = ("iterate", "linear", "simulate", "asymptotics", "ct_solve", "ct_integrate")
CLI_ROUTE = {
    "iterate": "iterate",
    "linear": "linear",
    "export-T": "linear",
    "simulate": "simulate",
    "limit": "asymptotics",
    "qld": "asymptotics",
    "ct-solve": "ct_solve",
    "ct-integrate": "ct_integrate",
}
DISCRETE_COMMANDS = ("iterate", "linear", "simulate", "limit", "qld", "export-T")
CONTINUOUS_COMMANDS = ("ct-solve", "ct-integrate")
FORMATS = ("csv", "json")
COND_T = 400  # horizon of conditioned_law; large against the gap of inputs.PAIR_WEIGHT


def pooled(key) -> bool:
    """Outputs of duality_estimate calls, which differ between rounds."""
    return key[0] == "simulate"


class Pooled(NamedTuple):
    """What the pooled check reads of a DualityEstimate. Rounds keep only
    this, not the estimate's final states, so that memory (and with it
    peak_rss_mb) does not grow with the number of rounds a run fits in."""

    weights: np.ndarray
    stderr: np.ndarray
    replicates: int

    @classmethod
    def of(cls, est) -> "Pooled":
        return cls(np.array(est.estimate.weights), np.array(est.stderr), est.replicates)


class Round:
    """Route times, operation counts and outputs of one round."""

    def __init__(self):
        self.route_s = dict.fromkeys(ROUTES, 0.0)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict = {}
        self.wall_s = 0.0

    def op(self, route: str, key, fn):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self.route_s[route] += perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        self.route_s[route] += perf_counter() - t0
        self.outputs[key] = out
        return out


class CliError(RuntimeError):
    pass


def run_cli(R, argv: list[str]) -> str:
    """One CLI command in this process; returns what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = R.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise CliError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ------------------------------------------------------------------ fingerprints

def fingerprint(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, str):
        h.update(obj.encode())
    elif isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (int, float, np.floating)):
        h.update(repr(float(obj)).encode())
    elif hasattr(obj, "stack"):  # Metapopulation
        _feed(h, obj.stack())
    elif hasattr(obj, "max_drift"):  # CtTrajectory
        _feed(h, [obj.final, obj.max_drift])
    elif hasattr(obj, "max_sojourn"):  # QldReport
        _feed(h, [obj.max_sojourn, obj.qlim, obj.labelled_qlim])
    elif hasattr(obj, "matrix"):  # LinearSystem, LppGenerator
        _feed(h, _dense(obj.matrix))
    else:
        h.update(repr(obj).encode())


def _dense(matrix) -> np.ndarray:
    return np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix, dtype=float)


# ------------------------------------------------------------- output parsing

def _letters_index(letters: str, sizes) -> int:
    idx = 0
    for a, s in zip((int(x) for x in letters.split(",")), sizes):
        idx = idx * s + a
    return idx


def _location(name: str) -> int:
    return int(name[1:])


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        out.append({
            "quantity": row["quantity"],
            "index": row["index"],
            "value": float(row["value"]),
            **({"stderr": float(row["stderr"])} if row["stderr"] else {}),
        })
    return out


def parse_distribution(case, text: str, fmt: str):
    """(values, stderr or None, scalars) of a per-location distribution output."""
    dim = int(np.prod(case.sizes))
    values = np.full((case.locations, dim), np.nan)
    stderr = None
    scalars = {}
    for row in _rows(text, fmt):
        if ":" not in row["index"]:
            scalars[row["quantity"]] = row["value"]
            continue
        loc, letters = row["index"].split(":", 1)
        i, j = _location(loc), _letters_index(letters, case.sizes)
        values[i, j] = row["value"]
        if "stderr" in row:
            if stderr is None:
                stderr = np.full_like(values, np.nan)
            stderr[i, j] = row["stderr"]
    if np.isnan(values).any():
        raise CheckFailure(f"{case.label}: output misses coordinates")
    return values, stderr, scalars


def _blocks_from_str(text: str):
    return ref_mod.canon([int(s) - 1 for s in b.split(",")] for b in text.split("|"))


def _labelled_from_str(text: str):
    items = []
    for piece in text.split("|"):
        sites, name = piece.split("@")
        items.append((tuple(int(s) - 1 for s in sites.split(",")), _location(name)))
    return tuple(sorted(items))


def parse_qld(text: str, fmt: str) -> dict:
    """eta, peak partitions with their conditional weights, the labelled
    quasi-limit and the stationary location weights."""
    if fmt == "json":
        doc = json.loads(text)
        peaks = {
            ref_mod.canon([s - 1 for s in b] for b in part): p
            for part, p in zip(doc["F"], doc["P_qlim"])
        }
        labelled = {
            tuple(sorted(
                (tuple(s - 1 for s in blk["sites"]), _location(blk["label"]))
                for blk in item["blocks"]
            )): item["p"]
            for item in doc["labelled_qlim"]
        }
        return {"eta": doc["eta"], "peaks": peaks, "labelled": labelled, "q": np.array(doc["q"])}
    out = {"eta": None, "peaks": {}, "labelled": {}, "q": []}
    for row in _rows(text, fmt):
        if row["quantity"] == "eta":
            out["eta"] = row["value"]
        elif row["quantity"] == "P_qlim":
            out["peaks"][_blocks_from_str(row["index"])] = row["value"]
        elif row["quantity"] == "labelled_qlim":
            out["labelled"][_labelled_from_str(row["index"])] = row["value"]
        elif row["quantity"] == "q":
            out["q"].append(row["value"])
    out["q"] = np.array(out["q"])
    return out


def qld_from_report(report) -> dict:
    return {
        "eta": report.max_sojourn,
        "peaks": {ref_mod.canon(p.blocks): w for p, w in report.qlim.items()},
        "labelled": {tuple(lp.items): w for lp, w in report.labelled_qlim.items()},
        "q": np.asarray(report.location_weights),
    }


def row_sums_export(text: str, fmt: str) -> tuple[np.ndarray, float]:
    """Row sums and smallest entry of an exported transition matrix."""
    if fmt == "json":
        matrix = np.array(json.loads(text)["matrix"])
        return matrix.sum(axis=1), float(matrix.min())
    sums: dict[str, float] = {}
    low = 0.0
    for row in _rows(text, fmt):
        src = row["index"].split(" -> ")[0]
        sums[src] = sums.get(src, 0.0) + row["value"]
        low = min(low, row["value"])
    return np.array(list(sums.values())), low


# ------------------------------------------------------------------- checks

class CaseChecks:
    """Checks of one case's outputs, with the reference computed once."""

    def __init__(self, case, ref, checker):
        self.case = case
        self.ref = ref
        self.checker = checker
        self._traj = None

    def at(self, t: int) -> np.ndarray:
        if self._traj is None or len(self._traj) <= t:
            self._traj = self.ref.forward(self.case, max(t, int(self.case.t)))
        return self._traj[t]

    def exact(self, what: str, stack, t: int) -> None:
        self.checker.distribution(what, stack)
        self.checker.close("reference", what, stack, self.at(t), 1e-10)

    def limit(self, what: str, stack) -> None:
        self.checker.distribution(what, stack)
        self.checker.close("limit", what, stack, self.ref.limit(self.case), 1e-9)

    def mc(self, what: str, estimate, stderr, replicates: int, location, t: int) -> None:
        self.checker.distribution(what, estimate)
        self.checker.mc(what, estimate, stderr, replicates, self.at(t)[location])

    def mc_pooled(self, what: str, estimates: list, location: int, t: int) -> None:
        """Independent estimates of equal size pooled: their mean, with the
        standard error of a mean of means."""
        for k, est in enumerate(estimates):
            self.checker.distribution(f"{what} round {k + 1}", est.weights)
        mean = np.mean([e.weights for e in estimates], axis=0)
        stderr = np.sqrt(np.sum([e.stderr ** 2 for e in estimates], axis=0)) / len(estimates)
        self.checker.mc(f"{what} ({len(estimates)} rounds pooled)", mean, stderr,
                        sum(e.replicates for e in estimates), self.at(t)[location])

    def qld(self, what: str, got: dict, tol: float = 1e-12) -> None:
        """Maximal sojourn and its states against the reference block chain;
        `tol` is 1e-11 for CSV text, whose 12 significant digits carry 5e-12."""
        c = self.case
        eta, peaks = ref_mod.sojourn_peaks(c.recomb, c.n)
        self.checker.close("qld_eta", what, got["eta"], eta, tol)
        self.checker.holds(f"{what}: peak states {sorted(got['peaks'])} != {peaks}",
                           sorted(got["peaks"]) == peaks)
        fin = ref_mod.finest(c.n)
        for delta in peaks:
            row = ref_mod.base_row(c.recomb, delta)
            self.checker.close("stay_plus_split", f"{what} {delta}",
                               row.get(delta, 0.0) + row.get(fin, 0.0), 1.0, 1e-12)
        self.checker.distribution(f"{what} P_qlim", np.array(list(got["peaks"].values())))
        self.checker.distribution(f"{what} labelled_qlim", np.array(list(got["labelled"].values())))
        q = got["q"]
        self.checker.close("stationary", f"{what} q", q, ref_mod.stationary(c.migration), 1e-10)
        for items, w in got["labelled"].items():
            base = ref_mod.canon(b for b, _ in items)
            expect = got["peaks"].get(base, 0.0) * np.prod([q[l] for _, l in items])
            self.checker.close("labelled_qlim", f"{what} {items}", w, expect, 10 * tol)

    def conditioned(self, what: str, law: dict, qld: dict) -> None:
        """conditioned_law at COND_T against the labelled quasi-limit, in total
        variation, labelled and label-free."""
        self.checker.distribution(what, np.array(list(law.values())))
        keys = set(law) | set(qld["labelled"])
        tv = 0.5 * sum(abs(law.get(k, 0.0) - qld["labelled"].get(k, 0.0)) for k in keys)
        self.checker.close("conditioned_tv", what, tv, 0.0, 1e-8)
        base: dict = {}
        for items, w in law.items():
            key = ref_mod.canon(b for b, _ in items)
            base[key] = base.get(key, 0.0) + w
        keys = set(base) | set(qld["peaks"])
        tv = 0.5 * sum(abs(base.get(k, 0.0) - qld["peaks"].get(k, 0.0)) for k in keys)
        self.checker.close("conditioned_tv", f"{what} label-free", tv, 0.0, 1e-8)

    def tail(self, what: str, tail) -> None:
        expect = ref_mod.absorption_tail(self.case.recomb, self.case.n, len(tail) - 1)
        self.checker.close("absorption_tail", what, tail, expect, 1e-12)

    def row_sums(self, what: str, sums, low: float, tol: float = 1e-12) -> None:
        self.checker.close("row_sums", what, sums, np.ones_like(sums), tol)
        self.checker.holds(f"{what}: negative transition probability {low}", low >= 0.0)

    def cli(self, cmd: str, fmt: str, text: str) -> None:
        """Checks of one CLI command's output."""
        c = self.case
        what = f"{c.label} {cmd} {fmt}"
        if cmd in ("iterate", "linear"):
            self.exact(what, parse_distribution(c, text, fmt)[0], int(c.t))
        elif cmd == "simulate":
            values, stderr, _ = parse_distribution(c, text, fmt)
            self.mc(what, values, stderr, c.replicates, slice(None), int(c.t))
        elif cmd == "limit":
            self.limit(what, parse_distribution(c, text, fmt)[0])
        elif cmd == "qld":
            self.qld(what, parse_qld(text, fmt), 1e-12 if fmt == "json" else 1e-11)
        elif cmd == "export-T":
            sums, low = row_sums_export(text, fmt)
            # CSV keeps 12 significant digits, so a row sum carries up to 5e-12
            self.row_sums(what, sums, low, 1e-12 if fmt == "json" else 1e-11)
        elif cmd in ("ct-solve", "ct-integrate"):
            values, _, scalars = parse_distribution(c, text, fmt)
            self.checker.distribution(what, values)
            if cmd == "ct-integrate":
                drift = scalars["max_drift"]
                self.checker.holds(f"{what}: max_drift {drift}", 0.0 <= drift < 1e-9)


def check_cli_outputs(R, outputs: dict, cases: dict, checks: dict, checker) -> None:
    """Checks of every CLI output keyed (case label, command, format), plus the
    cross-route agreements between them."""
    for key, text in outputs.items():
        if len(key) == 3 and key[1] in CLI_ROUTE:
            label, cmd, fmt = key
            checks[label].cli(cmd, fmt, text)
    for label, case in cases.items():
        for fmt in FORMATS:
            solve = outputs.get((label, "ct-solve", fmt))
            rk4 = outputs.get((label, "ct-integrate", fmt))
            if solve is not None and rk4 is not None:
                checker.close("ct_routes", f"{label} ct-solve vs ct-integrate {fmt}",
                              parse_distribution(case, rk4, fmt)[0],
                              parse_distribution(case, solve, fmt)[0], 1e-8)
            if solve is not None and case.n == 2:
                closed = R.ct_two_site(case.metapop(R), case.model(R), case.t).stack()
                checker.close("two_site", f"{label} ct_two_site {fmt}", closed,
                              parse_distribution(case, solve, fmt)[0], 1e-8)
        if case.mode == "discrete" and case.n == 2:
            closed = R.two_site_closed_form(case.metapop(R), case.model(R), int(case.t)).stack()
            checks[label].exact(f"{label} two_site_closed_form", closed, int(case.t))


def labelled_law(law: dict) -> dict:
    return {tuple(lp.items): w for lp, w in law.items()}


# ----------------------------------------------------------------- workloads

def labelled_states(n: int, locations: int) -> int:
    """Labelled partitions of n sites over the locations."""
    return sum(locations ** len(p) for p in ref_mod.set_partitions(range(n)))


def _case_seed(seed: int, k: int) -> int:
    return (seed * 7919 + k) % 2**31


def _sampler_seed(seed: int, round_index: int, location: int) -> int:
    return (seed * 7919 + 1000 * (round_index + 1) + location) % 2**31


class Workload:
    def __init__(self, R, seed: int, tiny: bool, workdir: str):
        self.R = R
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def rng(self, stream: int):
        return np.random.default_rng([self.seed % 2**32, stream])

    def write_config(self, case) -> str:
        path = os.path.join(self.workdir, f"{case.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.doc(), fh)
        return path

    def cli_op(self, rd: Round, case, path: str, cmd: str, fmt: str) -> None:
        rd.op(CLI_ROUTE[cmd], (case.label, cmd, fmt),
              lambda: run_cli(self.R, [cmd, "--config", path, "--format", fmt]))


class SmallBatch(Workload):
    """Many small configs through every CLI command, CSV and JSON."""

    def setup(self) -> None:
        R = self.R
        rng = self.rng(1)
        grid_n = (2, 3) if self.tiny else (2, 3, 4)
        grid_l = (1, 2) if self.tiny else (1, 2, 3)
        replicates = 100 if self.tiny else 200
        self.cases = {}
        k = 0
        for n in grid_n:
            sizes = tuple(2 + s % 2 for s in range(n))
            for L in grid_l:
                # the full support only where the labelled closure stays small
                kinds = ("sparse", "full") if labelled_states(n, L) <= 100 else ("sparse",)
                for kind in kinds:
                    case = inputs.discrete_case(
                        rng, f"n{n}L{L}{kind}", sizes, L, kind, 4,
                        seed=_case_seed(self.seed, k), replicates=replicates,
                    )
                    self.cases[case.label] = case
                    k += 1
                case = inputs.continuous_case(rng, f"n{n}L{L}ct", sizes, L, 0.5, 0.5, 5e-3)
                self.cases[case.label] = case
        self.paths = {label: self.write_config(c) for label, c in self.cases.items()}
        self.models = {
            label: c.model(R) for label, c in self.cases.items() if c.mode == "discrete"
        }

    def round(self, rd: Round, index: int) -> None:
        R = self.R
        for label, case in self.cases.items():
            path = self.paths[label]
            commands = DISCRETE_COMMANDS if case.mode == "discrete" else CONTINUOUS_COMMANDS
            for cmd in commands:
                for fmt in FORMATS:
                    self.cli_op(rd, case, path, cmd, fmt)
            if case.mode == "discrete":
                model = self.models[label]
                rd.op("asymptotics", (label, "conditioned_law"),
                      lambda: R.conditioned_law(model, COND_T))
                rd.op("asymptotics", (label, "absorption_tail"),
                      lambda: R.absorption_tail(model, 100))

    def check(self, outputs: dict, pooled_outputs: list, ref, checker) -> None:
        checks = {label: CaseChecks(c, ref, checker) for label, c in self.cases.items()}
        check_cli_outputs(self.R, outputs, self.cases, checks, checker)
        for label, case in self.cases.items():
            law = outputs.get((label, "conditioned_law"))
            qld_text = outputs.get((label, "qld", "json"))
            if law is not None and qld_text is not None:
                checks[label].conditioned(f"{label} conditioned_law", labelled_law(law),
                                          parse_qld(qld_text, "json"))
            tail = outputs.get((label, "absorption_tail"))
            if tail is not None:
                checks[label].tail(f"{label} absorption_tail", tail)


class WideExact(Workload):
    """One large discrete model with every partition in its support, and a
    continuous twin of the same shape, through the library API."""

    def setup(self) -> None:
        R = self.R
        rng = self.rng(2)
        n, L = (3, 2) if self.tiny else (5, 2)
        self.sim_t, self.sim_reps = (4, 200) if self.tiny else (8, 2000)
        sizes = (2,) * n
        t = 16 if self.tiny else 128
        self.case = inputs.discrete_case(rng, "wide", sizes, L, "full", t)
        self.twin = inputs.continuous_case(
            rng, "wide-ct", sizes, L, 0.2, 0.5, 5e-3 if self.tiny else 1e-3
        )
        self.path = self.write_config(self.case)
        self.model, self.mu0 = self.case.model(R), self.case.metapop(R)
        self.ct, self.omega0 = self.twin.model(R), self.twin.metapop(R)

    def round(self, rd: Round, index: int) -> None:
        R, c, tw = self.R, self.case, self.twin
        model, mu0 = self.model, self.mu0
        rd.op("iterate", ("iterate",), lambda: R.iterate(mu0, model, c.t))
        system = rd.op("linear", ("linear", "system"), lambda: R.build_linear_system(model))
        if system is not None:
            rd.op("linear", ("linear", "solve"),
                  lambda: R.solve_linear(mu0, model, c.t, system=system))
        for a in range(c.locations):
            s = _sampler_seed(self.seed, index, a)
            rd.op("simulate", ("simulate", a),
                  lambda: R.duality_estimate(a, mu0, model, self.sim_t, self.sim_reps, s))
        rd.op("asymptotics", ("limit",), lambda: R.limit_metapopulation(mu0, model))
        rd.op("asymptotics", ("qld",), lambda: R.qld(model))
        rd.op("asymptotics", ("absorption_tail",), lambda: R.absorption_tail(model, COND_T))
        rd.op("asymptotics", ("conditioned_law",), lambda: R.conditioned_law(model, COND_T))
        self.cli_op(rd, c, self.path, "limit", "csv")
        self.cli_op(rd, c, self.path, "qld", "json")
        gen = rd.op("ct_solve", ("ct", "generator"), lambda: R.build_generator(self.ct))
        if gen is not None:
            rd.op("ct_solve", ("ct", "solve"),
                  lambda: R.ct_solve_dual(self.omega0, self.ct, tw.t, generator=gen))
        rd.op("ct_integrate", ("ct", "integrate"),
              lambda: R.integrate(self.omega0, self.ct, tw.t, tw.dt))

    def check(self, outputs: dict, pooled_outputs: list, ref, checker) -> None:
        c = self.case
        ck = CaseChecks(c, ref, checker)
        traj = outputs.get(("iterate",))
        if traj is not None:
            for t, mu in enumerate(traj):
                ck.exact(f"iterate t={t}", mu.stack(), t)
        system = outputs.get(("linear", "system"))
        if system is not None:
            matrix = _dense(system.matrix)
            ck.row_sums("T", matrix.sum(axis=1), float(matrix.min()))
        if ("linear", "solve") in outputs:
            ck.exact("solve_linear", outputs[("linear", "solve")].stack(), int(c.t))
        for a in range(c.locations):
            ests = [o[("simulate", a)] for o in pooled_outputs if ("simulate", a) in o]
            if ests:
                ck.mc_pooled(f"duality_estimate location {a}", ests, a, self.sim_t)
        if ("limit",) in outputs:
            ck.limit("limit_metapopulation", outputs[("limit",)].stack())
        report = outputs.get(("qld",))
        if report is not None:
            ck.qld("qld", qld_from_report(report))
            if ("conditioned_law",) in outputs:
                ck.conditioned("conditioned_law", labelled_law(outputs[("conditioned_law",)]),
                               qld_from_report(report))
        if ("absorption_tail",) in outputs:
            ck.tail("absorption_tail", outputs[("absorption_tail",)])
        check_cli_outputs(self.R, outputs, {c.label: c}, {c.label: ck}, checker)
        gen = outputs.get(("ct", "generator"))
        if gen is not None:
            q = _dense(gen.matrix)
            checker.close("generator_rows", "jump generator row sums", q.sum(axis=1),
                          np.zeros(q.shape[0]), 1e-12)
        solve = outputs.get(("ct", "solve"))
        rk4 = outputs.get(("ct", "integrate"))
        if solve is not None:
            checker.distribution("ct_solve_dual", solve.stack())
        if rk4 is not None:
            checker.distribution("integrate", rk4.final.stack())
            checker.holds(f"integrate max_drift {rk4.max_drift}", 0.0 <= rk4.max_drift < 1e-9)
        if solve is not None and rk4 is not None:
            checker.close("ct_routes", "ct_solve_dual vs integrate", rk4.final.stack(),
                          solve.stack(), 1e-8)


class McDual(Workload):
    """Duality Monte Carlo at every location of a one-block-heavy model; the
    other routes run on small companion configs."""

    def setup(self) -> None:
        R = self.R
        rng = self.rng(3)
        n, t, self.reps = (4, 6, 400) if self.tiny else (5, 12, 2000)
        self.case = inputs.one_block_heavy_case(rng, "mc", n, 3, t)
        self.small = inputs.discrete_case(rng, "small", (2, 3, 2), 3, "full", 10)
        self.small_ct = inputs.continuous_case(rng, "small-ct", (2, 3, 2), 3, 0.5, 0.5, 5e-3)
        self.paths = {c.label: self.write_config(c) for c in (self.small, self.small_ct)}
        self.model, self.mu0 = self.case.model(R), self.case.metapop(R)
        self.small_model = self.small.model(R)

    def round(self, rd: Round, index: int) -> None:
        R = self.R
        for a in range(self.case.locations):
            s = _sampler_seed(self.seed, index, a)
            rd.op("simulate", ("simulate", a),
                  lambda: R.duality_estimate(a, self.mu0, self.model, self.case.t, self.reps, s))
        for case, commands in ((self.small, ("iterate", "linear", "export-T", "limit", "qld")),
                               (self.small_ct, CONTINUOUS_COMMANDS)):
            for cmd in commands:
                for fmt in FORMATS:
                    self.cli_op(rd, case, self.paths[case.label], cmd, fmt)
        rd.op("asymptotics", ("conditioned_law",),
              lambda: R.conditioned_law(self.small_model, COND_T))
        rd.op("asymptotics", ("absorption_tail",),
              lambda: R.absorption_tail(self.small_model, 200))

    def check(self, outputs: dict, pooled_outputs: list, ref, checker) -> None:
        ck = CaseChecks(self.case, ref, checker)
        for a in range(self.case.locations):
            ests = [o[("simulate", a)] for o in pooled_outputs if ("simulate", a) in o]
            if ests:
                ck.mc_pooled(f"duality_estimate location {a}", ests, a, int(self.case.t))
        cases = {self.small.label: self.small, self.small_ct.label: self.small_ct}
        checks = {label: CaseChecks(c, ref, checker) for label, c in cases.items()}
        check_cli_outputs(self.R, outputs, cases, checks, checker)
        small = checks[self.small.label]
        law = outputs.get(("conditioned_law",))
        qld_text = outputs.get((self.small.label, "qld", "json"))
        if law is not None and qld_text is not None:
            small.conditioned("conditioned_law", labelled_law(law), parse_qld(qld_text, "json"))
        if ("absorption_tail",) in outputs:
            small.tail("absorption_tail", outputs[("absorption_tail",)])


WORKLOADS = {"small-batch": SmallBatch, "wide-exact": WideExact, "mc-dual": McDual}
