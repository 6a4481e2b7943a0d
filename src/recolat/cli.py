"""Command line front end and its document forms.

One JSON config document drives every command; commands differ only in what
they emit. Sites are 1-based in every document and 0-based internally, and
locations appear under their configured names. Partitions serialise as lists
of blocks, labelled partitions as block records with a label field. Exit
status: 0 on success, 1 for model or config errors (with the offending field
path), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import limit_metapopulation, qld
from .ctime import CtModel, checked_generator, ct_solve_dual, integrate
from .forward import RecombinationModel, backward_from_forward, checked_migration, iterate
from .linear import build_base_matrix, build_linear_system, solve_linear
from .lpp import KEY_LIMIT, duality_estimate
from .measures import Distribution, Metapopulation, TypeSpace, tensor
from .partitions import LabelledPartition, Partition

# command -> (mode it runs in, help line)
COMMANDS = {
    "iterate": ("discrete", "forward iteration of the nonlinear recursion"),
    "linear": ("discrete", "exact solution through the labelled-partition matrix"),
    "simulate": ("discrete", "Monte Carlo duality estimate with standard errors"),
    "limit": ("discrete", "the time-infinity metapopulation"),
    "qld": ("discrete", "quasi-limiting behaviour of the block process"),
    "ct-solve": ("continuous", "continuous time via the jump-process exponential"),
    "ct-integrate": ("continuous", "continuous time via fixed-step RK4"),
    "export-T": ("discrete", "emit the transition matrix"),
}


class ConfigError(ValueError):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _number(value, path: str, *, minimum=None, maximum=None, integral=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if integral and not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value!r}")
    return value


def partition_to_doc(part: Partition) -> list[list[int]]:
    return [[s + 1 for s in block] for block in part.blocks]


def partition_from_doc(doc, n: int, path: str) -> Partition:
    if not isinstance(doc, list) or not doc:
        raise ConfigError(path, "expected a non-empty list of blocks")
    seen: set[int] = set()
    blocks = []
    for j, block in enumerate(doc):
        if not isinstance(block, list) or not block:
            raise ConfigError(f"{path}[{j}]", "expected a non-empty list of sites")
        for s in block:
            if not isinstance(s, int) or isinstance(s, bool) or not 1 <= s <= n:
                raise ConfigError(f"{path}[{j}]", f"site {s!r} is not in 1..{n}")
            if s - 1 in seen:
                raise ConfigError(f"{path}[{j}]", f"site {s} appears twice")
            seen.add(s - 1)
        blocks.append([s - 1 for s in block])
    return Partition(blocks)


def labelled_to_doc(bdelta: LabelledPartition, names) -> list[dict]:
    return [
        {"sites": [s + 1 for s in block], "label": names[label]}
        for block, label in bdelta.items
    ]


def partition_str(part: Partition) -> str:
    """Compact one-line form, blocks separated by '|': \"1,2|3\"."""
    return "|".join(",".join(str(s + 1) for s in block) for block in part.blocks)


def labelled_str(bdelta: LabelledPartition, names) -> str:
    """Compact labelled form: \"1,2@left|3@right\"."""
    return "|".join(
        ",".join(str(s + 1) for s in block) + "@" + names[label]
        for block, label in bdelta.items
    )


@dataclass
class RunConfig:
    """Parsed and validated run description."""

    mode: str
    space: TypeSpace
    location_names: list[str]
    recomb_entries: list[tuple[Partition, float]]
    migration_doc: dict
    model: RecombinationModel | CtModel
    initial: Metapopulation
    t: int | float | None
    seed: int | None
    replicates: int | None
    dt: float | None

    def to_doc(self) -> dict:
        doc = {
            "mode": self.mode,
            "sites": list(self.space.alphabet_sizes),
            "locations": list(self.location_names),
            "recombination": [
                {"blocks": partition_to_doc(p), "p": v} for p, v in self.recomb_entries
            ],
            "migration": self.migration_doc,
            "initial": {
                name: {"dense": [float(w) for w in self.initial[i].weights]}
                for i, name in enumerate(self.location_names)
            },
        }
        for key in ("t", "seed", "replicates", "dt"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")

    mode = doc.get("mode", "discrete")
    if mode not in ("discrete", "continuous"):
        raise ConfigError("mode", f"expected 'discrete' or 'continuous', got {mode!r}")

    sites = _require(doc, "sites", "")
    if not isinstance(sites, list) or not sites:
        raise ConfigError("sites", "expected a non-empty list of alphabet sizes")
    for i, s in enumerate(sites):
        _number(s, f"sites[{i}]", minimum=1, integral=True)
    space = TypeSpace(sites)
    n = len(sites)

    raw_locations = _require(doc, "locations", "")
    if isinstance(raw_locations, int) and not isinstance(raw_locations, bool):
        if raw_locations < 1:
            raise ConfigError("locations", "need at least one location")
        names = [str(i) for i in range(raw_locations)]
    elif isinstance(raw_locations, list) and raw_locations:
        names = []
        for i, name in enumerate(raw_locations):
            if not isinstance(name, str) or not name:
                raise ConfigError(f"locations[{i}]", f"expected a name, got {name!r}")
            names.append(name)
        if len(set(names)) != len(names):
            raise ConfigError("locations", "location names must be distinct")
    else:
        raise ConfigError("locations", "expected a count or a list of names")
    L = len(names)

    raw_recomb = _require(doc, "recombination", "")
    if not isinstance(raw_recomb, list) or not raw_recomb:
        raise ConfigError("recombination", "expected a non-empty list")
    entries: list[tuple[Partition, float]] = []
    for i, item in enumerate(raw_recomb):
        path = f"recombination[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(path, "expected an object with 'blocks' and 'p'")
        part = partition_from_doc(_require(item, "blocks", path), n, f"{path}.blocks")
        if part.base_set != space.sites:
            raise ConfigError(f"{path}.blocks", "blocks must cover every site exactly once")
        p = _number(_require(item, "p", path), f"{path}.p", minimum=0.0)
        entries.append((part, float(p)))

    raw_mig = _require(doc, "migration", "")
    if not isinstance(raw_mig, dict):
        raise ConfigError("migration", "expected an object")
    has_backward = "backward" in raw_mig
    has_forward = "forward" in raw_mig
    if has_backward == has_forward:
        raise ConfigError("migration", "provide exactly one of 'backward' or 'forward'")

    def matrix_from(doc_matrix, path):
        if (
            not isinstance(doc_matrix, list)
            or len(doc_matrix) != L
            or any(not isinstance(r, list) or len(r) != L for r in doc_matrix)
        ):
            raise ConfigError(path, f"expected a {L}x{L} matrix")
        try:
            return np.asarray(doc_matrix, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(path, "matrix entries must be numbers") from None

    if has_backward:
        migration = matrix_from(raw_mig["backward"], "migration.backward")
        migration_doc = {"backward": [[float(x) for x in row] for row in migration]}
    else:
        if mode == "continuous":
            raise ConfigError(
                "migration.forward",
                "continuous mode takes the generator under 'backward'",
            )
        fmat = matrix_from(raw_mig["forward"], "migration.forward")
        sizes = _require(raw_mig, "sizes", "migration")
        if not isinstance(sizes, list) or len(sizes) != L:
            raise ConfigError("migration.sizes", f"expected {L} population sizes")
        for i, c in enumerate(sizes):
            _number(c, f"migration.sizes[{i}]", minimum=0.0)
        try:
            migration = backward_from_forward(fmat, np.asarray(sizes, dtype=float))
        except ValueError as exc:
            raise ConfigError("migration", str(exc)) from None
        migration_doc = {
            "forward": [[float(x) for x in row] for row in fmat],
            "sizes": [float(c) for c in sizes],
        }

    accumulated: dict[Partition, float] = {}
    for part, value in entries:
        accumulated[part] = accumulated.get(part, 0.0) + value
    discrete = mode == "discrete"
    try:
        (checked_migration if discrete else checked_generator)(migration)
    except ValueError as exc:
        raise ConfigError("migration", str(exc)) from None
    try:
        model = (RecombinationModel if discrete else CtModel)(space, accumulated, migration)
    except ValueError as exc:
        raise ConfigError("recombination", str(exc)) from None

    raw_initial = _require(doc, "initial", "")
    if isinstance(raw_initial, dict):
        missing = [name for name in names if name not in raw_initial]
        if missing:
            raise ConfigError("initial", f"missing location(s): {', '.join(missing)}")
        extra = [key for key in raw_initial if key not in names]
        if extra:
            raise ConfigError("initial", f"unknown location(s): {', '.join(extra)}")
        specs = [(name, raw_initial[name]) for name in names]
    elif isinstance(raw_initial, list):
        if len(raw_initial) != L:
            raise ConfigError("initial", f"expected {L} distributions, got {len(raw_initial)}")
        specs = list(zip(names, raw_initial))
    else:
        raise ConfigError("initial", "expected an object keyed by location or a list")

    dists = []
    for name, spec in specs:
        path = f"initial.{name}"
        if not isinstance(spec, dict) or ("dense" in spec) == ("product" in spec):
            raise ConfigError(path, "provide exactly one of 'dense' or 'product'")
        try:
            if "dense" in spec:
                weights = spec["dense"]
                if not isinstance(weights, list):
                    raise ConfigError(f"{path}.dense", "expected a list of weights")
                dists.append(Distribution(space, space.sites, weights))
            else:
                rows = spec["product"]
                if not isinstance(rows, list) or len(rows) != n:
                    raise ConfigError(f"{path}.product", f"expected {n} per-site weight lists")
                factors = [
                    Distribution(space, (s,), rows[s]) for s in range(n)
                ]
                dists.append(tensor(factors))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    try:
        initial = Metapopulation(dists)
    except ValueError as exc:
        raise ConfigError("initial", str(exc)) from None

    t = doc.get("t")
    if t is not None:
        if mode == "discrete":
            t = _number(t, "t", minimum=0, integral=True)
        else:
            t = float(_number(t, "t", minimum=0.0))
    seed = doc.get("seed")
    if seed is not None:
        # location alpha samples under seed + alpha, a Philox key word
        seed = _number(seed, "seed", minimum=0, maximum=KEY_LIMIT - L, integral=True)
    replicates = doc.get("replicates")
    if replicates is not None:
        replicates = _number(replicates, "replicates", minimum=1, integral=True)
    dt = doc.get("dt")
    if dt is not None:
        dt = float(_number(dt, "dt", minimum=0.0))
        if dt == 0.0:
            raise ConfigError("dt", "must be positive")

    return RunConfig(
        mode, space, names, entries, migration_doc, model, initial,
        t, seed, replicates, dt,
    )


class ResultTable:
    """Rows of (quantity, index, value, stderr-or-None), deterministic order."""

    def __init__(self, command: str, rows):
        self.command = command
        self.rows = list(rows)

    def to_payload(self) -> dict:
        out = []
        for quantity, index, value, stderr in self.rows:
            row = {"quantity": quantity, "index": index, "value": value}
            if stderr is not None:
                row["stderr"] = stderr
            out.append(row)
        return {"command": self.command, "rows": out}

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "index", "value", "stderr"])
        for quantity, index, value, stderr in self.rows:
            writer.writerow(
                [quantity, index, f"{value:.12g}", "" if stderr is None else f"{stderr:.12g}"]
            )


def _location_rows(quantity: str, names, dists, stderrs=None):
    """One row per weight of each location's distribution, indexed
    "location:letters" with the letters comma-joined in mixed-radix order;
    `stderrs`, one array per location, fills the stderr column."""
    rows = []
    for k, (name, dist) in enumerate(zip(names, dists)):
        letters = itertools.product(*map(range, dist.shape))
        for i, (w, seq) in enumerate(zip(dist.weights, letters)):
            err = None if stderrs is None else float(stderrs[k][i])
            rows.append((quantity, f"{name}:{','.join(map(str, seq))}", float(w), err))
    return rows


def _need(config: RunConfig, field: str):
    value = getattr(config, field)
    if value is None:
        raise ConfigError(field, "required for this command")
    return value


# commands that emit one metapopulation: command -> (quantity, solver)
SOLVERS = {
    "iterate": ("mu", lambda c: iterate(c.initial, c.model, _need(c, "t"))[-1]),
    "linear": ("mu", lambda c: solve_linear(c.initial, c.model, _need(c, "t"))),
    "limit": ("mu_inf", lambda c: limit_metapopulation(c.initial, c.model)),
    "ct-solve": ("omega", lambda c: ct_solve_dual(c.initial, c.model, _need(c, "t"))),
}


def run(command: str, config: RunConfig, matrix_kind: str = "T"):
    """Dispatch one command, a key of COMMANDS; returns (ResultTable, json
    payload)."""
    mode, _ = COMMANDS[command]
    if config.mode != mode:
        raise ConfigError("mode", f"command {command!r} requires mode={mode!r}")
    names = config.location_names

    if command in SOLVERS:
        quantity, solve = SOLVERS[command]
        rows = _location_rows(quantity, names, solve(config))
    elif command == "simulate":
        t, seed, replicates = (_need(config, f) for f in ("t", "seed", "replicates"))
        ests = [
            duality_estimate(alpha, config.initial, config.model, t, replicates, seed + alpha)
            for alpha in range(len(names))
        ]
        rows = _location_rows(
            "mu_hat", names, [e.estimate for e in ests], [e.stderr for e in ests]
        )
    elif command == "ct-integrate":
        traj = integrate(config.initial, config.model, _need(config, "t"), _need(config, "dt"))
        rows = _location_rows("omega", names, traj.final)
        rows.append(("max_drift", "", traj.max_drift, None))
    elif command == "qld":
        return _qld_result(qld(config.model), names)
    else:
        return _export_result(config.model, names, matrix_kind)
    table = ResultTable(command, rows)
    return table, table.to_payload()


def _qld_result(report, names):
    """The quasi-limit: eta, the peak states F with their conditional
    probabilities, the labelled weights, and the stationary location
    weights."""
    peaks = report.peak_states
    labelled = sorted(report.labelled_qlim.items(), key=lambda kv: kv[0].sort_key())
    payload = {
        "command": "qld",
        "eta": float(report.max_sojourn),
        "F": [partition_to_doc(p) for p in peaks],
        "P_qlim": [float(report.qlim[p]) for p in peaks],
        "labelled_qlim": [
            {"blocks": labelled_to_doc(s, names), "p": float(w)} for s, w in labelled
        ],
        "q": [float(x) for x in report.location_weights],
    }
    rows = [("eta", "", payload["eta"], None)]
    rows += [("P_qlim", partition_str(p), report.qlim[p], None) for p in peaks]
    rows += [("labelled_qlim", labelled_str(s, names), w, None) for s, w in labelled]
    rows += [("q", name, float(w), None) for name, w in zip(names, report.location_weights)]
    return ResultTable("qld", rows), payload


def _export_result(model, names, matrix_kind):
    """Nonzero entries of the labelled (T) or label-free (Tul) transition
    matrix, and the dense matrix with its states."""
    if matrix_kind == "T":
        system = build_linear_system(model)
        labels = [labelled_str(s, names) for s in system.states]
        docs = [labelled_to_doc(s, names) for s in system.states]
        matrix = system.matrix
    else:
        states, matrix = build_base_matrix(model)
        labels = [partition_str(p) for p in states]
        docs = [partition_to_doc(p) for p in states]
    rows = [
        (matrix_kind, f"{labels[i]} -> {labels[j]}", float(matrix[i, j]), None)
        for i, j in zip(*np.nonzero(matrix))
    ]
    payload = {
        "command": "export-T",
        "matrix_kind": matrix_kind,
        "states": docs,
        "matrix": [[float(x) for x in row] for row in matrix],
    }
    return ResultTable("export-T", rows), payload


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recolat",
        description="Solvers for the migration-recombination dynamics: "
        "forward iteration, the labelled-partition linearisation, Monte "
        "Carlo over the dual jump process, limits and quasi-limits, and "
        "the continuous-time analogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--t", type=float, help="override the config horizon")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--replicates", type=int, help="override the config replicates")
    for name, (_, help_line) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        if name == "ct-integrate":
            p.add_argument("--dt", type=float, help="override the config step size")
        if name == "export-T":
            p.add_argument(
                "--matrix",
                choices=("T", "Tul"),
                default="T",
                help="labelled (T) or label-free (Tul) matrix",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if isinstance(doc, dict):
        # flags replace config fields before parsing, so they get the same checks
        t = args.t
        overrides = {
            "t": int(t) if t is not None and t.is_integer() else t,
            "seed": args.seed,
            "replicates": args.replicates,
            "dt": getattr(args, "dt", None),
        }
        doc.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        config = parse_config(doc)
        table, payload = run(
            args.command, config, getattr(args, "matrix", "T")
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    buffer = io.StringIO()
    if args.format == "json":
        json.dump(payload, buffer, indent=2)
        buffer.write("\n")
    else:
        table.write_csv(buffer)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
