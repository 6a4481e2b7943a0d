"""Command line front end.

One JSON config document drives every command; commands differ only in what
they emit. Sites are 1-based in the document, locations are referred to by
name. Exit status: 0 on success, 1 for model or config errors, 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .partitions import Partition
from .serialize import (
    csv_float,
    distribution_rows,
    labelled_str,
    labelled_to_doc,
    partition_from_doc,
    partition_to_doc,
    partition_str,
    qld_report_to_doc,
    sequence_label,
)

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
        blocks = _require(item, "blocks", path)
        try:
            part = partition_from_doc(blocks, n, f"{path}.blocks")
        except ValueError as exc:
            where, _, what = str(exc).partition(": ")
            raise ConfigError(where, what or str(exc)) from None
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
                [quantity, index, csv_float(value), "" if stderr is None else csv_float(stderr)]
            )


def _metapop_rows(mu: Metapopulation, names, quantity: str):
    rows = []
    for i, name in enumerate(names):
        rows.extend((q, idx, v, None) for q, idx, v in distribution_rows(mu[i], name, quantity))
    return rows


def _need(config: RunConfig, field: str):
    value = getattr(config, field)
    if value is None:
        raise ConfigError(field, "required for this command")
    return value


def run(command: str, config: RunConfig, matrix_kind: str = "T"):
    """Dispatch one command, a key of COMMANDS; returns (ResultTable, json
    payload)."""
    mode, _ = COMMANDS[command]
    if config.mode != mode:
        raise ConfigError("mode", f"command {command!r} requires mode={mode!r}")
    names = config.location_names

    if command == "iterate":
        final = iterate(config.initial, config.model, _need(config, "t"))[-1]
        table = ResultTable(command, _metapop_rows(final, names, "mu"))
        return table, table.to_payload()

    if command == "linear":
        final = solve_linear(config.initial, config.model, _need(config, "t"))
        table = ResultTable(command, _metapop_rows(final, names, "mu"))
        return table, table.to_payload()

    if command == "simulate":
        t = _need(config, "t")
        seed = _need(config, "seed")
        replicates = _need(config, "replicates")
        rows = []
        for alpha, name in enumerate(names):
            est = duality_estimate(
                alpha, config.initial, config.model, t, replicates, seed + alpha
            )
            for i, w in enumerate(est.estimate.weights):
                rows.append(
                    (
                        "mu_hat",
                        f"{name}:{sequence_label(config.space, config.space.sites, i)}",
                        float(w),
                        float(est.stderr[i]),
                    )
                )
        table = ResultTable(command, rows)
        return table, table.to_payload()

    if command == "limit":
        mu_inf = limit_metapopulation(config.initial, config.model)
        table = ResultTable(command, _metapop_rows(mu_inf, names, "mu_inf"))
        return table, table.to_payload()

    if command == "qld":
        report = qld(config.model)
        payload = qld_report_to_doc(report, names)
        rows = [("eta", "", payload["eta"], None)]
        rows.extend(
            ("P_qlim", partition_str(p), report.qlim[p], None)
            for p in report.peak_states
        )
        rows.extend(
            ("labelled_qlim", labelled_str(s, names), value, None)
            for s, value in sorted(
                report.labelled_qlim.items(), key=lambda kv: kv[0].sort_key()
            )
        )
        rows.extend(
            ("q", name, float(report.location_weights[i]), None)
            for i, name in enumerate(names)
        )
        return ResultTable(command, rows), payload

    if command == "ct-solve":
        final = ct_solve_dual(config.initial, config.model, _need(config, "t"))
        table = ResultTable(command, _metapop_rows(final, names, "omega"))
        return table, table.to_payload()

    if command == "ct-integrate":
        traj = integrate(config.initial, config.model, _need(config, "t"), _need(config, "dt"))
        rows = _metapop_rows(traj.final, names, "omega")
        rows.append(("max_drift", "", traj.max_drift, None))
        table = ResultTable(command, rows)
        return table, table.to_payload()

    # export-T
    if matrix_kind == "T":
        system = build_linear_system(config.model)
        labels = [labelled_str(s, names) for s in system.states]
        docs = [labelled_to_doc(s, names) for s in system.states]
        matrix = system.matrix
    else:
        states, matrix = build_base_matrix(config.model)
        labels = [partition_str(p) for p in states]
        docs = [partition_to_doc(p) for p in states]
    rows = [
        (matrix_kind, f"{labels[i]} -> {labels[j]}", float(matrix[i, j]), None)
        for i in range(len(labels))
        for j in range(len(labels))
        if matrix[i, j] != 0.0
    ]
    payload = {
        "command": command,
        "matrix_kind": matrix_kind,
        "states": docs,
        "matrix": [[float(x) for x in row] for row in matrix],
    }
    return ResultTable(command, rows), payload


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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
