"""The benchmark's tracer wraps recolat functions by name. Installing it on
the package must find every name it patches, its spans must see the calls a
CLI command or a library route makes, and uninstalling it must restore the
originals."""

import contextlib
import importlib.util
import io
import json
import os
import sys

import numpy as np

import recolat
import recolat.cli

import factories
from test_cli import BASE

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
LAYERS = ("cli.main_s", "cli.parse_config_s", "cli.run_s", "cli.emit_s", "forward.iterate_s")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_patched_name(tmp_path):
    tracer = load_tracing().Tracer()
    names = ("main", "parse_config", "run", "json")
    originals = {name: getattr(recolat.cli, name) for name in names}
    write_csv = recolat.cli.ResultTable.write_csv
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE))
    try:
        tracer.install(recolat)
        tracer.start_round()
        for fmt in ("csv", "json"):
            # through the module attribute, which the tracer replaces
            argv = ["iterate", "--config", str(config), "--format", fmt]
            with contextlib.redirect_stdout(io.StringIO()):
                assert recolat.cli.main(argv) == 0
        tracer.end_round()
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics(tracer.rounds[0])
    assert metrics["cli.commands"] == 2
    assert metrics["forward.generations"] == 2 * BASE["t"]
    for layer in LAYERS:
        assert metrics[layer] > 0, layer
    for name, original in originals.items():
        assert getattr(recolat.cli, name) is original, name
    assert recolat.cli.ResultTable.write_csv is write_csv


def test_tracer_times_library_routes():
    # the tracer wraps build_recombinator_vector under every name bound to
    # it, in whichever module defines it and in those that import it
    tracer = load_tracing().Tracer()
    original = recolat.measures.build_recombinator_vector
    rng = np.random.default_rng(1509)
    model = factories.random_model(rng, 3, 2)
    mu0 = factories.random_metapop(rng, model.space, 2)
    try:
        tracer.install(recolat)
        tracer.start_round()
        # through the package attributes, which the tracer replaces
        recolat.solve_linear(mu0, model, 3)
        recolat.duality_estimate(0, mu0, model, 3, 50, seed=1)
        recolat.limit_metapopulation(mu0, model)
        tracer.end_round()
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics(tracer.rounds[0])
    for layer in ("linear.recombinator_vector_s", "linear.matrix_power_s",
                  "lpp.duality_estimate_s", "asymptotics.limit_s"):
        assert metrics[layer] > 0, layer
    assert metrics["measures.recombinator_calls"] >= 1
    bindings = {
        name: vars(module)["build_recombinator_vector"]
        for name, module in sys.modules.items()
        if name.split(".")[0] == "recolat" and "build_recombinator_vector" in vars(module)
    }
    assert {"recolat", "recolat.linear", "recolat.lpp", "recolat.measures"} <= set(bindings)
    assert all(fn is original for fn in bindings.values())
