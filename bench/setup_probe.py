"""Set-up that every run of the package pays, in a fresh process.

Imports ``nnls_gbdt.cli`` with its dependencies, validates each scenario
document with ``cli.load_scenario`` and completes each transformation
triple with ``gbdt_core.complete_triple``. ``bench/run.py`` times the whole
process, interpreter start included, and reports the median as setup_s.

    python3 bench/setup_probe.py MANIFEST

MANIFEST is a JSON file ``{"scenarios": [paths], "triples": [objects]}``
where each triple object holds the ``sigma``, ``A``, ``theta1`` and
``theta2`` entries of a gbdt scenario.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _c(value):
    return complex(value[0], value[1])


def _cmatrix(rows):
    return [[_c(entry) for entry in row] for row in rows]


def triple_args(kind, params):
    """(sigma, A, theta1, theta2) of a scenario, or None for theta data.

    The closed-form families map to the same data the runner builds for
    them: a scalar datum, a 2x2 Jordan block, and a scalar with a 1x2 block.
    """
    if kind == "gbdt":
        return (
            int(params["sigma"]),
            _cmatrix(params["A"]),
            _cmatrix(params["theta1"]),
            _cmatrix(params["theta2"]),
        )
    if kind == "theta":
        return None
    sigma = 1 - 2 * int(params["kappa"])
    a = _c(params["a"])
    if kind == "example1":
        return sigma, [[a]], [[_c(params["theta1"])]], [[_c(params["theta2"])]]
    if kind == "example2":
        return (
            sigma,
            [[a, 1.0], [0.0, a]],
            [[0.0], [_c(params["b"])]],
            [[0.0], [_c(params["c"])]],
        )
    if kind == "example3":
        return (
            sigma,
            [[a]],
            [[_c(params["b1"]), _c(params["b2"])]],
            [[_c(params["c"])]],
        )
    raise ValueError(f"unknown scenario kind {kind!r}")


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    from nnls_gbdt import cli, gbdt_core

    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    data = []
    for path in manifest["scenarios"]:
        document = cli.load_scenario(Path(path))
        args = triple_args(document["kind"], document["parameters"])
        if args is not None:
            data.append(args)
    data.extend(triple_args("gbdt", params) for params in manifest["triples"])
    for args in data:
        gbdt_core.complete_triple(*args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
