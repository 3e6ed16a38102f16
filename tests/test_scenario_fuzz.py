"""Generated scenario documents: every one ends with an exit code 0-3 and a
report.json that states it, never with a traceback.

The documents are mostly well formed, with one kind of damage each: a
wrong type, a missing key, an edge grid (even nx, two t nodes, a t range
without 0 or at the ends of double range), checks the kind does not
support, or a number literal that is huge, tiny or beyond double range.
The data draw a clashing spectrum (A = i I) and a supplied singular S0
too. Grids stay far
below the node budget. The search is derandomized and keeps no example
database, so every run tries the same documents.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nnls_gbdt import cli


class Raw(str):
    """A number literal written into the document as it is."""


def to_json(value) -> str:
    """JSON text of ``value`` with Raw literals written verbatim; json's own
    writer would turn an infinity into the token Infinity."""
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(key)}: {to_json(item)}" for key, item in value.items()
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(to_json(item) for item in value) + "]"
    return json.dumps(value)


EXTREME_LITERALS = [
    "1e300", "-1e308", "1.7976931348623157e308", "1e400", "-1e400",
    "5e-324", "1e-300", "1" + "0" * 400, "-" + "9" * 400, "Infinity", "NaN",
]

number = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))
cnum = st.tuples(number, number).map(list)


def cmatrix(rows: int, cols: int):
    return st.lists(
        st.lists(cnum, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def identity_times(value, n):
    return [
        [list(value) if i == j else [0.0, 0.0] for j in range(n)] for i in range(n)
    ]


@st.composite
def gbdt_parameters(draw):
    n = draw(st.integers(1, 3))
    m1, m2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    a = draw(st.one_of(
        cmatrix(n, n),
        st.just(identity_times([1.0, 0.3], n)),
        st.just(identity_times([0.0, 1.0], n)),  # A = i I: a spectral clash
    ))
    params = {
        "sigma": draw(st.sampled_from([-1, 1])),
        "A": a,
        "theta1": draw(cmatrix(n, m1)),
        "theta2": draw(cmatrix(n, m2)),
    }
    s0 = draw(st.sampled_from([None, None, "zero", "drawn"]))
    if s0 == "zero":  # a supplied singular S0
        params["S0"] = identity_times([0.0, 0.0], n)
    elif s0 == "drawn":
        params["S0"] = draw(cmatrix(n, n))
    return params


@st.composite
def example1_parameters(draw):
    return {
        "a": draw(st.one_of(cnum, st.just([1.0, 0.0]))),
        "theta1": draw(cnum),
        "theta2": draw(cnum),
        "kappa": draw(st.sampled_from([0, 1])),
    }


@st.composite
def theta_parameters(draw):
    params = {
        "tau": draw(st.one_of(cnum, st.just([0.0, 0.9]))),
        "A_theta": draw(cnum),
        "B_theta": draw(cnum),
        "Delta": draw(cnum),
        "e0": draw(number),
        "C1": draw(cnum),
        "C2": draw(cnum),
        "chi": draw(st.sampled_from([0, 1])),
    }
    if draw(st.booleans()):
        params["omega0_sq"] = draw(cnum)
    return params


@st.composite
def grids(draw):
    t_min, t_max = draw(st.sampled_from(
        [(-0.2, 0.2), (0.0, 0.3), (-0.3, 0.0), (-0.2, 0.25)]
    ))
    return {
        "x_max": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "nx": draw(st.sampled_from([5, 11, 21])),
        "t_min": t_min,
        "t_max": t_max,
        "nt": draw(st.sampled_from([5, 11])),
    }


def number_paths(value, path=()):
    """Paths to the number leaves of a document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from number_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from number_paths(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def damage(draw, document):
    """Apply one kind of damage, or none, to a well-formed document."""
    kind = document["kind"]
    choices = ["none", "missing", "wrong-type", "literal", "checks"]
    if kind != "theta":
        choices += ["even-nx", "two-t-nodes", "t-without-0", "wide-t"]
    choice = draw(st.sampled_from(choices))
    if choice in ("missing", "wrong-type"):
        section = draw(st.sampled_from(
            ["document"] + [key for key in ("parameters", "grid") if key in document]
        ))
        target = document if section == "document" else document[section]
        key = draw(st.sampled_from(sorted(target)))
        if choice == "missing":
            del target[key]
        else:
            target[key] = draw(
                st.sampled_from(["x", None, True, [], {}, [1.0], [[1.0, 0.0]]])
            )
    elif choice == "literal":
        section = draw(st.sampled_from(
            [key for key in ("parameters", "grid") if key in document]
        ))
        *head, last = draw(st.sampled_from(list(number_paths(document[section]))))
        target = document[section]
        for key in head:
            target = target[key]
        target[last] = Raw(draw(st.sampled_from(EXTREME_LITERALS)))
    elif choice == "checks":
        document["checks"] = ["pde", "oracle", "constraints"]
    elif choice == "even-nx":
        document["grid"]["nx"] = draw(st.sampled_from([4, 20]))
    elif choice == "two-t-nodes":
        document["grid"]["nt"] = 2
    elif choice == "t-without-0":
        document["grid"].update(t_min=0.1, t_max=0.5)
    elif choice == "wide-t":
        bound = draw(st.sampled_from(["1e300", "1.7976931348623157e308", "5e-324"]))
        document["grid"].update(t_min=Raw("-" + bound), t_max=Raw(bound))


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["gbdt", "example1", "theta"]))
    if kind == "gbdt":
        params = draw(gbdt_parameters())
    elif kind == "example1":
        params = draw(example1_parameters())
    else:
        params = draw(theta_parameters())
    document = {"kind": kind, "parameters": params}
    if kind != "theta":
        document["grid"] = draw(grids())
    checks = list(cli.KIND_CHECKS[kind])
    document["checks"] = draw(
        st.lists(st.sampled_from(checks), min_size=1, max_size=len(checks), unique=True)
    )
    damage(draw, document)
    return document


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(document=documents(), refine=st.sampled_from([0, 1]))
# theta.json with the 5e-324 literal in Im tau, where offset / Im tau
# overflows: the a_im deviation must not
@example(
    document={
        "kind": "theta",
        "parameters": {
            "tau": [0.0, Raw("5e-324")], "A_theta": [0.2, 0.45],
            "B_theta": [0.0, 0.7], "Delta": [0.5, 0.3], "e0": 0.0,
            "C1": [1.0, 0.0], "C2": [1.0, 0.0], "chi": 1,
        },
        "checks": ["constraints"],
    },
    refine=1,
)
def test_generated_scenarios_end_with_an_exit_code_and_a_report(document, refine):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(to_json(document), encoding="utf-8")
        out = Path(tmp) / "out"
        code = cli.main(["run", str(scenario), "--out", str(out), "--refine", str(refine)])
        assert code in (0, 1, 2, 3)
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == code
        assert report["passed"] is (code == 0)
