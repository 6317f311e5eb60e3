"""How records are declared: each plain record states its fields once, in
_fields, and takes the shared Frozen constructor; the two reports state
their JSON once, in _json, and take the shared to_dict."""

import ast
from pathlib import Path

import numpy as np
import pytest

import bjorth as bj
from bjorth.serialize import to_json_text

L2 = bj.Lp(2, 2.0)

# The plain records and one full positional argument list of each.
PLAIN = {
    "RadonScan": (bj.RadonScan, (0.0, None, [(0.0, 1.0, 0.0, 0.0)])),
    "SmoothnessProbe": (bj.SmoothnessProbe, (True, 0.5)),
    "Orthograph": (bj.Orthograph, ([np.array([1.0, 0.0])], np.zeros((1, 1), dtype=bool))),
    "SumAcuteReport": (bj.SumAcuteReport, ("sum(lp:2:2,linf:1)", 10, 9, 0, 1, 0, 2, 0, 3)),
    "VerificationReport": (bj.VerificationReport, (10, 1, 0, 0, 0.0, 0.0, 1.0, 0, True, None)),
}


@pytest.mark.parametrize("name", PLAIN)
def test_the_shared_constructor_binds_positions_then_keywords(name):
    cls, args = PLAIN[name]
    fields = cls._fields
    for cut in range(len(fields) + 1):
        record = cls(*args[:cut], **dict(zip(fields[cut:], args[cut:])))
        assert repr(record) == repr(cls(*args))
        assert [getattr(record, k) is v for k, v in zip(fields, args)] == [True] * len(fields)


@pytest.mark.parametrize("name", PLAIN)
def test_the_shared_constructor_refuses_a_wrong_argument_list(name):
    cls, args = PLAIN[name]
    fields = cls._fields
    required = [k for k in fields if k not in cls._defaults]
    wrong = {
        "missing": ((), {}, f"missing {required}"),
        "missing-after-a-keyword": ((), {fields[0]: args[0]}, f"missing {required[1:]}"),
        "extra": ((*args, None), {}, f"got {len(args) + 1} by position"),
        "unknown": (args, {"extra": 1}, "unknown ['extra']"),
        "repeated": (args, {fields[0]: args[0]}, f"repeated [{fields[0]!r}]"),
    }
    for case, (a, kw, message) in wrong.items():
        with pytest.raises(TypeError) as info:
            cls(*a, **kw)
        assert str(info.value).startswith(f"{name} takes {fields}: "), case
        assert message in str(info.value), case


def test_the_reports_fill_their_defaults():
    # first_disagreement, the one default, is None by position and by keyword.
    for cls, args in (PLAIN["SumAcuteReport"], PLAIN["VerificationReport"]):
        assert cls._defaults == {"first_disagreement": None}
        short = dict(zip(cls._fields, args[:-1]))
        assert cls(*args[:-1]).first_disagreement is cls(**short).first_disagreement is None


# AngleRelation is built on every classify_angle, whose point-query median
# is about 6 us; there its explicit __init__ takes about 1 us and the shared
# binder about 3 us (Python 3.11, 2-vCPU shared host).
EXEMPT = ["AngleRelation"]


def _package_classes() -> dict:
    package = Path(bj.__file__).parent
    return {node.name: node for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)}


def _built_on_frozen(classes: dict) -> set:
    """The package's classes with spaces.Frozen among their ancestors."""
    out, grown = {"Frozen"}, True
    while grown:
        grown = False
        for name, node in classes.items():
            if name not in out and any(getattr(b, "id", None) in out for b in node.bases):
                out.add(name)
                grown = True
    return out - {"Frozen"}


def _stored(call: ast.Call, fields: tuple):
    """(key, name) of each value a statement of __init__ stores, when it
    stores bare names through vars(self).update or object.__setattr__; else
    None (the statement checks or derives something)."""
    f = call.func
    if (isinstance(f, ast.Attribute) and f.attr == "__setattr__"
            and getattr(f.value, "id", None) == "object" and len(call.args) == 3
            and isinstance(call.args[1], ast.Constant) and isinstance(call.args[2], ast.Name)):
        return [(call.args[1].value, call.args[2].id)]
    if not (isinstance(f, ast.Attribute) and f.attr == "update"
            and isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "vars"):
        return None
    pairs = []
    for kw in call.keywords:
        if kw.arg is None or not isinstance(kw.value, ast.Name):
            return None
        pairs.append((kw.arg, kw.value.id))
    for arg in call.args:  # zip(self._fields, (a, b, ...))
        if not (isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "zip"
                and len(arg.args) == 2 and getattr(arg.args[0], "attr", None) == "_fields"
                and isinstance(arg.args[1], ast.Tuple)
                and all(isinstance(e, ast.Name) for e in arg.args[1].elts)):
            return None
        pairs += zip(fields, [e.id for e in arg.args[1].elts])
    return pairs


def _only_stores_its_parameters(node: ast.ClassDef) -> bool:
    inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    if not inits:
        return False
    init = inits[0]
    fields = ()
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "_fields"
                and isinstance(stmt.value, ast.Tuple)):
            fields = tuple(e.value for e in stmt.value.elts)
    params = {a.arg for a in init.args.args[1:] + init.args.kwonlyargs}
    pairs = []
    for stmt in init.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring
        stored = (_stored(stmt.value, fields) if isinstance(stmt, ast.Expr)
                  and isinstance(stmt.value, ast.Call) else None)
        if stored is None:
            return False
        pairs += stored
    return bool(pairs) and all(key == value and value in params for key, value in pairs)


def test_no_record_writes_out_a_constructor_that_only_stores_its_fields():
    # Such a record takes Frozen's binder and states its fields once.  The
    # exemption is also the guard's witness that it can fire.
    classes = _package_classes()
    offenders = sorted(name for name in _built_on_frozen(classes)
                       if _only_stores_its_parameters(classes[name]))
    assert offenders == EXEMPT


def test_the_guard_reads_every_storing_form():
    # The three ways a record's __init__ stored its fields, and two that
    # check or derive one.
    def flagged(body: str) -> bool:
        source = "class R(Frozen):\n    _fields = ('a', 'b')\n\n    def __init__(self, a, b):\n"
        tree = ast.parse(source + "".join(f"        {line}\n" for line in body.split("\n")))
        return _only_stores_its_parameters(tree.body[0])

    assert flagged("vars(self).update(a=a, b=b)")
    assert flagged("vars(self).update(zip(self._fields, (a, b)))")
    assert flagged('object.__setattr__(self, "a", a)\nobject.__setattr__(self, "b", b)')
    assert not flagged("vars(self).update(a=a, b=b, c=a)")
    assert not flagged('object.__setattr__(self, "a", float(a))\nvars(self).update(b=b)')


VERIFICATION_JSON = [
    ("samples", 10), ("disagreements", 5), ("first_disagreement", 4), ("boundary_excluded", 1),
    ("max_norm_error", 0.5), ("max_homog_error", 0.25), ("continuity_modulus", 1.5),
    ("seed", 7), ("pass", False), ("orthogonality_disagreements", 2),
    ("acute_disagreements", 3), ("tool_version", bj.__version__),
]
SUM_ACUTE_JSON = [
    ("space", "sum(lp:2:2,linf:1)"), ("samples", 10), ("evaluated", 6), ("disagreements", 1),
    ("first_disagreement", 3), ("boundary_excluded", 1), ("tie_excluded", 3),
    ("tie_samples", 2), ("excluded_fraction", 0.4), ("seed", 7), ("pass", False),
    ("tool_version", bj.__version__),
]


def test_the_report_json_keeps_its_keys_in_order():
    # The certify artifacts are written from these dicts, key for key.
    report = bj.VerificationReport(10, 1, 2, 3, 0.5, 0.25, 1.5, 7, False, 4)
    assert list(report.to_dict().items()) == VERIFICATION_JSON
    sums = bj.SumAcuteReport("sum(lp:2:2,linf:1)", 10, 6, 1, 1, 3, 2, 7, 3)
    assert list(sums.to_dict().items()) == SUM_ACUTE_JSON
    swept = bj.sum_acute_equivalence_check(L2, bj.LInf(1), 20, seed=0).to_dict()
    assert list(swept) == [key for key, _ in SUM_ACUTE_JSON]
    swept = bj.verify_preserver(bj.IdentityMap(L2), 20, seed=0).to_dict()
    assert list(swept) == [key for key, _ in VERIFICATION_JSON]


def test_only_the_reports_have_a_json_form():
    for record in (bj.Lp(2, 3.0), bj.AngleRelation(bj.AngleTag.ORTHOGONAL, 0.0, 0.0, 1.0),
                   bj.SmoothnessProbe(True, 0.5)):
        assert not hasattr(record, "to_dict")


def test_the_json_writer_refuses_what_it_cannot_write():
    # A report field outside JSON's types fails loudly rather than as a repr.
    with pytest.raises(TypeError, match="cannot serialize object"):
        to_json_text(object())
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        to_json_text({"rows": np.zeros(2)})
