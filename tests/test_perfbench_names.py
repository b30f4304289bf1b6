"""The benchmark's tracer wraps galdesk functions and methods by name; a
rename or a deletion in galdesk breaks benchmark start-up, or silently zeroes
a counter whose hook or span no longer matches, so it is caught here."""

import ast
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_method_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for layer, classes in tracing.METHODS.items():
        module = tracing.LAYERS[layer]
        for cls_name, attrs in classes.items():
            cls = vars(module)[cls_name]
            for attr in attrs:
                assert attr in vars(cls), f"{layer}.{cls_name}.{attr}"


def traced_function_names() -> set:
    """The span names tracing.py writes as literals: the keys of the hooks
    dict in `Tracer.install` and the spans `Tracer.metrics` reads from its
    `calls` and `self_s` tables."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] \
                == ["hooks"]:
            names |= {key.value for key in node.value.keys}
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in \
                ("calls", "self_s") and isinstance(node.slice, ast.Constant):
            names.add(node.slice.value)
    return names


def test_every_span_name_is_a_traced_function(monkeypatch):
    """Each name is a renamed method, or a public function of its layer that
    `Tracer.install` wraps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    literals = traced_function_names()
    assert "padic_weights.constancy_test" in literals  # the parse found the hooks
    names = literals | tracing.STEP_SPANS | tracing.SELMER_SPANS | {"selmer.finite_cohomology"}
    renamed = set(tracing.RENAMED.values())
    for name in sorted(names - renamed):
        layer, attr = name.split(".")
        module = tracing.LAYERS[layer]
        fn = vars(module).get(attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
        assert not attr.startswith("_") and attr not in tracing.SKIP_FUNCTIONS.get(layer, ()), name
    for method, name in tracing.RENAMED.items():
        layer, cls_name, attr = method.split(".")
        assert attr in tracing.METHODS[layer][cls_name], name
