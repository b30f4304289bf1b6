"""The benchmark's tracer wraps galdesk methods by name; a rename or a
deletion in galdesk breaks benchmark start-up, so it is caught here."""

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
