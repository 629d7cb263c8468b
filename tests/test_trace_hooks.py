"""The benchmark's span wrappers (perfbench/spans.py) patch era_st names from
outside the package.  A rename here would make the traced benchmark run
record nothing for that layer, so this test fails instead."""

import importlib.util
from pathlib import Path

from era_st import pipeline
from era_st.text import BuildConfig, generate_random_text

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_recorded_through_public_hooks(tmp_path):
    spans = load_spans()
    text = generate_random_text(400, 4, 3)
    with spans.installed(spans.Tracer()) as tracer:
        pipeline.build_index(text, BuildConfig(memory_budget_m=32, block_size_b=2), tmp_path)
        index = pipeline.open_index(tmp_path)
        assert index.locate(text.data[10:20]) == [11]
        assert pipeline.verify_index(tmp_path, text, probe_count=20).ok
    recorded = {name for _, name in tracer.calls}
    for name in (
        "horizontal.locate",
        "horizontal.prepare",
        "tree.build_subtree",
        "tree.serialize",
        "tree.load",
        "tree.leaf_collect",
        "pipeline.verify_leafwalk",
    ):
        assert name in recorded, name
    # each virtual tree is prepared and built in one call
    vtrees = len(tracer.vtrees)
    assert vtrees > 1
    assert tracer.count("setup", "horizontal.prepare") == vtrees
    assert tracer.count("setup", "tree.build_subtree") == vtrees
