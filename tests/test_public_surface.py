"""The public names of evpose that nothing but the tests reaches are pinned.

Each public module-level function and class of `src/evpose`, and each
public method of such a class, counts as reached when its name is used
outside its own body: in `src/evpose` or `benchmark/` (a name
`benchmark/child.py` wraps by string counts), or in the acceptance suite.
The sources are read with `ast`, never run. Matching is by bare name, so
a name shared with another that is reached counts as reached too. The
method names more than one class defines are pinned as well, each a
shared interface that is reached in its own right, so that no method
hides behind another class's use of its name.

A name that joins a pinned set states why it stays; one that leaves it
is either reached now or deleted.
"""

import ast
from collections import Counter
from pathlib import Path

from test_traced_names import traced_targets

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "evpose"
READERS = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "benchmark").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# name: why it stays although only tests reach it
TEST_ONLY = {
    "gating.mask_quality_ground_truth": "ROADMAP item 4: mask quality against ground truth",
    "gating.read_schedule_csv": "the reader of filter's schedule.csv",
    "metrics.threshold_sweep": "ROADMAP item 4: the beta sweep, to become a streaming "
                               "subcommand",
    "pose_math.fuse_planes": "ROADMAP item 5: heatmap tensors to 3-D joints",
    "pose_math.write_pose_csv": "ROADMAP item 5: the writer of the pose CSVs eval reads",
    "representations.window_volumes": "the whole-volume iterator of the library API; "
                                      "tore and filter write frame by frame instead",
}

# method name defined by more than one class: the interface it names
SHARED_METHODS = {
    "above_percentile": "the reference backend's one read of a frame or a volume; "
                        "ToreVolume's, its activity above np.percentile, is the "
                        "float reference of WindowFrame's",
    "append": "one record into an open counted-record file: events for "
              "EventStreamWriter, a mask for MaskStackWriter",
    "predict": "the mask backend seam: MaskPredictorBackend and its reference and "
               "external backends",
    "write": "bytes to a file: RecordFileWriter's records, WindowFrame's tensor",
}


def public_definitions():
    """(file, dotted name, node) per public function, class and method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield path, f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from ((path, f"{path.stem}.{node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and item.name[0] != "_")


def name_uses(path):
    """(identifier, line) per name, attribute and imported name in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def unreached():
    uses = {path: list(name_uses(path)) for path in READERS}
    wrapped = {attr for _, attr in traced_targets()[1]}
    out = []
    for path, dotted, node in public_definitions():
        name = node.name
        reached = (name in wrapped
                   or any(used == name and not (reader == path
                                                and node.lineno <= line <= node.end_lineno)
                          for reader in READERS for used, line in uses[reader]))
        if not reached:
            out.append(dotted)
    return out


def test_the_names_only_tests_reach_are_pinned_with_a_reason():
    assert sorted(unreached()) == sorted(TEST_ONLY)
    assert all(TEST_ONLY.values())



def test_the_method_names_classes_share_are_pinned_with_a_reason():
    owners = Counter(dotted.rpartition(".")[2] for _, dotted, _ in public_definitions()
                     if dotted.count(".") == 2)
    assert sorted(name for name, n in owners.items() if n > 1) == sorted(SHARED_METHODS)
    assert all(SHARED_METHODS.values())
