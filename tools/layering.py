#!/usr/bin/env python3
"""Architecture layering checker for armnet (DESIGN.md §12).

The source tree is a layered DAG: every directory under src/ sits in one
layer, and an #include may only point at the same layer or a lower one.
The DAG below is the machine-readable form of the dependency discipline the
refactors rely on (util at the bottom, the serving/interpretation surfaces
at the top); before this checker it was tribal knowledge.

    layer 0   util
    layer 1   tensor
    layer 2   autograd
    layer 3   nn
    layer 4   data, optim, metrics
    layer 5   core, models
    layer 6   armor
    layer 7   serve, interpret

Two failure modes, both printed with the offending edge:

  up-layer   a file includes a header from a higher layer
             (e.g. tensor/ including nn/) — the dependency inversion that
             turns refactors into whack-a-mole
  cycle      same-layer directories include each other (directly or via a
             chain), so neither can be built, tested, or reasoned about
             without the other

Run standalone (`tools/layering.py`), as part of `tools/lint.py`, or with
--self-test to exercise the checker against fixture include graphs.
Exits non-zero on any finding.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# The layer DAG. Directories in one inner list share a layer: they may
# include each other (acyclically) but nothing above them.
LAYERS = [
    ["util"],
    ["tensor"],
    ["autograd"],
    ["nn"],
    ["data", "optim", "metrics"],
    ["core", "models"],
    ["armor"],
    ["serve", "interpret"],
]

LAYER_OF = {d: i for i, layer in enumerate(LAYERS) for d in layer}

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')


def parse_includes(text):
    """Yields (lineno, include_path) for every quoted #include in `text`."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m:
            yield lineno, m.group(1)


def collect_edges(files):
    """Builds the directory-level include graph.

    `files` maps a src-relative path (e.g. "serve/service.cc") to its text.
    Returns (edges, findings): `edges` is a list of
    (src_dir, dst_dir, rel_path, lineno, include) for includes that resolve
    to a known layer directory; `findings` collects includes naming an
    unknown top-level directory (a new directory must be placed in the DAG
    before it can be included).
    """
    edges = []
    findings = []
    for rel_path, text in sorted(files.items()):
        src_dir = Path(rel_path).parts[0]
        if src_dir not in LAYER_OF:
            findings.append(
                f"src/{rel_path}:1: [layering] directory '{src_dir}' is not "
                "in the layer DAG (tools/layering.py LAYERS)")
            continue
        for lineno, include in parse_includes(text):
            dst_dir = Path(include).parts[0]
            if dst_dir not in LAYER_OF:
                findings.append(
                    f"src/{rel_path}:{lineno}: [layering] include "
                    f"'{include}' points at directory '{dst_dir}' which is "
                    "not in the layer DAG (tools/layering.py LAYERS)")
                continue
            edges.append((src_dir, dst_dir, rel_path, lineno, include))
    return edges, findings


def check_up_layer(edges):
    """Flags edges that point from a lower layer into a higher one."""
    findings = []
    for src_dir, dst_dir, rel_path, lineno, include in edges:
        if LAYER_OF[dst_dir] > LAYER_OF[src_dir]:
            findings.append(
                f"src/{rel_path}:{lineno}: [layering] up-layer include: "
                f"{src_dir} (layer {LAYER_OF[src_dir]}) -> {dst_dir} "
                f"(layer {LAYER_OF[dst_dir]}) via '{include}'")
    return findings


def check_cycles(edges):
    """Flags directory-level cycles among same-layer includes.

    Up-layer edges are reported separately and cross-layer-down edges cannot
    cycle, so only same-layer cross-directory edges can close a loop.
    """
    graph = {}
    edge_example = {}
    for src_dir, dst_dir, rel_path, lineno, include in edges:
        if src_dir == dst_dir or LAYER_OF[src_dir] != LAYER_OF[dst_dir]:
            continue
        graph.setdefault(src_dir, set()).add(dst_dir)
        edge_example.setdefault((src_dir, dst_dir),
                                (rel_path, lineno, include))

    findings = []
    # Iterative DFS with colors; report each cycle once via its closing edge.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {d: WHITE for d in graph}
    stack_path = []

    def dfs(node):
        color[node] = GREY
        stack_path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color.get(nxt, WHITE) == GREY:
                cycle = stack_path[stack_path.index(nxt):] + [nxt]
                rel_path, lineno, include = edge_example[(node, nxt)]
                findings.append(
                    f"src/{rel_path}:{lineno}: [layering] include cycle "
                    f"{' -> '.join(cycle)} (closing edge via '{include}')")
            elif color.get(nxt, WHITE) == WHITE:
                dfs(nxt)
        stack_path.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)
    return findings


def check_files(files):
    """Runs every layering rule over a {rel_path: text} map."""
    edges, findings = collect_edges(files)
    findings += check_up_layer(edges)
    findings += check_cycles(edges)
    return findings


def load_repo_files():
    files = {}
    for path in sorted(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cc"))):
        files[str(path.relative_to(SRC))] = path.read_text()
    return files


def self_test():
    """Exercises the checker on fixture include graphs."""
    failures = []

    def expect(name, files, substrings):
        found = check_files(files)
        for needle in substrings:
            if not any(needle in f for f in found):
                failures.append(
                    f"self-test '{name}': expected a finding containing "
                    f"{needle!r}, got {found or '[no findings]'}")
        if not substrings and found:
            failures.append(f"self-test '{name}': expected clean, got {found}")

    # A well-layered slice of the real tree: everything points downward.
    expect("good-dag", {
        "util/sync.h": "",
        "tensor/tensor.h": '#include "util/check.h"\n',
        "nn/linear.h": '#include "autograd/variable.h"\n'
                       '#include "tensor/tensor.h"\n',
        "autograd/variable.h": '#include "tensor/tensor.h"\n',
        "serve/service.h": '#include "core/tabular.h"\n'
                           '#include "util/sync.h"\n',
        "models/lr.h": '#include "core/arm_module.h"\n',  # same-layer, no cycle
    }, [])

    # An up-layer edge: tensor reaching into nn.
    expect("up-layer-edge", {
        "tensor/kernels.cc": '#include "nn/linear.h"\n',
        "nn/linear.h": "",
    }, ["up-layer include: tensor (layer 1) -> nn (layer 3)"])

    # A same-layer cycle: core <-> models.
    expect("same-layer-cycle", {
        "core/arm_module.h": '#include "models/lr.h"\n',
        "models/lr.h": '#include "core/arm_module.h"\n',
    }, ["include cycle"])

    # An unknown directory must be declared in the DAG before use.
    expect("unknown-dir", {
        "core/arm_module.h": '#include "experimental/new_thing.h"\n',
    }, ["not in the layer DAG"])

    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        return 1
    print("layering.py --self-test: all fixtures pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker against fixture include graphs")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = check_files(load_repo_files())
    for finding in findings:
        print(finding)
    if findings:
        return 1
    print("layering.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
