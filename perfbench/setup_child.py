"""Set-up probe: import the CLI and call a workload's input loaders once.

Usage: python3 perfbench/setup_child.py CONFIG LOADER...

This is the work every ``hostrank`` invocation of the workload pays before
its stage computes; the runner times the whole process from outside.
"""

import sys

import hostrank.cli as cli


def main() -> None:
    cfg = cli.RunConfig.load(sys.argv[1])
    hierarchy = cli.load_hierarchy(cfg.input_path("hierarchy"))
    loaders = {
        "load_hierarchy": lambda: hierarchy,
        "load_judgments": lambda: cli.load_judgments(cfg.input_path("judgments")),
        "load_decision_matrix": lambda: cli.load_decision_matrix(
            cfg.input_path("decision_matrix"), hierarchy
        ),
        "load_pool": lambda: cli.load_pool(cfg.input_path("pool")),
    }
    for name in sys.argv[2:]:
        loaders[name]()


if __name__ == "__main__":
    main()
