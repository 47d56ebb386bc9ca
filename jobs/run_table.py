"""spark-submit entrypoint reproducing one paper table from the registry.

Usage: ``spark-submit jobs/run_table.py --table table4 [--scale 1.0] [--seed 0] [--out x.csv]``
(or plain ``python jobs/run_table.py``; the builders themselves are pure
Python — Spark is exercised by ``jobs/run_pipeline.py`` and the test
suite). ``--table`` takes a CSV name from
:data:`repro.experiments.tables.TABLES` (``table1`` … ``table19``,
``table11_12_13``).
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import emit, make_parser

from repro.experiments.tables import TABLES


def main() -> None:
    p = make_parser(__doc__)
    p.add_argument("--table", required=True, choices=list(TABLES))
    args = p.parse_args()
    table = TABLES[args.table]
    emit(table.run(scale=args.scale, seed=args.seed), table.title, args.out)


if __name__ == "__main__":
    main()
