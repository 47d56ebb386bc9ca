"""Correctness checks run on every pass, outside the timed region.

Each function raises :class:`CheckFailed` with a reason; the caller
counts the pass as failed.
"""
from __future__ import annotations

from math import comb, isclose, log


class CheckFailed(Exception):
    pass


def covers_once(record_ids: list[int], input_ids: list[int]) -> None:
    """The assignment lists each input record exactly once."""
    if len(record_ids) != len(set(record_ids)):
        raise CheckFailed(
            f"{len(record_ids) - len(set(record_ids))} records assigned twice"
        )
    if set(record_ids) != set(input_ids):
        raise CheckFailed(
            f"assignment and input differ on "
            f"{len(set(record_ids) ^ set(input_ids))} records"
        )


def same_reading(first: dict, again: dict, what: str) -> None:
    """A repeated pass at one seed reads exactly the same."""
    diff = {k: (first[k], again[k]) for k in first if first[k] != again[k]}
    if diff:
        raise CheckFailed(f"{what} changed between passes at one seed: {diff}")


def same_partition(first: dict[int, int], again: dict[int, int]) -> None:
    """Two assignments group the records the same way (labels may differ)."""
    if first.keys() != again.keys():
        raise CheckFailed("a repeated pass assigned another set of records")
    pairs = {(first[r], again[r]) for r in first}
    if not len(pairs) == len(set(first.values())) == len(set(again.values())):
        raise CheckFailed("a repeated pass at one seed grouped the records differently")


def close(name: str, got: float, want: float) -> None:
    if not isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
        raise CheckFailed(f"{name}: {got!r} != {want!r}")


_CONTINGENCY_SQL = """
WITH ct AS (SELECT pred, truth, count(*)::BIGINT AS n FROM a GROUP BY pred, truth),
     pc AS (SELECT pred, sum(n) AS n, max(n) AS best FROM ct GROUP BY pred),
     tc AS (SELECT truth, sum(n) AS n, max(n) AS best FROM ct GROUP BY truth)
SELECT
  (SELECT sum(n) FROM ct)                          AS total,
  (SELECT sum(best) FROM pc)                       AS purity_hits,
  (SELECT sum(best) FROM tc)                       AS inv_purity_hits,
  (SELECT sum(n * (n - 1) // 2) FROM ct)           AS sum_ij,
  (SELECT sum(n * (n - 1) // 2) FROM pc)           AS sum_a,
  (SELECT sum(n * (n - 1) // 2) FROM tc)           AS sum_b,
  (SELECT -sum(n * ln(n)) FROM pc)                 AS neg_a_ln_a,
  (SELECT -sum(n * ln(n)) FROM tc)                 AS neg_b_ln_b,
  (SELECT sum(ct.n * ln(ct.n / (pc.n * tc.n)))
     FROM ct JOIN pc USING (pred) JOIN tc USING (truth)) AS mi_raw
"""


def contingency_metrics(pred: dict[int, int], truth: dict[int, int]) -> dict[str, float]:
    """FP, NMI and ARI re-derived from a (pred, truth) count table in DuckDB.

    Independent of ``repro.core.metrics``: the counts come from SQL
    aggregation and the closed forms (Eq. 4-11) are applied here.
    """
    import duckdb
    import pandas as pd

    rids = list(pred)
    frame = pd.DataFrame(
        {"pred": [pred[r] for r in rids], "truth": [truth[r] for r in rids]}
    )
    con = duckdb.connect()
    try:
        con.register("a", frame)
        row = con.execute(_CONTINGENCY_SQL).fetchone()
    finally:
        con.close()
    n, p_hits, ip_hits, sum_ij, sum_a, sum_b, na, nb, mi_raw = row
    n = int(n)
    p, ip = p_hits / n, ip_hits / n
    fp = 0.0 if p == 0 or ip == 0 else 2.0 / (1.0 / p + 1.0 / ip)
    # H = -Σ (c/n) ln(c/n) = (Σ -c ln c)/n + ln n ; MI = Σ (nij/n) ln(nij n / (ai bj))
    hx, hy = na / n + log(n), nb / n + log(n)
    mi = mi_raw / n + log(n)
    if abs(hx) < 1e-12 and abs(hy) < 1e-12:
        nmi = 1.0
    else:
        nmi = 2.0 * mi / (hx + hy) if hx + hy > 0 else 0.0
    nc2 = comb(n, 2)
    expected = sum_a * sum_b / nc2 if nc2 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if nc2 == 0 or max_index == expected:
        ari = 1.0
    else:
        ari = (sum_ij - expected) / (max_index - expected)
    return {"fp": fp, "nmi": nmi, "ari": ari}


def metrics_agree(quality: dict[str, float], pred: dict[int, int], truth: dict[int, int]) -> None:
    """core.metrics' FP / NMI / ARI match the DuckDB re-derivation."""
    ref = contingency_metrics(pred, truth)
    for k, v in ref.items():
        if not isclose(quality[k], v, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed(f"{k}: core.metrics {quality[k]!r} vs contingency {v!r}")
