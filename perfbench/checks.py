"""Output checks: every mismatch is one failed operation in a Tally.

``check_table1`` checks one table1 report (the ``data`` dict of
:class:`repro.experiments.report.ExperimentReport`) against the
reference in ``reference.json``; ``check_verdicts`` checks
served verdicts against the offline ``MagNet.decide_batch``.  Both take
plain python values so the tests need not build models.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from stats import Tally

#: Reference tolerance, per table1 row.  ASR may move by at most one
#: attack lane (a single image flipping success); L1 and L2, the
#: success-averaged distortions, by at most 10 % of the reference.
ASR_LANES = 1
DIST_RTOL = 0.10


def table1_rows(datasets: Iterable[str], betas: Iterable[float]) -> list:
    """Every row key a table1 report must hold for these settings."""
    rows = []
    betas = list(betas)
    for ds in datasets:
        rows.append(f"{ds}/cw")
        for rule in ("en", "l1"):
            rows.extend(f"{ds}/ead_{rule}_beta{b:g}" for b in betas)
    return rows


def check_table1(data: Mapping[str, Mapping], reference: Mapping[str, Mapping],
                 rows: Sequence[str], n_attack: Mapping[str, int],
                 tally: Tally) -> None:
    """Count one operation per row, plus one per dataset for the claim.

    A row fails when it is missing or when its ASR, L1 or L2 leaves the
    tolerance around ``reference``.  The per-dataset claim is the
    paper's: the best EAD row reaches at least the C&W row's ASR.
    """
    for row in rows:
        got, ref = data.get(row), reference.get(row)
        if got is None:
            tally.fail(f"{row}: missing")
            continue
        if ref is None:
            tally.fail(f"{row}: no reference")
            continue
        ds = row.split("/", 1)[0]
        reasons = []
        if abs(got["asr"] - ref["asr"]) > ASR_LANES / n_attack[ds] + 1e-9:
            reasons.append(f"asr {got['asr']:.4f} vs {ref['asr']:.4f}")
        for dist in ("l1", "l2"):
            if not _close(got[dist], ref[dist]):
                reasons.append(f"{dist} {got[dist]:.4f} vs {ref[dist]:.4f}")
        tally.check(not reasons, f"{row}: " + ", ".join(reasons))
    for ds in sorted({row.split("/", 1)[0] for row in rows}):
        cw = data.get(f"{ds}/cw")
        eads = [v["asr"] for k, v in data.items()
                if k.startswith(f"{ds}/ead_")]
        if cw is None or not eads:
            tally.fail(f"{ds}: claim rows missing")
            continue
        tally.check(max(eads) >= cw["asr"],
                    f"{ds}: best EAD ASR {max(eads):.3f} < C&W {cw['asr']:.3f}")


def _close(got: float, ref: float) -> bool:
    # NaN (no successful lane) must stay NaN.
    if got != got or ref != ref:
        return (got != got) and (ref != ref)
    return abs(got - ref) <= DIST_RTOL * abs(ref) + 1e-9


def check_verdicts(verdicts: Mapping[int, Dict], offline_labels: Sequence[int],
                   offline_detected: Sequence[bool], tally: Tally) -> None:
    """One operation per served request, keyed by its image index.

    ``verdicts`` maps image index to ``{"label", "detected"}``, or to
    ``{"refused": reason}`` / ``{"error": reason}`` for requests that
    got no verdict.
    """
    for i, v in sorted(verdicts.items()):
        if "refused" in v:
            tally.refuse(f"request {i}: {v['refused']}")
        elif "error" in v:
            tally.fail(f"request {i}: {v['error']}")
        else:
            tally.check(
                v["label"] == int(offline_labels[i])
                and v["detected"] == bool(offline_detected[i]),
                f"request {i}: served ({v['label']}, {v['detected']}) vs "
                f"offline ({int(offline_labels[i])}, "
                f"{bool(offline_detected[i])})")
