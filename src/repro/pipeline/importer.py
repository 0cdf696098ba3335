"""Importing real measurement data into the pipeline.

The analysis pipeline runs unchanged on real M-Lab-style exports: this
module validates and normalises a CSV into the measurement-frame schema
that :func:`repro.pipeline.run_ixp_study` consumes, and can derive the
``ixps`` crossing column from raw hop IPs plus a PeeringDB-style prefix
list — the exact evidence chain of the paper.

Expected input columns (M-Lab NDT + traceroute join, simplified):

    asn, city, time_hour, rtt_ms            (required)
    hop_ips                                 ("|"-separated, optional)
    trigger, server_site                    (optional)

Everything else the pipeline needs (``unit``, ``day``, ``ixps``,
``crosses_ixp``) is derived here.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.chaos.runtime import fault_point
from repro.errors import FrameError, SimulationError
from repro.frames.column import Column, dense_rank
from repro.frames.frame import Frame
from repro.frames.io import read_csv_text
from repro.netsim.ids import Prefix
from repro.obs import get_metrics, span

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("asn", "city", "time_hour", "rtt_ms")


def load_ixp_prefixes(records: Mapping[str, Sequence[str]]) -> dict[str, list[Prefix]]:
    """Parse a PeeringDB-style mapping of exchange name to LAN prefixes."""
    out: dict[str, list[Prefix]] = {}
    for name, prefixes in records.items():
        out[name] = [Prefix.parse(p) for p in prefixes]
    return out


def detect_crossings_from_hops(
    hop_ips: str, prefixes: dict[str, list[Prefix]]
) -> list[str]:
    """Exchanges whose LAN contains any of the ``|``-separated hop IPs."""
    seen: list[str] = []
    for ip in str(hop_ips).split("|"):
        ip = ip.strip()
        if not ip:
            continue
        for name, lans in prefixes.items():
            if name in seen:
                continue
            try:
                if any(lan.contains(ip) for lan in lans):
                    seen.append(name)
            except SimulationError:
                continue  # unparseable hop entries ('*') are skipped
    return seen


def normalise_measurements(
    raw: Frame,
    ixp_prefixes: dict[str, list[Prefix]] | None = None,
) -> Frame:
    """Validate a raw import and derive the pipeline's expected columns.

    Every derived column is computed a column at a time: ``unit`` is
    formatted once per distinct ``(asn, city)`` pair, ``ixps`` (from
    ``hop_ips``) once per distinct hop string, and ``day`` and
    ``crosses_ixp`` in one array pass each.  Raises :class:`FrameError`
    with an actionable message when required columns are missing or
    malformed (non-numeric or non-finite ``time_hour``, or one whose
    day lies outside the int64 range).
    """
    missing = [c for c in REQUIRED_COLUMNS if c not in raw]
    if missing:
        raise FrameError(
            f"measurement import is missing required columns {missing}; "
            f"have {raw.column_names}"
        )
    for col in ("time_hour", "rtt_ms"):
        raw.numeric(col)  # raises when non-numeric

    out = raw.drop_missing(["asn", "city", "time_hour", "rtt_ms"])
    n = out.num_rows
    if n == 0:
        raise FrameError("no complete measurement rows after dropping missing")

    out = out.with_column("unit", _unit_labels(out.column("asn"), out.column("city")))
    hours = out.numeric("time_hour")
    if not np.isfinite(hours).all():
        raise FrameError("column 'time_hour' has non-finite values")
    days = np.floor_divide(hours, 24)
    if not ((days >= -(2.0**63)) & (days < 2.0**63)).all():
        raise FrameError("column 'time_hour' has values beyond the int64 day range")
    out = out.with_column("day", days.astype(np.int64))

    if "ixps" not in out:
        if ixp_prefixes and "hop_ips" in out:
            codes, hops = out.column("hop_ips").factorize()
            crossed = np.array(
                [",".join(detect_crossings_from_hops(h or "", ixp_prefixes)) for h in hops],
                dtype=object,
            )
            out = out.with_column("ixps", crossed[codes])
        else:
            out = out.with_column("ixps", np.full(n, "", dtype=object))
    out = out.with_column(
        "crosses_ixp", np.fromiter(map(bool, out["ixps"]), dtype=bool, count=n)
    )

    for name, default in (("trigger", "unknown"), ("server_site", "default"), ("as_path", "")):
        if name not in out:
            out = out.with_column(name, np.full(n, default, dtype=object))
    return out


def _unit_labels(asn: Column, city: Column) -> np.ndarray:
    """``AS<asn>/<city>`` per row, formatted once per distinct pair.

    Raises :class:`FrameError` naming the first ``asn`` that is not an
    integer in ``[0, 2**32)``; an integral float such as ``3741.0`` is
    an ASN.
    """
    asn_codes, asns = asn.factorize()
    for value in asns:
        if not _is_asn(value):
            shown = value.item() if isinstance(value, np.generic) else value
            raise FrameError(
                f"column 'asn' must hold integers in [0, 2**32); got {shown!r}"
            )
    city_codes, cities = city.factorize()
    codes, first = dense_rank(asn_codes * len(cities) + city_codes)
    labels = np.array(
        [f"AS{int(asns[a])}/{cities[c]}" for a, c in zip(asn_codes[first], city_codes[first])],
        dtype=object,
    )
    return labels[codes]


def _is_asn(value: object) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        return False
    if not isinstance(value, (int, np.integer, float, np.floating)):
        return False
    return 0 <= value < 2**32


def read_measurement_csv(path: str | Path) -> Frame:
    """Read a measurement CSV, surviving a truncated final line.

    A crashed or killed writer leaves its last row half-written (no
    trailing newline).  A truncated numeric cell can still parse —
    ``123.4`` cut to ``123`` is a silently wrong measurement — so any
    unterminated final line is dropped with a warning rather than
    trusted.  The raw text also passes through the ``"import.read"``
    fault point, where a chaos plan may truncate or garble it.
    """
    with open(path, newline="") as f:
        text = f.read()
    text = fault_point("import.read", key=str(path), value=text)
    if text and not text.endswith("\n"):
        head, _, tail = text.rpartition("\n")
        logger.warning(
            "%s: dropping truncated final CSV line (%d bytes): %.60s",
            path, len(tail), tail,
        )
        get_metrics().counter(
            "import_rows_dropped_total",
            "truncated trailing CSV lines dropped on import",
        ).inc()
        text = head + "\n" if head else ""
    return read_csv_text(text)


def import_csv(
    path: str | Path,
    ixp_prefixes: dict[str, list[Prefix]] | None = None,
) -> Frame:
    """Read and normalise a measurement CSV in one call."""
    with span("import.csv", path=str(path)) as sp:
        frame = normalise_measurements(read_measurement_csv(path), ixp_prefixes)
        sp.set(rows=frame.num_rows)
    get_metrics().counter(
        "measurements_imported_total", "measurement rows imported from CSV"
    ).inc(frame.num_rows)
    logger.info("imported %d measurement rows from %s", frame.num_rows, path)
    return frame
