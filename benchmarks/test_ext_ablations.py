"""Extension ablations (design choices DESIGN.md calls out, beyond the
paper's own figures):

- **ext1 — deflection design space:** Vertigo vs the two related-work
  deflection/balancing schemes it cites but does not simulate: PABO
  (bounce upstream, [65]) and LetFlow (flowlet switching, [72]).
  Expected: LetFlow behaves like a better ECMP (still drops incast at
  the last hop); PABO absorbs mild bursts but backpressure collapses
  under heavy incast; Vertigo dominates.
- **ext2 — buffer management:** static per-port buffers (the paper's
  switches) vs Dynamic-Threshold shared memory, for both ECMP and
  Vertigo.  Expected: DT helps drop-based systems absorb bursts;
  Vertigo benefits less because deflection already borrows *other
  switches'* buffers (§5 'future work' exploration).
- **ext3 — delayed ACKs:** per-packet vs delayed ACKs under DCTCP:
  ACK-path load halves with little effect on QCT ordering.
"""

from dataclasses import replace

from common import bench_config, emit, once, run_row

COLUMNS = ["series", "load_pct", "mean_qct_s", "query_completion_pct",
           "drop_pct", "deflections"]


def test_ext1_deflection_design_space(benchmark):
    systems = ["ecmp", "letflow", "pabo", "dibs", "vertigo"]
    loads = [(0.25, 0.10), (0.50, 0.35)]

    def sweep():
        rows = []
        for system in systems:
            for bg, incast in loads:
                config = bench_config(system, "dctcp", bg_load=bg,
                                      incast_load=incast)
                rows.append(run_row(config, extra={"series": system}))
        return rows

    rows = once(benchmark, sweep)
    emit("ext1", "deflection design space: bounce vs flowlets vs "
         "selective deflection", rows, COLUMNS)

    def qct(system, load):
        return next(r["mean_qct_s"] for r in rows
                    if r["series"] == system and r["load_pct"] == load)

    # Vertigo dominates every alternative at the heavy point.
    for system in ("ecmp", "letflow", "pabo", "dibs"):
        assert qct("vertigo", 85) <= qct(system, 85)


def test_ext2_buffer_management(benchmark):
    def sweep():
        rows = []
        for system in ("ecmp", "vertigo"):
            for label, alpha in (("static", None), ("dt-shared", 2.0)):
                config = bench_config(system, "dctcp", bg_load=0.25,
                                      incast_load=0.35)
                if alpha is not None:
                    config.network = replace(config.network,
                                             shared_buffer_alpha=alpha)
                rows.append(run_row(
                    config, extra={"series": f"{system}/{label}"}))
        return rows

    rows = once(benchmark, sweep)
    emit("ext2", "static per-port vs DT shared buffers", rows, COLUMNS)
    by = {row["series"]: row for row in rows}
    # DT gives the drop-based baseline a real boost...
    assert by["ecmp/dt-shared"]["drop_pct"] \
        <= by["ecmp/static"]["drop_pct"]
    # ...and Vertigo stays ahead of ECMP under both regimes.
    assert by["vertigo/static"]["mean_qct_s"] \
        < by["ecmp/static"]["mean_qct_s"]
    assert by["vertigo/dt-shared"]["mean_qct_s"] \
        < by["ecmp/dt-shared"]["mean_qct_s"]


def test_ext3_delayed_acks(benchmark):
    def sweep():
        rows = []
        for system in ("ecmp", "vertigo"):
            for label, delayed in (("per-pkt", False), ("delack", True)):
                config = bench_config(system, "dctcp", bg_load=0.40,
                                      incast_load=0.25)
                config.transport = replace(config.transport,
                                           delayed_ack=delayed)
                rows.append(run_row(
                    config, extra={"series": f"{system}/{label}"}))
        return rows

    rows = once(benchmark, sweep)
    emit("ext3", "per-packet vs delayed ACKs (DCTCP)", rows, COLUMNS)
    by = {row["series"]: row for row in rows}
    # The system ordering is insensitive to the ACK policy.
    assert by["vertigo/per-pkt"]["mean_qct_s"] \
        < by["ecmp/per-pkt"]["mean_qct_s"]
    assert by["vertigo/delack"]["mean_qct_s"] \
        < by["ecmp/delack"]["mean_qct_s"]
