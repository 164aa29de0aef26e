"""Extension ablations (design choices DESIGN.md calls out, beyond the
paper's own figures): the deflection design space (ext1), buffer
management (ext2) and delayed ACKs (ext3)."""

from dataclasses import replace

from figures import Claim, Figure, Point, bench_config, run_figure

COLUMNS = ["series", "load_pct", "mean_qct_s", "query_completion_pct",
           "drop_pct", "deflections"]
ALTERNATIVES = ("ecmp", "letflow", "pabo", "dibs")


def _tweaked(config, part, **changes):
    """``config`` with fields of its ``network``/``transport`` replaced."""
    setattr(config, part, replace(getattr(config, part), **changes))
    return config


def _vertigo_ahead(label):
    return Claim(f"Vertigo's mean QCT is below ECMP's with {label}",
                 lambda v: v("mean_qct_s", series=f"vertigo/{label}")
                 < v("mean_qct_s", series=f"ecmp/{label}"))


FIGURES = [
    Figure(
        id="ext1",
        title="deflection design space: bounce vs flowlets vs selective "
              "deflection",
        paper="No paper counterpart: Vertigo vs the two related-work "
              "schemes the paper cites but does not simulate, PABO (bounce "
              "upstream, [65]) and LetFlow (flowlet switching, [72]).",
        points=[Point(bench_config(system, "dctcp", bg_load=bg,
                                   incast_load=incast), {"series": system})
                for system in (*ALTERNATIVES, "vertigo")
                for bg, incast in [(0.25, 0.10), (0.50, 0.35)]],
        columns=COLUMNS,
        claims=[Claim(f"Vertigo's mean QCT is at most {other}'s at 85% load",
                      lambda v, other=other:
                      v("mean_qct_s", series="vertigo", load_pct=85)
                      <= v("mean_qct_s", series=other, load_pct=85))
                for other in ALTERNATIVES]),
    Figure(
        id="ext2",
        title="static per-port vs DT shared buffers",
        paper="No paper counterpart (§5 'future work'): Dynamic-Threshold "
              "shared memory vs the paper's static per-port buffers, for "
              "both ECMP and Vertigo.",
        points=[Point(_tweaked(bench_config(system, "dctcp", bg_load=0.25,
                                            incast_load=0.35),
                               "network", shared_buffer_alpha=alpha),
                      {"series": f"{system}/{label}"})
                for system in ("ecmp", "vertigo")
                for label, alpha in (("static", None), ("dt-shared", 2.0))],
        columns=COLUMNS,
        claims=[
            Claim("DT shared buffers do not raise ECMP's drop rate",
                  lambda v: v("drop_pct", series="ecmp/dt-shared")
                  <= v("drop_pct", series="ecmp/static")),
            _vertigo_ahead("static"), _vertigo_ahead("dt-shared"),
        ]),
    Figure(
        id="ext3",
        title="per-packet vs delayed ACKs (DCTCP)",
        paper="No paper counterpart: delayed vs per-packet ACKs; is the "
              "system ordering sensitive to the ACK policy?",
        points=[Point(_tweaked(bench_config(system, "dctcp", bg_load=0.40,
                                            incast_load=0.25),
                               "transport", delayed_ack=delayed),
                      {"series": f"{system}/{label}"})
                for system in ("ecmp", "vertigo")
                for label, delayed in (("per-pkt", False), ("delack", True))],
        columns=COLUMNS,
        claims=[_vertigo_ahead("per-pkt"), _vertigo_ahead("delack")]),
]


def test_ext1_deflection_design_space(benchmark):
    run_figure(benchmark, FIGURES[0])


def test_ext2_buffer_management(benchmark):
    run_figure(benchmark, FIGURES[1])


def test_ext3_delayed_acks(benchmark):
    run_figure(benchmark, FIGURES[2])
