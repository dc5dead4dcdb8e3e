"""Checks of the benchmark's own machinery: span arithmetic and failure counting.

    python3 -m pytest perfbench -q
"""

import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_and_pool_children():
    # CPU time: outer [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]
    tracer = tr.Tracer(thread_cpu=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("cli.outer"):
        with tracer.span("exact_pricing.b"):
            pass
        with tracer.span("hpm_series.c"):
            with tracer.span("special_functions.d"):
                pass
    selfs = tr.self_times(tracer.spans)
    by_name = {span.name: selfs[id(span)] for span in tracer.spans}
    assert by_name == {"cli.outer": 4, "exact_pricing.b": 2, "hpm_series.c": 3,
                       "special_functions.d": 1}

    # a root span reads process CPU time [0, 10]; a worker thread's span
    # parents on it, and both children's thread CPU time (3 each) is taken
    # out of the root's, whatever their wall-clock overlap
    tracer = tr.Tracer(thread_cpu=fake_clock([1, 2, 5, 4]), process_cpu=fake_clock([0, 10]))
    with tracer.span("cli.figure.1", root=True) as root:
        with tracer.span("config.first"):
            worker = threading.Thread(target=lambda: tracer.close(tracer.open("config.w", "config")))
            worker.start()
            worker.join(timeout=10)
    assert not worker.is_alive()
    worker_span = next(s for s in tracer.spans if s.name == "config.w")
    assert worker_span.parent is root
    selfs = tr.self_times(tracer.spans)
    assert [selfs[id(span)] for span in tracer.spans] == [4, 3, 3]


def test_instrument_opens_one_span_per_layer_boundary():
    from putpricer import cli, transforms

    tracer = tr.Tracer()
    restore = tr.instrument(tracer)
    try:
        spec = transforms.VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.3,
                                            maturity=0.5)
        cli.bs_put(spec)
    finally:
        restore()
    names = [span.name for span in tracer.spans]
    # normal_cdf calls erfc inside special_functions: no span of its own
    assert names == ["transforms.VanillaOptionSpec", "exact_pricing.bs_put",
                     "special_functions.normal_cdf", "special_functions.normal_cdf"]
    assert tracer.spans[2].parent is tracer.spans[1]
    assert tracer.counters() == {"transforms.spec_builds": 1, "special_functions.elems": 2}
    assert cli.bs_put.__module__ == "putpricer.exact_pricing"
    assert not hasattr(cli.bs_put, "__wrapped__")


class CorruptedQuotes(workloads.Quotes):
    """Returns a wrong bs_put price; the library itself is untouched."""

    def op(self, i, tracer=None):
        price = super().op(i, tracer)
        return price * (1.0 + 1e-6) if i % len(workloads.QUOTE_KINDS) == 0 else price


def test_wrong_output_raises_error_rate(tmp_path):
    clean = workloads.Quotes(7, str(tmp_path))
    _, _, attempted, failed, _ = run.measure(clean, 0.05)
    assert attempted >= 6 and failed == 0

    _, _, attempted, failed, _ = run.measure(CorruptedQuotes(7, str(tmp_path)), 0.05)
    assert attempted >= 6 and failed / attempted > 0

    figures = workloads.Figures(workloads.PAPER_SEED, str(tmp_path))
    # on the paper seed a figure is checked byte for byte against its golden
    from putpricer import cli
    assert cli.main(["figure", "1", "--out", figures.paths[1],
                     "--config", figures.config_path]) == 0
    assert figures.figure_ok(1) == (True, 201)
    with open(figures.paths[1], "r+b") as handle:
        handle.seek(-3, os.SEEK_END)
        handle.write(b"9")
    assert figures.figure_ok(1)[0] is False
