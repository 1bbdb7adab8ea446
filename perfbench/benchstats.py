"""Arithmetic of the LENS perf benchmark: estimators, span attribution and
the result line. Pure functions over what lens_perfbench prints, so the
tests in test_benchstats.py can pin every number run.py reports."""

import json
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """Metric and workload names: a letter or digit, then [A-Za-z0-9_.-]."""
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit):
    return bool(UNIT_RE.fullmatch(unit))


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def fast_half_rate(reps):
    """Throughput of a run: units/seconds of each timed (non-warm-up)
    repetition, then the median of the faster half, i.e. of the fastest
    ceil(k/2) of the k repetitions. Host slowdowns only ever lower a rate,
    so the faster half tracks the program's own speed; its median is
    steadier across runs than the single best repetition, whose value rests
    on the rare fastest outlier. With two repetitions it is the best of two."""
    rates = sorted((r["units"] / r["seconds"] for r in reps
                    if not r["warmup"] and r["seconds"] > 0), reverse=True)
    if not rates:
        raise ValueError("no timed repetitions")
    return statistics.median(rates[:(len(rates) + 1) // 2])


def median_setup(setups):
    """Median seconds per set-up over the set-up blocks of one run."""
    if not setups:
        raise ValueError("no set-up blocks")
    return statistics.median(s["seconds"] for s in setups)


def parse_output(text):
    """Split lens_perfbench stdout into JSON records and span tuples
    (id, parent, name, start, end)."""
    records, spans = [], []
    for line in text.splitlines():
        if line.startswith("span "):
            _, sid, parent, name, start, end = line.split()
            spans.append((int(sid), int(parent), name, float(start), float(end)))
        elif line.startswith("{"):
            records.append(json.loads(line))
    return records, spans


def span_table(spans, under=None):
    """Per span name: total duration, self time (duration minus the part
    its direct children cover) and call count. With `under`, only spans
    below a span of that name count."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def below(sid):
        parent = by_id[sid][1]
        while parent >= 0:
            if by_id[parent][2] == under:
                return True
            parent = by_id[parent][1]
        return False

    table = {}
    for sid, _, name, start, end in spans:
        if under is not None and not below(sid):
            continue
        row = table.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
        row["total"] += end - start
        row["self"] += (end - start) - child_time.get(sid, 0.0)
        row["calls"] += 1
    return table


def residual_share(untraced_s, layer_self_s):
    """Share of the untraced end-to-end time the layers' self times leave
    unexplained (negative when they explain more than was measured)."""
    return (untraced_s - sum(layer_self_s)) / untraced_s


def overhead_share(traced_s, untraced_s):
    """Extra time of the traced run over the untraced one, as a share."""
    return (traced_s - untraced_s) / untraced_s


def tally_checks(checks):
    """(attempted, failed): every output check is one operation; every
    violation is a failed one."""
    return len(checks), sum(1 for c in checks if not c["ok"])


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line. `metrics` maps name -> value;
    `units` maps name -> unit."""
    for name in metrics:
        if not valid_name(name):
            raise ValueError("bad metric name %r" % name)
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    body = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    return json.dumps(body)
