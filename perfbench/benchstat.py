"""Statistics and verdict rules of the perfbench benchmark.

Kept apart from run.py so the rules can be tested without building or
running the simulator (see test_benchstat.py).
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives
    them; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else float("inf")


def verdict(parent, child, better, bound):
    """Verdict on one end-to-end metric of one workload.

    `parent` and `child` are the values of runs made in alternation, in
    run order, so parent[i] and child[i] form a pair. The rule:

    * regressed: the child's median is worse than the parent's by more
      than `bound` (a share of the parent's median);
    * improved: the child wins at least nine tenths of the pairs, ties
      counting for neither, and the medians differ by more than the
      distance between the parent's quartiles;
    * unresolved: the parent's own spread is wider than `bound`, unless
      every child run reads better than every parent run;
    * unchanged: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")

    def beats(a, b):
        return a < b if better == "lower" else a > b

    pm, cm = median(parent), median(child)
    if pm == 0:
        raise ValueError("parent median is 0; the rule needs a nonzero base")
    worse = (cm - pm) / abs(pm) if better == "lower" else (pm - cm) / abs(pm)
    if worse > bound:
        return "regressed"
    pairs = list(zip(parent, child))
    wins = sum(1 for p, c in pairs if beats(c, p))
    q1, q3 = quartiles(parent)
    if (pairs and wins >= 0.9 * len(pairs) and beats(cm, pm)
            and abs(cm - pm) > q3 - q1):
        return "improved"
    everyone_better = all(beats(c, p) for c in child for p in parent)
    if spread(parent) > bound and not everyone_better:
        return "unresolved"
    return "unchanged"


def alternated(parent_starts, child_starts):
    """Whether parent and child runs took turns, judged by their start
    times; the verdict's pairing assumes they did. A run without a start
    time cannot be placed, so the answer is then False."""
    if None in parent_starts or None in child_starts:
        return False
    order = sorted([(t, "parent") for t in parent_starts] +
                   [(t, "child") for t in child_starts])
    return all(a[1] != b[1] for a, b in zip(order, order[1:]))


def count_failed(passes):
    """Operations attempted and failed over a run's passes.

    Every cell of every pass is one operation. A cell fails when the driver
    marked it failed, or when its fingerprint differs from the same cell's
    fingerprint in the first pass, the untraced warm-up, which is the
    run's reference; a cell the reference lacks fails too. Returns
    (attempted, failed, messages).
    """
    reference = {cell["key"]: cell["fp"] for cell in passes[0]["cells"]}
    attempted = failed = 0
    messages = []
    for index, run_pass in enumerate(passes):
        for cell in run_pass["cells"]:
            attempted += 1
            problem = None
            if not cell["ok"]:
                problem = cell.get("error", "failed")
            elif cell["key"] not in reference:
                problem = "not in the reference pass"
            elif cell["fp"] != reference[cell["key"]]:
                problem = (f"fingerprint {cell['fp']} differs from the "
                           f"reference {reference[cell['key']]}")
            if problem is not None:
                failed += 1
                messages.append(f"pass {index} cell {cell['key']}: {problem}")
    return attempted, failed, messages
