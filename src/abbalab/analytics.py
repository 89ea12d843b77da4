"""Glycaemic outcome metrics and the statistical comparison machinery.

Time-in-range percentages, persistence-gated event counts, the Kovatchev
low-blood-glucose index, an ADAG HbA1c estimator, a Lilliefors normality test
with Dallal & Wilkinson's closed-form p, and a paired comparison that gates
between the paired t-test and an exact-capable Wilcoxon signed-rank test.
`build_report` is the one home of the pairing rule and the arm order: it turns
per-patient outcomes into the report that `report_to_csv` and `chart_svg`
export. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .initialisation import COLLECTION_DAYS, linear_quantile
from .patient import HYPER, HYPO, MINUTES_PER_DAY, SEVERE_HYPO

EVENT_PERSIST_MIN = 15     # minutes beyond threshold to open an event
EVENT_REARM_MIN = 15       # in-range minutes to close it


# --- normal and Student t tails -------------------------------------------------
# Built on math.erfc and math.lgamma: no command imports scipy.

_SQRT1_2 = math.sqrt(0.5)
_MACHEP = 2.0 ** -53
_TINY = 1e-300


def ndtr(x: float) -> float:
    """Standard normal CDF of a float, 0.5 * erfc(-x / sqrt(2))."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


def stdtr(df: int, t: float) -> float:
    """Student t CDF with an integer df >= 1 degrees of freedom, at a float t.

    For t >= -2 the closed form for integer df (cephes stdtr): an arctangent
    plus a finite sum for odd df, a finite sum for even df. Below -2, where
    that form would cancel, half the regularised incomplete beta
    I_x(df/2, 1/2) at x = df / (df + t^2).
    """
    if df < 1 or df != int(df):
        raise ValueError(f"df must be a positive integer, got {df}")
    t = float(t)
    if t == 0.0:
        return 0.5
    if t < -2.0:
        tt = t * t
        a = 0.5 * df
        log_front = (-a * math.log1p(tt / df) + 0.5 * math.log(tt / (df + tt))
                     + math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5))
        return 0.5 * math.exp(log_front) * _beta_cf(a, 0.5, df / (df + tt)) / a
    x = abs(t)
    z = 1.0 + x * x / df
    f = term = 1.0
    j = 3 if df % 2 else 2
    while j <= df - 2 and term / f > _MACHEP:
        term *= (j - 1) / (z * j)
        f += term
        j += 2
    if df % 2:
        xsqk = x / math.sqrt(df)
        p = math.atan(xsqk) + (f * xsqk / z if df > 1 else 0.0)
        p *= 2.0 / math.pi
    else:
        p = f * x / math.sqrt(z * df)
    return 0.5 + 0.5 * math.copysign(p, t)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta by Lentz's method; it
    converges in a few dozen steps for x < (a + 1) / (a + b + 2), which holds
    for every x that stdtr passes (it holds whenever t^2 > 3)."""
    def nonzero(v):
        return v if abs(v) > _TINY else _TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / nonzero(1.0 + num * d)
            c = nonzero(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) <= 2.0 * _MACHEP:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction: no convergence "
                          f"at a={a}, b={b}, x={x}")


def time_in_ranges(series) -> tuple[float, float, float, float]:
    """(tir, tbr1, tbr2, tar) percentages; tir + tbr1 + tar == 100 exactly."""
    g = np.asarray(series, dtype=float)
    if g.size == 0:
        raise ValueError("empty glucose series")
    return _range_pcts(g < HYPO, g < SEVERE_HYPO, g > HYPER)


def _range_pcts(low, severe, high) -> tuple[float, float, float, float]:
    """time_in_ranges from the per-minute band masks."""
    n = low.size
    tbr1, tbr2, tar = (np.count_nonzero(m) for m in (low, severe, high))
    return (100.0 * (n - tbr1 - tar) / n, 100.0 * tbr1 / n, 100.0 * tbr2 / n,
            100.0 * tar / n)


def _count_runs(beyond: np.ndarray, persist: int, rearm: int) -> int:
    """Events = runs of >= persist True, separated by >= rearm False."""
    if beyond.size == 0:
        return 0
    starts = np.r_[0, np.flatnonzero(beyond[1:] != beyond[:-1]) + 1]
    lengths = np.diff(np.r_[starts, beyond.size])
    count = 0
    in_event = False
    for flag, length in zip(beyond[starts].tolist(), lengths.tolist()):
        if flag:
            if not in_event and length >= persist:
                in_event = True
                count += 1
        elif in_event and length >= rearm:
            in_event = False
    return count


def count_events(series) -> tuple[int, int]:
    """(hypo_events, hyper_events) on a minute-resolution trace."""
    g = np.asarray(series, dtype=float)
    hypo = _count_runs(g < HYPO, EVENT_PERSIST_MIN, EVENT_REARM_MIN)
    hyper = _count_runs(g > HYPER, EVENT_PERSIST_MIN, EVENT_REARM_MIN)
    return hypo, hyper


def lbgi(series) -> float:
    """Kovatchev low-blood-glucose index: mean of 10*f(G)^2 over f < 0."""
    return float(np.mean(_low_risk(np.asarray(series, dtype=float))))


_RISK_CHUNK = 1 << 14       # elements squared at a time in _low_risk


def _low_risk(g: np.ndarray) -> np.ndarray:
    """Per-minute low-glucose risk 10*f(G)^2, 0 where f >= 0.

    Bit for bit np.where(f < 0, 10*f*f, 0) with f = 1.509*(log(G)**1.084 -
    5.381), computed in the one array the log allocates: a 90-day trial's
    risk costs one copy of its glucose plus a chunk, not three copies.
    Glucose below 1 mg/dL, or NaN, raises ValueError: there the log is
    negative or NaN and f would be NaN, which would score no risk.
    """
    if not np.all(g >= 1.0):
        raise ValueError("glucose values must be at least 1 mg/dL")
    f = np.log(g)
    np.power(f, 1.084, out=f)
    f -= 5.381
    f *= 1.509
    np.minimum(f, 0.0, out=f)
    flat = f.reshape(-1)
    for lo in range(0, flat.size, _RISK_CHUNK):
        chunk = flat[lo:lo + _RISK_CHUNK]
        chunk *= 10.0 * chunk
    return f


def _adag_hba1c(mean_glucose: float) -> float:
    """ADAG linear HbA1c estimate (%) from a mean glucose (mg/dL)."""
    return (mean_glucose + 46.7) / 28.7


def estimate_hba1c(series) -> float:
    """ADAG linear estimate from mean glucose, in percent."""
    g = np.asarray(series, dtype=float)
    if g.size == 0:
        raise ValueError("empty glucose series")
    return _adag_hba1c(float(np.mean(g)))


# --- Lilliefors normality test (closed-form p-values) ---------------------------


def _ks_stat_normal(x: np.ndarray) -> float:
    """KS distance between the sample and a normal with estimated mean/SD."""
    n = x.size
    mu = x.mean()
    sd = x.std(ddof=1)
    if sd == 0.0:
        return 1.0
    cdf = np.array([ndtr(z) for z in np.sort((x - mu) / sd).tolist()])
    up = np.arange(1, n + 1) / n - cdf
    down = cdf - np.arange(0, n) / n
    return float(max(up.max(), down.max()))


def _lilliefors_p(stat: float, n: int) -> float:
    """Upper tail of the Lilliefors statistic at sample size n by Dallal &
    Wilkinson's closed form (The American Statistician 40(4), 1986)."""
    if n > 100:
        stat *= (n / 100.0) ** 0.49
        n = 100
    m = n + 2.78019
    return min(1.0, math.exp(-7.01256 * stat * stat * m + 2.99587 * stat * math.sqrt(m)
                             - 0.122119 + 0.974598 / math.sqrt(n) + 1.67997 / n))


def lilliefors(sample) -> tuple[float, float]:
    """(statistic, p) for normality with estimated parameters.

    p is accurate below 0.1. Above it, p overstates at small n (n = 5: 0.69
    where a simulated null gives 0.50); only paired_compare's 0.05 gate reads
    it. A constant sample rejects by convention.
    """
    x = np.asarray(sample, dtype=float)
    if x.size < 5:
        raise ValueError("need at least 5 observations")
    if np.ptp(x) == 0.0:
        return 1.0, 0.0
    stat = _ks_stat_normal(x)
    return stat, _lilliefors_p(stat, x.size)


# --- Wilcoxon signed-rank -------------------------------------------------------

_WILCOXON_EXACT_MAX = 25


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each tie group given the mean of its ranks."""
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _signed_ranks(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranks of |d|, signs) with zeros dropped and ties averaged."""
    d = diff[diff != 0.0]
    return _average_ranks(np.abs(d)), np.sign(d)


def _wilcoxon_exact_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact two-sided p by DP over all 2^n sign assignments.

    Average ranks are multiples of 1/2, so doubling them makes every
    achievable W+ an integer and the distribution a small integer DP. Ties
    are handled exactly because the DP runs on the observed rank multiset.
    """
    doubled = np.rint(ranks * 2.0).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r] if r > 0 else counts
        counts = counts + shifted
    counts /= counts.sum()
    w2 = int(round(w_plus * 2.0))
    upper = counts[w2:].sum()
    lower = counts[: w2 + 1].sum()
    return float(min(1.0, 2.0 * min(upper, lower)))


def _wilcoxon_normal_p(ranks: np.ndarray, w_plus: float) -> float:
    """Normal approximation with continuity and tie corrections."""
    n = ranks.size
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    if var <= 0.0:
        return 1.0
    delta = w_plus - mean
    z = (delta - 0.5 * np.sign(delta)) / math.sqrt(var)
    return float(min(1.0, 2.0 * ndtr(-abs(z))))


def wilcoxon_signed_rank(diff) -> tuple[float, float, str]:
    """(W+, two-sided p, method); exact for n <= 25, else normal approximation."""
    d = np.asarray(diff, dtype=float)
    ranks, signs = _signed_ranks(d)
    n = ranks.size
    if n == 0:
        return 0.0, 1.0, "exact"
    w_plus = float(ranks[signs > 0].sum())
    if n <= _WILCOXON_EXACT_MAX:
        return w_plus, _wilcoxon_exact_p(ranks, w_plus), "exact"
    return w_plus, _wilcoxon_normal_p(ranks, w_plus), "normal"


def paired_t(diff) -> tuple[float, float]:
    """Paired t statistic and two-sided p on the differences."""
    d = np.asarray(diff, dtype=float)
    n = d.size
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0, 1.0
    t = d.mean() / (sd / math.sqrt(n))
    return float(t), float(2.0 * stdtr(n - 1, -abs(t)))


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    window: str
    n: int
    test: str              # "t" or "wilcoxon"
    p_value: float
    significant: bool


def _describe(x: np.ndarray) -> tuple[float, float, float, tuple[float, float]]:
    """Mean, sample SD, median and quartiles. The median and quartiles equal
    np.median and np.percentile bit for bit, from one sort and no numpy.ma."""
    s = np.sort(x).tolist()
    n = len(s)
    if s[-1] != s[-1]:                          # a NaN sorts last
        median = lo = hi = math.nan
    else:
        median = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
        lo, hi = linear_quantile(s, 0.25), linear_quantile(s, 0.75)
    return (float(np.mean(x)), float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
            float(median), (float(lo), float(hi)))


def paired_compare(a, b, alpha: float = 0.01, metric: str = "",
                   window: str = "") -> ComparisonRow:
    """Arm-a vs arm-b paired comparison with a normality gate.

    Both arms must look normal under Lilliefors (p > 0.05, which a constant
    arm is not) for the paired t-test; otherwise the Wilcoxon signed-rank
    test runs. All-zero differences give p = 1 by convention.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size != y.size:
        raise ValueError("paired samples must have equal length")
    diff = x - y
    if np.all(diff == 0.0):
        test, p = "t", 1.0
    else:
        normal_a = x.size >= 5 and lilliefors(x)[1] > 0.05
        normal_b = y.size >= 5 and lilliefors(y)[1] > 0.05
        if normal_a and normal_b:
            test = "t"
            _, p = paired_t(diff)
        else:
            test = "wilcoxon"
            _, p, _ = wilcoxon_signed_rank(diff)
    return ComparisonRow(metric=metric, window=window, n=int(x.size),
                         test=test, p_value=p, significant=bool(p < alpha))


# --- analysis windows and reports ---------------------------------------------

WINDOW_WEEKS = 4
WINDOW_STEP_WEEKS = 1


@dataclass(frozen=True)
class Window:
    name: str
    start_day: int    # 1-based, inclusive
    end_day: int      # inclusive


def standard_windows(days: int) -> list[Window]:
    """full + first/last 4 weeks + 4-week windows stepped weekly post-collection.
    The windows start on day COLLECTION_DAYS + 1, where a trial's glucose
    starts."""
    online_start = COLLECTION_DAYS + 1
    if days <= COLLECTION_DAYS:
        raise ValueError("trial shorter than the collection phase")
    out = [Window("full", online_start, days)]
    span = WINDOW_WEEKS * 7
    out.append(Window("first4w", online_start, min(online_start + span - 1, days)))
    out.append(Window("last4w", max(online_start, days - span + 1), days))
    start = online_start
    while start <= days - span // 2:      # allow the final, possibly short window
        end = min(start + span - 1, days)
        week = (start - 1) // 7 + 1
        out.append(Window(f"week{week}", start, end))
        if end == days:
            break
        start += WINDOW_STEP_WEEKS * 7
    return out


@dataclass(frozen=True)
class GlycemicSummary:
    tir_pct: float
    tbr1_pct: float
    tbr2_pct: float
    tar_pct: float
    hypo_events: int
    hyper_events: int
    mean_glucose: float
    hba1c_pct: float
    lbgi: float
    tdd_u_per_day: float


METRIC_FIELDS = tuple(f.name for f in fields(GlycemicSummary))


@dataclass(frozen=True)
class PatientOutcome:
    """Per-patient reduction of one trial: window summaries + event tallies."""
    patient_id: int
    arm: str
    scenario: str
    diabetes_type: str
    summaries: dict[str, GlycemicSummary]
    rescue_count: int


def reduce_trial(result, windows: list[Window]) -> PatientOutcome:
    """Metrics per window (1-based inclusive days, all on-line), read as
    slices of the on-line minutes and of their band masks and low-glucose
    risk. The minutes are a flat view of result.glucose, whose first row is
    day COLLECTION_DAYS + 1; the day totals come from every day's trace. The
    reduction allocates, for the on-line days, three one-byte masks and one
    float risk array, so it peaks at about 1.5 times the glucose's bytes."""
    g = result.glucose.reshape(-1)
    minutes = (g, g < HYPO, g < SEVERE_HYPO, g > HYPER, _low_risk(g))
    tdd = [t.total_insulin_u for t in result.day_traces]
    summaries = {}
    for w in windows:
        if w.start_day <= COLLECTION_DAYS:
            raise ValueError(f"window {w.name} starts on day {w.start_day}, "
                             "in the collection phase")
        span = slice((w.start_day - 1 - COLLECTION_DAYS) * MINUTES_PER_DAY,
                     (w.end_day - COLLECTION_DAYS) * MINUTES_PER_DAY)
        wg, low, severe, high, risk = (a[span] for a in minutes)
        tir, tbr1, tbr2, tar = _range_pcts(low, severe, high)
        mean = float(np.mean(wg))
        summaries[w.name] = GlycemicSummary(
            tir_pct=tir, tbr1_pct=tbr1, tbr2_pct=tbr2, tar_pct=tar,
            hypo_events=_count_runs(low, EVENT_PERSIST_MIN, EVENT_REARM_MIN),
            hyper_events=_count_runs(high, EVENT_PERSIST_MIN, EVENT_REARM_MIN),
            mean_glucose=mean, hba1c_pct=_adag_hba1c(mean),
            lbgi=float(np.mean(risk)),
            tdd_u_per_day=float(np.mean(tdd[w.start_day - 1:w.end_day])))
    rescues = sum(len(t.rescues) for t in result.day_traces)
    return PatientOutcome(patient_id=result.patient.id, arm=result.arm,
                          scenario=result.scenario,
                          diabetes_type=result.patient.diabetes_type,
                          summaries=summaries, rescue_count=rescues)


def _values(outcomes: list[PatientOutcome], window: str, name: str) -> np.ndarray:
    return np.array([getattr(o.summaries[window], name) for o in outcomes],
                    dtype=float)


@dataclass(frozen=True)
class TrialReport:
    scenario: str
    diabetes_type: str
    windows: list[Window]
    outcomes: dict[str, list[PatientOutcome]]   # arm -> paired patients by id
    comparisons: list[ComparisonRow]

    def metric(self, arm: str, window: str, name: str) -> np.ndarray:
        return _values(self.outcomes[arm], window, name)


def build_report(outcomes, windows: list[Window]) -> TrialReport:
    """Pair per-patient outcomes of one scenario and diabetes type into a report.

    A patient without an outcome for every arm present is dropped from every
    arm, so a failed trial leaves its patient out of both sides; a patient
    with two outcomes for one arm raises ValueError. With two arms the first
    in sorted order (abba) is compared against the second (bba) on every
    window and metric; one arm gives its summaries alone.
    """
    outcomes = sorted(outcomes, key=lambda o: o.patient_id)
    if not outcomes:
        raise ValueError("no outcomes")
    seen = set()
    for o in outcomes:
        if (o.patient_id, o.arm) in seen:
            raise ValueError(f"patient {o.patient_id} has two {o.arm} outcomes")
        seen.add((o.patient_id, o.arm))
    if len({(o.scenario, o.diabetes_type) for o in outcomes}) != 1:
        raise ValueError("outcomes must share scenario and diabetes type")
    arms = sorted({o.arm for o in outcomes})
    if len(arms) > 2:
        raise ValueError(f"expected one or two arms, got {arms}")
    paired = set.intersection(*({o.patient_id for o in outcomes if o.arm == arm}
                                for arm in arms))
    if not paired:
        raise ValueError("no patient has an outcome for every arm")
    by_arm = {arm: [o for o in outcomes if o.arm == arm and o.patient_id in paired]
              for arm in arms}
    comparisons = []
    if len(arms) == 2:
        a, b = by_arm.values()
        comparisons = [paired_compare(_values(a, w.name, m), _values(b, w.name, m),
                                      metric=m, window=w.name)
                       for w in windows for m in METRIC_FIELDS]
    first = outcomes[0]
    return TrialReport(scenario=first.scenario, diabetes_type=first.diabetes_type,
                       windows=list(windows), outcomes=by_arm,
                       comparisons=comparisons)


# --- report export ----------------------------------------------------------------

REPORT_SCHEMA = "abbalab-report v1"

_SUMMARY_COLUMNS = ("window", "metric", "arm", "n", "mean", "sd", "median",
                    "iqr_lo", "iqr_hi", "test", "p_value", "significant")


def _csv_quote(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_row(cells) -> str:
    return ",".join(_csv_quote(str(c)) for c in cells)


def report_to_csv(report: TrialReport, headers: dict[str, str] | None = None) -> str:
    """One row per metric per arm per window, then the paired comparisons.

    Every distributional cell carries both mean/SD and median/IQR so either
    presentation convention can be read off directly. Floats are written with
    repr() for byte-stable full precision.
    """
    lines = [f"# {REPORT_SCHEMA}"]
    for key, value in (headers or {}).items():
        lines.append(f"# {key} {value}")
    lines.append(f"# scenario {report.scenario}")
    lines.append(f"# diabetes_type {report.diabetes_type}")
    lines.append(_csv_row(_SUMMARY_COLUMNS))
    for window in report.windows:
        for metric in METRIC_FIELDS:
            for arm in report.outcomes:
                values = report.metric(arm, window.name, metric)
                mean, sd, median, iqr = _describe(values)
                lines.append(_csv_row((
                    window.name, metric, arm, values.size, repr(mean), repr(sd),
                    repr(median), repr(iqr[0]), repr(iqr[1]), "", "", "")))
    for arm, arm_outcomes in report.outcomes.items():
        rescues = np.array([o.rescue_count for o in arm_outcomes], dtype=float)
        mean, sd, median, iqr = _describe(rescues)
        lines.append(_csv_row((
            "trial", "rescue_count", arm, rescues.size, repr(mean), repr(sd),
            repr(median), repr(iqr[0]), repr(iqr[1]), "", "", "")))
        lines.append(_csv_row((
            "trial", "rescue_total", arm, rescues.size, repr(float(rescues.sum())),
            "", "", "", "", "", "", "")))
    for row in report.comparisons:
        lines.append(_csv_row((
            row.window, row.metric, "", row.n, "", "", "", "", "",
            row.test, repr(row.p_value), row.significant)))
    return "\n".join(lines) + "\n"


# --- sliding-window chart ---------------------------------------------------------

_CHART_SERIES = (("tir_pct", "#2f7d4f", "TIR"),
                 ("tbr1_pct", "#c0392b", "TBR I"),
                 ("tar_pct", "#d98e04", "TAR"))
_CHART_W, _CHART_H = 720.0, 420.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62.0, 160.0, 34.0, 46.0


def chart_svg(report: TrialReport, headers: dict[str, str] | None = None) -> str:
    """Cohort-mean TIR/TBR I/TAR over the weekly sliding windows, per arm.

    Hand-written SVG: a fixed document with one polyline per metric per arm,
    so identical reports always render to identical bytes.
    """
    weekly = [w for w in report.windows if w.name.startswith("week")]
    if not weekly:
        raise ValueError("report has no sliding windows to plot")
    arms = list(report.outcomes)
    weeks = [int(w.name[4:]) for w in weekly]
    x_lo, x_hi = min(weeks), max(weeks)
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def x_of(week: float) -> float:
        if x_hi == x_lo:
            return _MARGIN_L + plot_w / 2.0
        return _MARGIN_L + plot_w * (week - x_lo) / (x_hi - x_lo)

    def y_of(pct: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - pct / 100.0)

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    for key, value in (headers or {}).items():
        out.append(f"<!-- {key} {value} -->")
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_CHART_W:.0f}" height="{_CHART_H:.0f}" '
               f'viewBox="0 0 {_CHART_W:.0f} {_CHART_H:.0f}">')
    out.append(f'<rect width="{_CHART_W:.0f}" height="{_CHART_H:.0f}" fill="white"/>')
    title = (f"{report.diabetes_type} {report.scenario}: glycaemic ranges over "
             f"4-week windows (start week)")
    out.append(f'<text x="{_MARGIN_L:.0f}" y="22" font-family="sans-serif" '
               f'font-size="14">{title}</text>')
    axis = f'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{_MARGIN_L:.2f}" y1="{y_of(0):.2f}" '
               f'x2="{_MARGIN_L + plot_w:.2f}" y2="{y_of(0):.2f}" {axis}/>')
    out.append(f'<line x1="{_MARGIN_L:.2f}" y1="{y_of(0):.2f}" '
               f'x2="{_MARGIN_L:.2f}" y2="{y_of(100):.2f}" {axis}/>')
    for tick in range(0, 101, 20):
        y = y_of(tick)
        out.append(f'<line x1="{_MARGIN_L - 4:.2f}" y1="{y:.2f}" '
                   f'x2="{_MARGIN_L:.2f}" y2="{y:.2f}" {axis}/>')
        out.append(f'<text x="{_MARGIN_L - 8:.2f}" y="{y + 4:.2f}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'text-anchor="end">{tick}</text>')
    for week in weeks:
        x = x_of(week)
        out.append(f'<line x1="{x:.2f}" y1="{y_of(0):.2f}" '
                   f'x2="{x:.2f}" y2="{y_of(0) + 4:.2f}" {axis}/>')
        out.append(f'<text x="{x:.2f}" y="{y_of(0) + 18:.2f}" '
                   f'font-family="sans-serif" font-size="11" '
                   f'text-anchor="middle">{week}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_CHART_H - 8:.2f}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">window start (trial week)</text>')
    out.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" '
               f'font-family="sans-serif" font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">'
               f'% of time</text>')
    legend_y = _MARGIN_T + 6.0
    for arm in arms:
        dash = '' if arm == arms[0] else ' stroke-dasharray="6 3"'
        for metric, color, label in _CHART_SERIES:
            means = (np.mean(report.metric(arm, w.name, metric)) for w in weekly)
            points = " ".join(f"{x_of(week):.2f},{y_of(mean):.2f}"
                              for week, mean in zip(weeks, means))
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.8"{dash} points="{points}"/>')
            lx = _MARGIN_L + plot_w + 14.0
            out.append(f'<line x1="{lx:.2f}" y1="{legend_y:.2f}" '
                       f'x2="{lx + 26:.2f}" y2="{legend_y:.2f}" '
                       f'stroke="{color}" stroke-width="1.8"{dash}/>')
            out.append(f'<text x="{lx + 32:.2f}" y="{legend_y + 4:.2f}" '
                       f'font-family="sans-serif" font-size="11">'
                       f'{label} {arm}</text>')
            legend_y += 18.0
        legend_y += 8.0
    out.append("</svg>")
    return "\n".join(out) + "\n"
