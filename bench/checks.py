"""Checks of the program's outputs against computations made here.

Conformity scores, order statistics, quantiles, set sizes, the deviation
bound and the regression forward pass are recomputed from their
definitions. Only the per-row smoothing uniforms come from the program's
documented seeded stream (``derive_seed`` then ``row_uniforms``).

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from cshift import util as _util

TAU_TOL = 1e-12
AMBIGUOUS = 1e-12
TAU_PRED_TOL = 1e-9


def uniforms(cli_seed, role, n):
    return _util.row_uniforms(_util.derive_seed(cli_seed, role), n)


def flag(argv, name, default=None):
    """Value of ``--name`` in a command's argv."""
    return argv[argv.index(name) + 1] if name in argv else default


def read_kv(path):
    pairs = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class Data:
    """Raw arrays of one input file, read without the program's loader."""

    def __init__(self, path):
        path = Path(path)
        if path.suffix == ".bin":
            blob = path.read_bytes()
            _, n, L, has_labels = struct.unpack_from("<8sQQB", blob)
            head = 25
            self.P = np.frombuffer(blob, "<f8", n * L, head).reshape(n, L)
            self.y = np.frombuffer(blob, "<i8", n, head + 8 * n * L) if has_labels else None
        else:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            self.P = table[:, 1:]
            self.y = None if table[0, 0] == -1 else table[:, 0].astype(np.int64)
        self.n, self.L = self.P.shape
        self.top = self.P.max(axis=1)
        self._label_scores = {}

    def label_scores(self, kind, u, lam=0.0, kreg=0):
        """Conformity score of each row's label, from the definitions.

        tps: 1 - p_y. aps: mass of the classes ranked strictly above y
        (higher score, or equal score and lower index) plus u * p_y.
        raps: aps plus lam * max(0, rank - kreg), rank being the number of
        classes ranked strictly above y.
        """
        key = (kind, None if u is None else u.tobytes(), lam, kreg)
        if key not in self._label_scores:
            self._label_scores[key] = _label_scores(self.P, self.y, kind, u, lam, kreg)
        return self._label_scores[key]


def _label_scores(P, y, kind, u, lam, kreg, chunk=2000):
    n, L = P.shape
    out = np.empty(n)
    cols = np.arange(L)
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        p, lab = P[a:b], y[a:b]
        py = p[np.arange(b - a), lab]
        if kind == "tps":
            out[a:b] = 1.0 - py
            continue
        above = (p > py[:, None]) | ((p == py[:, None]) & (cols[None, :] < lab[:, None]))
        s = np.where(above, p, 0.0).sum(axis=1) + u[a:b] * py
        if kind == "raps":
            s = s + lam * np.maximum(0, above.sum(axis=1) - kreg)
        out[a:b] = s
    return out


def set_size_bounds(P, kind, u, tau, lam=0.0, kreg=0, chunk=2000):
    """Per-row set size counting only classes clearly inside (lo) and also
    those within AMBIGUOUS of tau (hi)."""
    n, L = P.shape
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        p = P[a:b]
        if kind == "tps":
            entry = 1.0 - p
        else:
            desc = -np.sort(-p, axis=1)  # values only; ties do not change the prefix sums
            prefix = np.zeros_like(desc)
            prefix[:, 1:] = np.cumsum(desc[:, :-1], axis=1)
            entry = prefix + u[a:b, None] * desc
            if kind == "raps":
                entry = entry + lam * np.maximum(0, np.arange(L) - kreg)[None, :]
        lo[a:b] = np.count_nonzero(entry < tau - AMBIGUOUS, axis=1)
        hi[a:b] = np.count_nonzero(entry <= tau + AMBIGUOUS, axis=1)
    return lo, hi


def conformal_k(alpha: Fraction, n: int) -> int:
    """ceil((1 - alpha)(n + 1)), computed exactly."""
    return math.ceil((1 - alpha) * (n + 1))


def quantile_k(c: Fraction, n: int) -> int:
    """ceil(c n), at least 1, computed exactly."""
    return max(1, math.ceil(c * n))


def kth_smallest(values, k):
    return float(np.sort(values)[k - 1])


def grid(text):
    """The alpha grid start:stop:step as exact decimals."""
    if ":" not in text:
        return [Fraction(text)]
    start, stop, step = (Fraction(p) for p in text.split(":"))
    count = int((stop - start) / step) + 1
    return [start + i * step for i in range(count)]


def spec_of(kv):
    kind = kv["predictor"]
    lam = float(kv["lambda"]) if kind == "raps" else 0.0
    kreg = int(kv["kreg"]) if kind == "raps" else 0
    return kind, lam, kreg


def max_tau(kind, lam, kreg, L):
    return 1.0 + lam * max(0, L - kreg) if kind == "raps" else 1.0


def _uniforms_for(kind, seed, role, n):
    return None if kind == "tps" else uniforms(seed, role, n)


def check_calibrated(path, src: Data, alpha: Fraction, seed):
    """tau is the ceil((1-alpha)(n+1))-th smallest source conformity score."""
    kv = read_kv(path)
    kind, lam, kreg = spec_of(kv)
    u = _uniforms_for(kind, seed, "calibrate", src.n)
    s = src.label_scores(kind, u, lam, kreg)
    k = conformal_k(alpha, src.n)
    errs = []
    if not 1 <= k <= src.n:
        errs.append(f"{path.name}: calibration at alpha={float(alpha)} saturates (k={k})")
        return errs
    want = kth_smallest(s, k)
    tau = float(kv["tau"])
    if abs(tau - want) > TAU_TOL:
        errs.append(f"{path.name}: tau={tau!r}, order statistic k={k} is {want!r}")
    if float(kv["alpha"]) != float(alpha):
        errs.append(f"{path.name}: alpha={kv['alpha']} recorded, expected {float(alpha)!r}")
    return errs


def qtc_estimate(method, src: Data, tgt: Data, alpha: Fraction):
    """(q, exact estimate) of qtc or qtc-sc at level alpha."""
    if method == "qtc":
        q = kth_smallest(tgt.top, quantile_k(alpha, tgt.n))
        return q, Fraction(int(np.count_nonzero(src.top < q)), src.n)
    q = kth_smallest(src.top, quantile_k(1 - alpha, src.n))
    below = int(np.count_nonzero(tgt.top < q))
    return q, Fraction(tgt.n - below, tgt.n)


def qtc_st_estimate(src: Data, tgt: Data, kind, lam, kreg, alpha: Fraction, seed):
    """(q, tau) of qtc-st at level alpha."""
    u = _uniforms_for(kind, seed, "recalibrate", src.n)
    base = kth_smallest(src.label_scores(kind, u, lam, kreg), conformal_k(alpha, src.n))
    scale = max_tau(kind, lam, kreg, src.L)
    q = kth_smallest(src.top, quantile_k(Fraction(base / scale), src.n))
    return q, scale * (int(np.count_nonzero(tgt.top < q)) / tgt.n)


def recalibrated_tau(src: Data, kind, lam, kreg, beta: Fraction, seed):
    """Source calibration at the estimated level, clamped as documented."""
    lo = Fraction(1, src.n + 1)
    beta = min(max(beta, lo), 1 - lo)
    u = _uniforms_for(kind, seed, "recalibrate", src.n)
    return kth_smallest(src.label_scores(kind, u, lam, kreg), conformal_k(beta, src.n)), beta


def check_recalibrated(path, src: Data, tgt: Data, alpha: Fraction, seed):
    """Single-alpha recalibrate: the threshold file and its .qtc sidecar."""
    kv = read_kv(path)
    side = read_kv(str(path) + ".qtc")
    kind, lam, kreg = spec_of(kv)
    method = kv["method"]
    errs = []
    q, est = qtc_estimate(method, src, tgt, alpha)
    if float(side["q"]) != q:
        errs.append(f"{path.name}.qtc: q={side['q']}, expected {q!r}")
    if float(side["value"]) != float(est):
        errs.append(f"{path.name}.qtc: value={side['value']}, expected {float(est)!r}")
    want, _ = recalibrated_tau(src, kind, lam, kreg, est, seed)
    if abs(float(kv["tau"]) - want) > TAU_TOL:
        errs.append(f"{path.name}: tau={kv['tau']}, expected {want!r}")
    return errs


def check_grid(path, src: Data, tgt: Data, argv, seed):
    """Every row of a recalibration sweep CSV."""
    _, rows = read_csv(path)
    alphas = grid(flag(argv, "--alpha"))
    lam, kreg = float(flag(argv, "--lambda", 0.0)), int(flag(argv, "--kreg", 0))
    errs = []
    if len(rows) != len(alphas):
        return [f"{path.name}: {len(rows)} rows for a {len(alphas)}-point grid"]
    for alpha, row in zip(alphas, rows):
        kind = row["predictor"]
        if float(row["alpha"]) != float(alpha):
            errs.append(f"{path.name}: alpha {row['alpha']} where {float(alpha)!r} was asked")
            continue
        if row["method"] == "qtc-st":
            q, tau = qtc_st_estimate(src, tgt, kind, lam, kreg, alpha, seed)
            est = tau
        else:
            q, est_exact = qtc_estimate(row["method"], src, tgt, alpha)
            tau, _ = recalibrated_tau(src, kind, lam, kreg, est_exact, seed)
            est = float(est_exact)
        got = (float(row["q"]), float(row["estimate"]), float(row["tau"]))
        if got[0] != q or got[1] != est or abs(got[2] - tau) > TAU_TOL:
            errs.append(f"{path.name} alpha={row['alpha']}: (q, estimate, tau)={got}, "
                        f"expected {(q, est, tau)}")
    return errs


def check_report(path, test: Data, thresholds, seed):
    """The evaluate report: one row per threshold file, in order."""
    _, rows = read_csv(path)
    if len(rows) != len(thresholds):
        return [f"{path.name}: {len(rows)} rows, expected {len(thresholds)}"]
    errs = []
    for thr_path, row in zip(thresholds, rows):
        kv = read_kv(thr_path)
        kind, lam, kreg = spec_of(kv)
        tau = float(kv["tau"])
        u = _uniforms_for(kind, seed, "evaluate", test.n)
        s = test.label_scores(kind, u, lam, kreg)
        n = test.n
        lo, hi = set_size_bounds(test.P, kind, u, tau, lam, kreg)
        cov = float(row["coverage"])
        cov_lo = int(np.count_nonzero(s < tau - AMBIGUOUS))
        cov_hi = int(np.count_nonzero(s <= tau + AMBIGUOUS))
        count = round(cov * n)
        where = f"{path.name} ({thr_path.name})"
        if count / n != cov or not cov_lo <= count <= cov_hi:
            errs.append(f"{where}: coverage {cov!r}, recomputed {cov_lo / n!r}..{cov_hi / n!r}")
        avg = float(row["avg_set_size"])
        if not lo.sum() / n - 1e-12 <= avg <= hi.sum() / n + 1e-12:
            errs.append(f"{where}: avg_set_size {avg!r}, recomputed "
                        f"{lo.sum() / n!r}..{hi.sum() / n!r}")
        med = float(row["median_set_size"])
        if not float(np.median(lo)) <= med <= float(np.median(hi)):
            errs.append(f"{where}: median_set_size {med!r}, recomputed "
                        f"{np.median(lo)}..{np.median(hi)}")
        if (row["predictor"], row["tau"], row["alpha"], row["n_eval"], row["seed"]) != (
                kind, kv["tau"], kv["alpha"], str(n), str(seed)):
            errs.append(f"{where}: identifying columns {row} disagree with the threshold file")
    return errs


def check_simulate(path, argv):
    """Trial CSV of ``simulate`` run with the CLI defaults except --trials/--n."""
    _, rows = read_csv(path)
    errs = []
    trials = int(flag(argv, "--trials"))
    if len(rows) != trials:
        return [f"{path.name}: {len(rows)} rows for {trials} trials"]
    nmc = 10**6
    violations = 0
    for row in rows:
        n, alpha, delta = int(row["n"]), float(row["alpha"]), float(row["delta"])
        p_src, p_tgt, w_sp = float(row["p_src"]), float(row["p_tgt"]), float(row["w_sp"])
        c_sp = (1 - p_tgt) * (1 - p_src) ** 2 if w_sp > 0 else p_tgt * p_src**2
        bound = math.sqrt(2 * math.log(16 / delta) / (n * c_sp))
        beta_true, beta_qtc = float(row["beta_true"]), float(row["beta_qtc"])
        violated = abs(beta_qtc - beta_true) > float(row["bound"])
        violations += violated
        if not math.isclose(float(row["bound"]), bound, rel_tol=1e-12):
            errs.append(f"trial {row['trial_id']}: bound {row['bound']}, expected {bound!r}")
        if int(row["violated"]) != violated:
            errs.append(f"trial {row['trial_id']}: violated={row['violated']} disagrees with the bound")
        if w_sp > 0:
            ratio = (1 - p_src) / (1 - p_tgt)
            closed = alpha * ratio
            # Oracle beta error: the source Monte Carlo draw plus the target
            # draw that fixed the oracle threshold.
            se = math.sqrt(closed * (1 - closed) / nmc + ratio**2 * alpha * (1 - alpha) / nmc)
            if abs(beta_true - closed) > 5 * se:
                errs.append(f"trial {row['trial_id']}: beta_true {beta_true!r} is more than 5 "
                            f"standard errors from the closed form {closed!r}")
    delta = float(rows[0]["delta"])
    if violations / trials > delta:
        errs.append(f"{path.name}: violation fraction {violations / trials} exceeds delta={delta}")
    return errs


def _histogram_feature(top, bins):
    counts, _ = np.histogram(top, bins=bins, range=(0.0, 1.0))
    return counts / top.size


def _per_class_feature(P, top):
    L = P.shape[1]
    predicted = np.argmax(P, axis=1)
    return np.array([top[predicted == j].mean() if np.any(predicted == j) else 1.0 / L
                     for j in range(L)])


def check_baseline(model_path, tgt: Data, cal: Data, alpha: Fraction):
    """Model header and weight blob agree; a forward pass computed here on a
    feature computed here reproduces the predicted tau."""
    raw = Path(model_path).read_bytes()
    marker = raw.index(b"\nblob_bytes=")
    header_end = raw.index(b"\n", marker + 1)
    lines = raw[:header_end].decode().splitlines()
    blob = raw[header_end + 1:]
    kv = dict(line.partition("=")[::2] for line in lines[1:])
    errs = []
    where = Path(model_path).name
    layers = [int(v) for v in kv["layers"].split(",")]
    want_bytes = 8 * sum(a * b + b for a, b in zip(layers[:-1], layers[1:]))
    if lines[0] != "CSHIFTMLP1" or int(kv["blob_bytes"]) != len(blob) or len(blob) != want_bytes:
        errs.append(f"{where}: blob_bytes={kv['blob_bytes']}, blob has {len(blob)}, "
                    f"layers {layers} need {want_bytes}")
        return errs
    extractor = kv["extractor"]
    feature = (_histogram_feature(tgt.top, 10) if extractor == "chr"
               else _per_class_feature(tgt.P, tgt.top))
    if layers[0] != feature.size or layers[-1] != 1 or int(kv["n_classes"]) != cal.L:
        errs.append(f"{where}: layers {layers} do not fit a {feature.size}-feature model")
        return errs
    if float(kv["alpha"]) != float(alpha):
        errs.append(f"{where}: alpha={kv['alpha']}, expected {float(alpha)!r}")
    flat = np.frombuffer(blob, "<f8")
    h = ((feature - np.array([float(v) for v in kv["feat_mean"].split(",")]))
         / np.array([float(v) for v in kv["feat_std"].split(",")]))
    off = 0
    for i, (a, b) in enumerate(zip(layers[:-1], layers[1:])):
        w = flat[off:off + a * b].reshape(a, b)
        off += a * b
        h = h @ w + flat[off:off + b]
        off += b
        if i < len(layers) - 2:
            h = np.maximum(h, 0.0)
    kind, lam, kreg = kv["predictor"], 0.0, 0
    if kind == "raps":
        lam, kreg = float(kv["lambda"]), int(kv["kreg"])
    top_tau = max_tau(kind, lam, kreg, cal.L)
    base = 0.0 if kv["offset_base"] == "none" else float(kv["offset_base"])
    want = min(max(float(h[0]) + base, 0.0), top_tau)
    thr = read_kv(str(model_path) + ".tau")
    tau = float(thr["tau"])
    if abs(tau - want) > TAU_PRED_TOL or not 0.0 <= tau <= top_tau:
        errs.append(f"{where}.tau: tau={tau!r}, forward pass gives {want!r} "
                    f"(valid range [0, {top_tau}])")
    if thr["method"] != f"baseline-{extractor}" or thr["predictor"] != kind:
        errs.append(f"{where}.tau: method/predictor {thr['method']}/{thr['predictor']} "
                    f"do not match the model")
    return errs


def check_pass(workload, seed, inputs, out_dir: Path, commands):
    """Run every check of one workload's pass; returns {command name: [failures]}."""
    failures = {c.name: [] for c in commands}
    missing = {c.name for c in commands for f in c.outputs if not (out_dir / f).is_file()}
    for name in missing:
        failures[name].append("an output file is missing")

    def run(names, fn, *args):
        if missing.intersection(names):
            return
        try:
            errs = fn(*args)
        except (ValueError, KeyError, IndexError, OSError, struct.error) as exc:
            errs = [f"{fn.__name__}: unreadable output: {exc!r}"]
        for name in names:
            failures[name].extend(errs)

    by_name = {c.name: c for c in commands}
    src = Data(inputs["source"])
    tgt = Data(inputs["target"])
    if workload == "experiments":
        for name in ("baseline-chr", "baseline-pcr"):
            c = by_name[name]
            run([name], check_baseline, out_dir / c.outputs[0], tgt, src, Fraction(flag(c.argv, "--alpha")))
        run(["simulate"], check_simulate, out_dir / "trials.csv", by_name["simulate"].argv)
        return failures
    test = Data(inputs["test"])
    for c in commands:
        out = out_dir / c.outputs[0]
        if c.name.endswith("-grid"):
            run([c.name], check_grid, out, src, tgt, c.argv, seed)
        elif c.name.startswith("calibrate"):
            run([c.name], check_calibrated, out, src, Fraction(flag(c.argv, "--alpha")), seed)
        elif c.name.startswith("recalibrate"):
            run([c.name], check_recalibrated, out, src, tgt, Fraction(flag(c.argv, "--alpha")), seed)
    evaluations = [c for c in commands if c.name.startswith("evaluate")]
    thresholds = [Path(flag(c.argv, "--threshold")) for c in evaluations]
    run([c.name for c in evaluations], check_report, out_dir / "report.csv", test, thresholds, seed)
    return failures

