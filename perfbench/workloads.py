"""The four benchmark workloads: inputs, the op each one times, and its checks.

Every workload is a closed loop with one client: op ``i`` is generated from
``(seed, i)``, run, then checked, and only the run is timed.  Ops follow a
fixed cycle of op kinds whose latency clusters are far apart; the cycle's mix
puts the median and the 90th percentile inside a cluster rather than on the
edge between two, so a run-to-run change of a few ops in the mix cannot flip
a percentile.  The seed draws the values inside each op (p, moments, alpha,
sample sizes, data), never the mix.

oneshot  one in-process ``mlerisk`` CLI command per op, building its own error
         model and eta table as a CLI user pays today; eta builds (136
         quadratures for skew-normal and custom models) dominate.
sweep    library calls against eta tables built in set-up; expansion assembly
         and its error propagation dominate, eta does no timed work.
csv      ``mlerisk moments <file>`` over three synthetic shapes on either side
         of the data path's p^2-vs-n cost split (parse-heavy, Gram-heavy).
mc       one ``estimate_risk`` batch of a fixed replication count per op; the
         Monte-Carlo oracle (fit, divergence quadrature).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import mlerisk.benchmarks
import mlerisk.cli
import mlerisk.data_moments
import mlerisk.error_models
import mlerisk.eta
import mlerisk.expansion
import mlerisk.mc
import mlerisk.moments
import reference as ref

F = Fraction

NORMAL_DENSITY = """# standard normal, written by hand
logf = -y^2/2 - log(2*pi)/2
d1 = -y
d2 = -1
d3 = 0
"""


def skew_normal_density(b: str) -> str:
    """Hand-written skew-normal(b): f(y) = 2 phi(y) Phi(b y)."""
    r = f"phi({b}*y)/Phi({b}*y)"
    return (
        f"# skew-normal({b}), written by hand\n"
        f"logf = log(2) - y^2/2 - log(2*pi)/2 + log(Phi({b}*y))\n"
        f"d1 = -y + {b}*{r}\n"
        f"d2 = -1 - {b}^3*y*{r} - {b}^2*({r})^2\n"
        f"d3 = {b}^3*(2*({r})^3 + 3*{b}*y*({r})^2 + ({b}^2*y^2 - 1)*{r})\n"
    )


def run_cli(argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mlerisk.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class CheckError(Exception):
    """An op's output disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- moment sources -----------------------------------------------------------

PRESET_PARAMS = {"normal": [None], "controlled": [None], "t": [None, "5", "8"], "pareto": [None, "5", "6"]}


class Source:
    """One admissible regressor-moment summary: a preset or a whitened sample.

    Both kinds satisfy M1 >= p^2 and M2b <= M1 - p^2: presets by
    construction, samples because the standardized sample's own moments obey
    Pearson's m4 >= m3^2 + 1 (m4 is rounded up and m3 towards zero, which
    keeps that true).  Coordinates are independent, so m22 = 1.
    """

    def __init__(self, rng: random.Random, p: int):
        self.p = p
        if rng.random() < 0.5:
            self.preset = rng.choice(sorted(PRESET_PARAMS))
            self.param = rng.choice(PRESET_PARAMS[self.preset])
            self.m4, self.m22 = ref.preset_m4_m22(self.preset, self.param)
            return
        self.preset = None
        sample = np.random.default_rng(rng.getrandbits(64))
        n = 500
        if rng.random() < 0.5:
            draws = sample.gamma(rng.uniform(0.5, 5.0), size=n) * rng.choice((-1, 1))
        else:
            draws = sample.uniform(-1.0, 1.0, size=n) + sample.uniform(0.0, rng.uniform(0.1, 2.0), size=n)
        x = draws - draws.mean()
        x /= math.sqrt(float(np.mean(x * x)))
        m4, m3 = float(np.mean(x**4)), float(np.mean(x**3))
        self.m4 = F(math.ceil(m4 * 1e6), 10**6)
        self.m3 = F(math.trunc(m3 * 1e6), 10**6)
        self.m22 = F(1)
        if not self.m4 >= 1 + self.m3 * self.m3:
            raise ValueError("generated moments are not admissible")

    def cli_args(self) -> list[str]:
        if self.preset is not None:
            name = self.preset if self.param is None else f"{self.preset}:{self.param}"
            return ["--xpreset", name, "--p", str(self.p)]
        return ["--homogeneous", f"m4={float(self.m4):.6f},m22=1,m3={float(self.m3):.6f}", "--p", str(self.p)]

    def moments(self):
        if self.preset is not None:
            return mlerisk.moments.x_preset(self.preset, self.p, self.param)
        return mlerisk.moments.HomogeneousMoments(p=self.p, m4=self.m4, m22=self.m22, m3=self.m3)


# --- reference coefficients -----------------------------------------------------


class References:
    """Reference q for (error model, moment source), by a different route.

    normal and t(3): the paper's closed forms, exact.  Rational t(nu): the
    same model integrated by quadrature instead of the closed form.
    Skew-normal(b): a hand-written density file through the expression
    parser.  The custom skew-normal(2) file: the built-in skew-normal(2).
    Reference tables are built on first use, outside any timed op.
    """

    def __init__(self):
        self.tables = {}

    def q(self, kind: str, param, source: Source):
        if kind in ("normal", "t:3", "custom-normal"):
            return ref.closed_form_q("t:3" if kind == "t:3" else "normal", source.p, source.m4, source.m22)
        exp = mlerisk.expansion.risk_expansion(self.table(kind, param), source.moments(), with_error=False)
        return float(exp.qa), float(exp.qb), float(exp.qc)

    def table(self, kind: str, param):
        key = (kind, param)
        if key not in self.tables:
            if kind == "t":
                model = mlerisk.error_models.student_t_error(F(param))
                eta = mlerisk.eta
                entries = {
                    idx: eta.EtaEntry(*eta.eta_quadrature(model, *idx), eta.EtaMethod.QUADRATURE)
                    for idx in eta.GRID
                }
                self.tables[key] = eta.EtaTable(f"t({param}) by quadrature", entries, exact=False)
            elif kind == "skew-normal":
                model = mlerisk.error_models.custom_error(skew_normal_density(param))
                self.tables[key] = mlerisk.eta.build_eta_table(model)
            elif kind == "custom-sn2":
                model = mlerisk.error_models.skew_normal_error(2.0)
                self.tables[key] = mlerisk.eta.build_eta_table(model)
            else:
                raise ValueError(kind)
        return self.tables[key]


def check_q(payload: dict, q_ref, exact: bool) -> None:
    q = payload["q"]
    if exact:
        got = tuple(F(s) for s in payload["q_exact"])
        expect(got == tuple(q_ref), f"exact q {got} != closed form {tuple(q_ref)}")
    else:
        tol = ref.q_tolerance(q_ref, payload["coeff_error"])
        err = max(abs(a - float(b)) for a, b in zip(q, q_ref))
        expect(err <= tol, f"q {q} differs from reference {q_ref} by {err:.3e} > {tol:.3e}")
    n_min = ref.validity_n_min(payload["p"], q_ref)
    expect(payload["validity_n_min"] == n_min, f"validity_n_min {payload['validity_n_min']} != {n_min}")


def check_rss(p: int, q_ref, alpha, got) -> None:
    want = ref.rss(p, q_ref, alpha)
    expect(want is not None and abs(got[0] - want[0]) <= 1 and got[1] == want[1],
           f"rss {got} != reference {want} at alpha={alpha}")


def check_ide(p: int, q_ref, alpha, got) -> None:
    want = ref.ide(p, q_ref, alpha)
    if want == "*":
        expect(got == "*", f"ide {got} != '*' at alpha={alpha}")
    else:
        expect(got != "*" and abs(got - want) <= 1e-5, f"ide {got} != reference {want:.6f} at alpha={alpha}")


def check_coin(p: int, q_ref, alpha, n_actual: int, got) -> None:
    want = ref.coin_equivalent(p, q_ref, alpha, n_actual)
    expect(abs(got - want) <= 1, f"coin-equiv {got} != reference {want} at alpha={alpha}")


def n_actual_for(rng: random.Random, p: int, q_ref, alphas) -> int:
    """A sample size inside the validity region where ED(alpha, n) > 0 for every alpha."""
    main = (p + 2) / 2
    floor_n = max([ref.validity_n_min(p, q_ref)] + [int(-ref.q_at(q_ref, a) / main) + 2 for a in alphas])
    return floor_n + rng.randint(0, 2000)


# --- workloads ----------------------------------------------------------------------


class Workload:
    name = ""
    cycle = 1  # ops per schedule cycle
    WARM = (0,)  # cycle positions run once in set-up, one per kind of op

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> random.Random:
        # negative indices are warm-up ops: fixed inputs, whatever the seed
        return random.Random(f"{self.name}:{self.seed if i >= 0 else 'warm-up'}:{i}")

    def setup(self) -> None:
        """Generate inputs and warm every cache the timed ops would fill."""

    def make_op(self, i: int):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check(self, op, out) -> None:
        raise NotImplementedError

    def report(self) -> dict:
        """Estimates to pool across worker processes: {group: {target, estimates: [(mean, se)]}}."""
        return {}

    def warm_up(self) -> None:
        """Run one op of each kind, on fixed inputs the timed ops never see.

        Fixed inputs make the warm-up cost, and the memory it touches, the
        same for every seed.
        """
        for pos in self.WARM:
            op = self.make_op(pos - 1000 * self.cycle)
            self.check(op, self.run_op(op))


class OneShot(Workload):
    name = "oneshot"
    COMMANDS = ("risk", "rss", "ide", "coin-equiv", "series")
    # 25 model slots per cycle, five per round, then one `table` op per round.
    # The latency clusters are normal ~20 ms, t ~55 ms, table1/2 ~70-100 ms,
    # quadrature models and table4/5 ~300 ms, table3 ~850 ms; this mix puts
    # the median among the t ops and the 90th percentile among the ~300 ms ops.
    MODELS = (
        "normal", "t:3", "skew-normal", "t", "custom-sn2",
        "t:3", "t", "normal", "t:3", "skew-normal",
        "t", "custom-sn2", "t:3", "normal", "t",
        "skew-normal", "t:3", "t", "custom-sn2", "normal",
        "t", "t:3", "normal", "t", "custom-sn2",
    )
    cycle = 30
    WARM = (0, 1, 2, 3, 4, 5)
    NUS = ("7/2", "21/5", "9/2", "5", "13/2")
    SHAPES = ("1.5", "2", "2.5", "3", "4")
    ALPHAS = ("-1", "0", "1/2", "1", "2")

    def setup(self):
        self.custom_path = self.workdir / "skew_normal_2.txt"
        self.custom_path.write_text(skew_normal_density("2"))
        self.refs = References()
        self.warm_up()

    def make_op(self, i):
        pos = i % self.cycle
        rnd, slot = divmod(pos, 6)
        if slot == 5:
            preset = f"table{rnd + 1}"
            return {"cmd": "table", "preset": preset, "argv": ["table", "--preset", preset, "--compact"]}
        rng = self.rng(i)
        kind, cmd = self.MODELS[5 * rnd + slot], self.COMMANDS[slot]
        param = None
        if kind == "t":
            param = rng.choice(self.NUS)
            spec = f"t:{param}"
        elif kind == "skew-normal":
            param = rng.choice(self.SHAPES)
            spec = f"skew-normal:{param}"
        elif kind == "custom-sn2":
            spec = f"custom:{self.custom_path}"
        else:
            spec = kind
        source = Source(rng, rng.randint(1, 40))
        op = {"cmd": cmd, "kind": kind, "p": source.p, "q_ref": self.refs.q(kind, param, source)}
        argv = [cmd, "--error", spec, *source.cli_args()]
        if cmd == "risk":
            op["alpha"] = rng.choice(self.ALPHAS)
            op["n"] = rng.randint(source.p + 3, 2000)
            argv += ["--alpha", op["alpha"], "--n", str(op["n"])]
        elif cmd == "coin-equiv":
            op["n_actual"] = n_actual_for(rng, source.p, op["q_ref"], [-1])
            argv += ["--n-actual", str(op["n_actual"])]
        op["argv"] = argv + ([] if cmd == "series" else ["--compact"])
        return op

    def run_op(self, op):
        return run_cli(op["argv"])

    def check(self, op, out):
        code, stdout, stderr = out
        expect(code == 0, f"exit {code}: {stderr.strip()[:200]}")
        if op["cmd"] == "table":
            return self._check_table(op["preset"], json.loads(stdout))
        p, q_ref, exact = op["p"], op["q_ref"], op["kind"] in ("normal", "t:3")
        if op["cmd"] == "series":
            return self._check_series(p, q_ref, stdout)
        res = json.loads(stdout)
        payload = res if op["cmd"] == "risk" else res["expansion"]
        expect(payload["p"] == p, f"p {payload['p']} != {p}")
        check_q(payload, q_ref, exact)
        tol = ref.q_tolerance(q_ref, payload["coeff_error"])
        if op["cmd"] == "risk":
            alpha, n = float(F(op["alpha"])), op["n"]
            scale = alpha * alpha + abs(alpha) + 1
            expect(abs(res["q_at_alpha"] - ref.q_at(q_ref, alpha)) <= tol * scale, "q(alpha) mismatch")
            expect(abs(res["ed"] - ref.ed_regression(p, q_ref, alpha, n)) <= tol * scale / n**2 + 1e-15,
                   "ED(alpha, n) mismatch")
            expect(res["below_validity"] == (n < payload["validity_n_min"]), "below_validity flag mismatch")
        elif op["cmd"] == "rss":
            check_rss(p, q_ref, -1.0, (res["rss"]["n"], res["rss"]["k"]))
        elif op["cmd"] == "ide":
            check_ide(p, q_ref, -1.0, res["ide"])
        elif op["cmd"] == "coin-equiv":
            check_coin(p, q_ref, -1.0, op["n_actual"], res["coin_equiv"])

    @staticmethod
    def _check_series(p, q_ref, stdout):
        lines = stdout.strip().splitlines()
        expect(lines[0] == "k,ed_regression,ed_binomial", "series header changed")
        expect(len(lines) == 97, f"series has {len(lines) - 1} rows, want 96")
        tol = ref.q_tolerance(q_ref, 1e-8)
        for k, line in zip(range(5, 101), lines[1:]):
            kk, ed, eb = line.split(",")
            n = (p + 2) * k
            expect(int(kk) == k, f"series row k={kk}, want {k}")
            expect(abs(float(ed) - ref.ed_regression(p, q_ref, -1.0, n)) <= tol / n**2 + 1e-15,
                   f"series ed_regression mismatch at k={k}")
            want = ref.ed_fair_coin(-1.0, k)
            expect(abs(float(eb) - want) <= 1e-13 * want, f"series ed_binomial mismatch at k={k}")

    @staticmethod
    def _check_table(preset, res):
        rows = res["rows"]
        if preset in ref.INDICATOR_TABLES:
            want = ref.INDICATOR_TABLES[preset]
            expect([r["x"] for r in rows] == list(want), f"{preset} rows {[r['x'] for r in rows]}")
            for r in rows:
                ide_w, rss_w, k_w = want[r["x"]]
                expect(str(r["ide"]) == ide_w and abs(r["rss"] - rss_w) <= 1 and r["benchmark_k"] == k_w,
                       f"{preset} row {r} != published {want[r['x']]}")
            return
        want = ref.DATASET_TABLES[preset]
        expect([r["error"] for r in rows] == list(want), f"{preset} rows {[r['error'] for r in rows]}")
        for r in rows:
            ide_w, rss_w = want[r["error"]]
            ok_ide = r["ide"] == "*" if ide_w == "*" else r["ide"] != "*" and abs(r["ide"] - ide_w) <= 0.02
            expect(ok_ide and abs(r["rss"] - rss_w) <= 2 and r["benchmark_k"] == 10,
                   f"{preset} row {r} != published {want[r['error']]}")


class Sweep(Workload):
    name = "sweep"
    # (kind, parameter) per op.  Exact tables cost ~10-20 ms per op; the
    # quadrature tables ~60 ms (custom normal) and ~150 ms (skew-normal),
    # nearly all of it error propagation, and still about a quarter of the
    # run's time at one op in 38 each.  More would put the 90th
    # percentile among them, and their time is the most sensitive to other
    # load on the host: on a shared 2-vCPU machine its run medians moved by
    # 1.6x between runs, against 1.3x for the exact ops, which took the
    # percentile outside its bound.
    TABLES = (("normal", None), ("t:3", None), ("t", "21/5")) * 6 + (("skew-normal", "3"),) + (
        ("normal", None), ("t:3", None), ("t", "21/5")) * 6 + (("custom-normal", None),)
    cycle = len(TABLES)
    WARM = (0, 1, 2, 18, 37)
    ALPHAS = (F(-1), F(0), F(1, 2), F(1))
    K_RANGE = range(5, 101)

    def setup(self):
        em, eta = mlerisk.error_models, mlerisk.eta
        path = self.workdir / "normal.txt"
        path.write_text(NORMAL_DENSITY)
        models = {
            "normal": em.normal_error(),
            "t:3": em.student_t_error(3),
            "t": em.student_t_error(F(21, 5)),
            "skew-normal": em.skew_normal_error(3.0),
            "custom-normal": em.error_model_from_spec(f"custom:{path}"),
        }
        self.tables = {kind: eta.build_eta_table(model) for kind, model in models.items()}
        self.refs = References()
        self.warm_up()

    def make_op(self, i):
        rng = self.rng(i)
        kind, param = self.TABLES[i % self.cycle]
        source = Source(rng, rng.randint(1, 40))
        q_ref = self.refs.q(kind, param, source)
        return {
            "kind": kind,
            "table": self.tables[kind],
            "moments": source.moments(),
            "p": source.p,
            "q_ref": q_ref,
            "n_actual": n_actual_for(rng, source.p, q_ref, [float(a) for a in self.ALPHAS]),
        }

    def run_op(self, op):
        bm = mlerisk.benchmarks
        exp = mlerisk.expansion.risk_expansion(op["table"], op["moments"])
        indicators = [
            (bm.rss(exp, a), bm.ide(exp, a), bm.coin_equivalent(exp, a, op["n_actual"])) for a in self.ALPHAS
        ]
        series = [exp.evaluate(F(-1), (exp.p + 2) * k) for k in self.K_RANGE]
        return exp, indicators, series

    def check(self, op, out):
        exp, indicators, series = out
        p, q_ref = op["p"], op["q_ref"]
        exact = op["kind"] in ("normal", "t:3")
        payload = exp.to_jsonable()
        expect(payload["p"] == p, f"p {payload['p']} != {p}")
        check_q(payload, q_ref, exact)
        for a, (r, d, c) in zip(self.ALPHAS, indicators):
            check_rss(p, q_ref, float(a), (r.n, r.benchmark_k))
            check_ide(p, q_ref, float(a), "*" if d.no_real_root else d.m)
            check_coin(p, q_ref, float(a), op["n_actual"], c)
        tol = ref.q_tolerance(q_ref, exp.coeff_error)
        for k, value in zip(self.K_RANGE, series):
            n = (p + 2) * k
            expect(abs(float(value) - ref.ed_regression(p, q_ref, -1.0, n)) <= tol / n**2 + 1e-15,
                   f"ED(-1, {n}) mismatch")


def _mixed_columns(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """n x p correlated, skewed, heavy-ish tailed columns (well conditioned).

    Column families and scales are fixed by position and only the draws come
    from the seed, so every seed gives files of the same text length and
    parse cost.
    """
    base = np.empty((n, p))
    for j in range(p):
        if j % 3 == 0:
            base[:, j] = rng.gamma(1.0 + j % 5, size=n)
        elif j % 3 == 1:
            base[:, j] = rng.lognormal(0.0, 0.2 + 0.1 * (j % 4), size=n)
        else:
            base[:, j] = rng.standard_t(8.0, size=n)
    mix = np.eye(p) + rng.uniform(-0.3, 0.3, size=(p, p)) / math.sqrt(p)
    return base @ mix * np.array([10.0 ** (j % 3) for j in range(p)])


def _format(block: np.ndarray) -> np.ndarray:
    return np.char.mod("%.6g", block)


def reference_aggregates(x: np.ndarray, gemm: bool) -> dict:
    """Aggregates of the Cholesky-whitened data, by explicit moment tensors.

    The aggregates are invariant under rotations of the whitened scores, so
    this matches the library's PCA whitening without sharing its route.  For
    small p the third-moment tensor is formed by brute force (einsum over
    t, i, j, k); for large p as a row-chunked (n x p^2)' (n x p) GEMM.
    """
    n, p = x.shape
    xc = x - x.mean(axis=0)
    chol = np.linalg.cholesky(xc.T @ xc / n)
    z = np.linalg.solve(chol, xc.T).T
    if gemm:
        m3 = np.zeros((p * p, p))
        for start in range(0, n, 256):
            zc = z[start : start + 256]
            m3 += (zc[:, :, None] * zc[:, None, :]).reshape(len(zc), p * p).T @ zc
        m3 = m3.reshape(p, p, p) / n
        m1 = float(np.mean(np.einsum("ti,ti->t", z, z) ** 2))
    else:
        m3 = np.einsum("ti,tj,tk->ijk", z, z, z) / n
        m1 = float(np.einsum("ti,ti,tk,tk->", z, z, z, z) / n)
    trace = np.einsum("iik->k", m3)
    evals = np.linalg.eigvalsh(xc.T @ xc / n)
    return {
        "M2a": float(np.sum(m3 * m3)),
        "M2b": float(trace @ trace),
        "M1": m1,
        "condition_number": float(evals[-1] / evals[0]),
    }


class Csv(Workload):
    name = "csv"
    # wine-like 4898 x 11 (`;`, a dropped column): aggregates and load both
    # matter (~100-150 ms); crime-like 2215 x 99 (`?` tokens, drop_columns):
    # the parse dominates (~150-250 ms); tall 10000 x 11: the O(n^2 p) Gram
    # path dominates (~400 ms; 20000 rows would take ~1.6 s and leave too few
    # ops in a run).  Crime is three ops in five and tall one, so the median
    # sits mid-way through the crime ops and the 90th percentile mid-way
    # through the tall ones.
    SHAPES = ("crime", "wine", "crime", "tall", "crime")
    cycle = len(SHAPES)
    WARM = (0, 1, 3)

    def setup(self):
        rng = np.random.default_rng([self.seed, 7])
        self.files = {}
        x = _mixed_columns(rng, 4898, 11)
        quality = rng.integers(3, 10, size=(4898, 1)).astype(float)
        self.files["wine"] = self._write("wine.csv", np.hstack([x, quality]), ";",
                                         [f"fixed_{j}" for j in range(11)] + ["quality"],
                                         ["--delimiter", ";", "--drop", "quality"], dropped=["quality"])
        x = _mixed_columns(rng, 2215, 104)
        text = _format(x)
        missing_cols = [7, 23, 51, 80, 101]
        for j in missing_cols:
            text[rng.random(2215) < 0.03, j] = "?"
            text[rng.integers(0, 2215), j] = "?"
        names = [f"attr{j}" for j in range(104)]
        self.files["crime"] = self._write("crime.csv", text, ",", names, ["--missing-strategy", "drop_columns"],
                                          dropped=[names[j] for j in missing_cols])
        self.files["tall"] = self._write("tall.csv", _mixed_columns(rng, 10000, 11), ",",
                                         [f"v{j}" for j in range(11)], [])
        self._check_whitening()
        self.warm_up()

    def _write(self, name, block, delimiter, header, options, dropped=()):
        text = block if block.dtype.kind == "U" else _format(block)
        path = self.workdir / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(delimiter.join(header) + "\n")
            fh.writelines(delimiter.join(row) + "\n" for row in text)
        keep = [j for j, h in enumerate(header) if h not in dropped]
        values = text[:, keep].astype(float)
        p = len(keep)
        return {
            "path": path,
            "argv": ["moments", str(path), *options, "--compact"],
            "n": values.shape[0],
            "p": p,
            "dropped": list(dropped),
            "values": values,
            "reference": reference_aggregates(values, gemm=p > 11),
        }

    def _check_whitening(self):
        dm = mlerisk.data_moments
        for shape in ("wine", "crime"):
            scores = dm.standardize(dm.Dataset(("c",) * self.files[shape]["p"], self.files[shape]["values"])).scores
            n = scores.shape[0]
            expect(np.abs(scores.mean(axis=0)).max() <= 1e-10, f"{shape}: whitened scores are not centred")
            expect(np.abs(scores.T @ scores / n - np.eye(scores.shape[1])).max() <= 1e-8,
                   f"{shape}: whitened second moment is not the identity")

    def make_op(self, i):
        return self.files[self.SHAPES[i % self.cycle]]

    def run_op(self, op):
        return run_cli(op["argv"])

    def check(self, op, out):
        code, stdout, stderr = out
        expect(code == 0, f"exit {code}: {stderr.strip()[:200]}")
        res = json.loads(stdout)
        expect((res["n"], res["p"]) == (op["n"], op["p"]), f"shape {(res['n'], res['p'])}")
        expect(res["dropped_columns"] == op["dropped"] and res["dropped_rows"] == 0, "dropped columns/rows")
        want = op["reference"]
        for key in ("M2a", "M2b", "M1"):
            expect(abs(res[key] - want[key]) <= 1e-8 * abs(want[key]) + 1e-12,
                   f"{key} {res[key]!r} != reference {want[key]!r}")
        expect(abs(res["condition_number"] / want["condition_number"] - 1) <= 1e-6, "condition number")


class MonteCarlo(Workload):
    name = "mc"
    REPLICATIONS = 6
    # (label, error spec, x distribution, p, n, alpha).  (a) and (b) are the
    # Gaussian/t(3) oracle configurations; (c) is fit-bound, (d) exercises
    # the non-KL divergence branch.
    CONFIGS = {
        "a": ("normal", "normal", 1, 100, -1.0),
        "b": ("t:3", "controlled", 2, 200, -1.0),
        "c": ("t:3", "t", 10, 120, -1.0),
        "d": ("skew-normal:3", "pareto", 3, 150, 0.0),
    }
    # Weighted round-robin: b (~15 ms) and a (~40 ms) three times each, c and
    # d (~500 ms) once, so the median sits among the a ops and the 90th
    # percentile among the c/d ops.
    ORDER = ("b", "a", "c", "b", "a", "d", "b", "a")
    cycle = len(ORDER)
    WARM = (0, 1, 2, 5)

    def setup(self):
        em, eta, exp_mod = mlerisk.error_models, mlerisk.eta, mlerisk.expansion
        self.models = {spec: em.error_model_from_spec(spec) for spec, *_ in self.CONFIGS.values()}
        self.targets = {}
        for label, (spec, xdist, p, n, alpha) in self.CONFIGS.items():
            table = eta.build_eta_table(self.models[spec])
            expansion = exp_mod.risk_expansion(table, mlerisk.moments.x_preset(xdist, p))
            self.targets[label] = float(expansion.evaluate(alpha, n))
        self._check_gaussian_kl()
        self.pooled = {label: [] for label in self.CONFIGS}
        self.warm_up()
        for results in self.pooled.values():
            results.clear()

    def _check_gaussian_kl(self):
        normal = self.models["normal"]
        for m1, s1, s2 in ((0.3, 1.2, 1.0), (-0.4, 0.9, 1.1)):
            value, _ = mlerisk.mc.divergence(normal, (np.array([m1]), s1), (np.array([0.0]), s2), -1.0,
                                             np.empty((1, 0)))
            want = math.log(s2 / s1) + (s1 * s1 + m1 * m1) / (2 * s2 * s2) - 0.5
            expect(abs(value - want) <= 1e-8, f"Gaussian KL {value!r} != closed form {want!r}")

    def make_op(self, i):
        label = self.ORDER[i % self.cycle]
        spec, xdist, p, n, alpha = self.CONFIGS[label]
        config = mlerisk.mc.SimConfig(
            model=self.models[spec], x_dist=xdist, beta=(0.0,) * (p + 1), sigma=1.0, n=n,
            replications=self.REPLICATIONS, alpha=alpha, seed=self.rng(i).getrandbits(31),
        )
        return {"label": label, "config": config}

    def run_op(self, op):
        return mlerisk.mc.estimate_risk(op["config"])

    def check(self, op, est):
        expect(est.fit_failures == 0, f"{est.fit_failures} non-converged fits")
        expect(est.divergence_failures == 0, f"{est.divergence_failures} uncertified divergence points")
        expect(est.replications_used == self.REPLICATIONS, f"{est.replications_used} replications used")
        expect(math.isfinite(est.mean) and est.mean > 0, f"risk estimate {est.mean!r}")
        self.pooled[op["label"]].append((est.mean, est.std_error))

    def report(self):
        return {f"mc config {label}": {"target": self.targets[label], "estimates": results}
                for label, results in self.pooled.items()}


WORKLOADS = {cls.name: cls for cls in (OneShot, Sweep, Csv, MonteCarlo)}
