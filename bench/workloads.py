"""The three workloads: seeded job lists whose answers are checked.

A job is one call into the public tcis API or into ``tcis.cli.main``.
Its ``call`` is timed; its ``check`` runs afterwards, untimed, and raises
CheckFailed when the answer disagrees with the ground truth in truth.py.
Jobs look functions up on the module objects at call time, so a traced
run sees the wrapped versions.

Why these workloads:
  census   the paper's headline class counts; canonical forms and Cat
           enumeration do nearly all the work, the partition walk almost
           none.
  certify  partition certificates, distances and equivalence queries;
           the work sits in partition, codes and gf2, and canonical_form
           runs on many small codes, unlike in census.
  masking  masking bijections, Walsh strengths, leakage convolution and
           the Z4 / Gray path; the work sits in boolfun and z4, which the
           other two workloads barely touch.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import truth
from truth import expect


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


def run_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = api.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


# ---- census ---------------------------------------------------------------

CENSUS_T3 = {1: 1, 2: 3, 3: 19, 4: 361}  # published class counts, lengths 3..12
# Regression values, not published ones: the t = 2 totals this library
# returned when the benchmark was written.
CENSUS_T2 = {1: 1, 2: 2, 3: 6, 4: 27}
LENGTH_12_ROW = ((3, (0, 170)), (4, (6, 172)), (5, (0, 12)), (6, (0, 1)))
# Each classification runs this many times.  These counts make p50 fall
# in the middle of the k=2, t=3 group and p90 in the middle of the k=3,
# t=3 group, rather than on the boundary between two groups, where a
# percentile jumps.  classify_tcis(4, 3) alone takes most of a pass, so the
# percentiles see only the host speed of the rest of it; the k <= 3 rows
# are repeated until that rest is about a third of the pass.
CENSUS_REPEATS = {(1, 2): 200, (1, 3): 200, (2, 2): 200, (2, 3): 400,
                  (3, 2): 250, (3, 3): 300, (4, 2): 1, (4, 3): 1}


def census(api, rng: random.Random, ctx) -> list[Job]:
    jobs = []
    for t, totals in ((3, CENSUS_T3), (2, CENSUS_T2)):
        for k, total in totals.items():

            def check(result, k=k, t=t, total=total):
                reps, row = result
                expect(row.length == t * k, "class table row has the wrong length")
                expect(row.total == total == len(reps),
                       f"classify_tcis({k}, {t}) found {row.total} classes, expected {total}")
                if (k, t) == (4, 3):
                    expect(row.by_d == LENGTH_12_ROW, f"length-12 row is {row.by_d}")

            call = lambda k=k, t=t: api.classify_tcis(k, t)
            jobs += [Job(f"classify_k{k}_t{t}", call, check)] * CENSUS_REPEATS[k, t]
    rng.shuffle(jobs)
    return jobs


# ---- certify --------------------------------------------------------------

def _code(api, rows, n):
    return api.LinearCode(api.BitMatrix(rows, n))


def _partition_job(api, kind, rows, n, k, t, known):
    code = _code(api, rows, n)

    def check(result):
        truth.check_certificate(result, rows, n, k, t, known)

    return Job(kind, lambda: api.t_cis_partition(code, t), check)


def _cli_sets(out: str, as_json: bool):
    """Certificate from cis-check output, as 0-based column tuples."""
    if as_json:
        doc = json.loads(out)
        if doc["cis"]:
            return True, [tuple(j - 1 for j in s) for s in doc["partition"]], None
        cert = doc["certificate"]
        return False, [j - 1 for j in cert["columns"]], cert["rank"]
    lines = out.splitlines()
    if lines[0] == "YES":
        sets = [tuple(int(x) - 1 for x in ln.split(":", 1)[1].split()) for ln in lines[1:]]
        return True, sets, None
    expect(lines[0] == "NO", f"unexpected cis-check output {lines[0]!r}")
    head, cols = lines[1].split(":", 1)
    r = int(head.rsplit("rank", 1)[1].strip(" )"))
    return False, [int(x) - 1 for x in cols.split()], r


def _cis_check_job(api, path, rows, n, k, t, known, as_json):
    argv = ["cis-check", str(path), str(t)] + (["--json"] if as_json else [])

    def check(result):
        status, out, err = result
        is_part, cert, r = _cli_sets(out, as_json)
        expect(status == (0 if is_part else 1), f"cis-check exited {status}: {err}")
        if known is not None:
            expect(is_part == known, f"cis-check answered {is_part}, truth is {known}")
        if is_part:
            truth.check_partition(rows, n, k, t, cert)
        else:
            truth.check_violation(rows, n, t, cert, r)

    return Job("cli_cis_check", lambda: run_cli(api, argv), check)


def _report_job(api, path, rows, n, as_json):
    argv = ["report", str(path)] + (["--json"] if as_json else [])
    expected = functools.cache(lambda: (
        truth.min_distance(rows, n),
        truth.dual_distance(rows, n),
        truth.is_self_orthogonal(rows),
    ))

    def check(result):
        status, out, err = result
        expect(status == 0, f"report exited {status}: {err}")
        d, dd, so = expected()
        dd_text = "inf" if dd == math.inf else dd
        if as_json:
            doc = json.loads(out)
            got = (doc["n"], doc["k"], doc["d"], doc["dual_d"], doc["self_orthogonal"])
        else:
            head, dline, sline = out.splitlines()
            nn, kk, dv = head.strip("[]").split(",")
            dtext = dline.split(": ")[1]
            got = (int(nn), int(kk), int(dv), dtext if dtext == "inf" else int(dtext),
                   sline.split(": ")[1] == "yes")
        expect(got == (n, len(rows), d, dd_text, so), f"report gave {got}")

    return Job("cli_report", lambda: run_cli(api, argv), check)


def _scrambled_cis(rng, k, t):
    return truth.scramble(rng, truth.systematic_cis(rng, k, t), t * k)


def _min_distance_job(api, kind, rng, k):
    rows = truth.random_full_rank(rng, 3 * k, k)
    code = _code(api, rows, 3 * k)
    return Job(kind, lambda: api.min_distance(code),
               lambda d: expect(d == truth.min_distance(rows, 3 * k), "min_distance"))


CERTIFY_P50_GROUP = 200
CERTIFY_P90_GROUP = 60


def certify(api, rng: random.Random, ctx) -> list[Job]:
    jobs = []
    workdir = ctx["workdir"]

    # the bundled [243, 9] quasi-cyclic code at t = 27
    spec = api.formats.load(ctx["data"] / "qc_243_9.qc")
    qc_code, _ = api.qc_build(spec)
    qc_rows, qc_n, qc_k = list(qc_code.gen.rows), qc_code.n, qc_code.k
    jobs.append(_partition_job(api, "partition_qc243", qc_rows, qc_n, qc_k, spec.t, None))

    for k, t in ((64, 3), (48, 4), (64, 2), (40, 3), (32, 4), (24, 3)):
        rows = _scrambled_cis(rng, k, t)
        jobs.append(_partition_job(api, "partition_large", rows, t * k, k, t, True))
    for i in range(30):
        k, t = 4 + i % 13, 2 + i % 3
        rows = _scrambled_cis(rng, k, t)
        jobs.append(_partition_job(api, "partition_cis", rows, t * k, k, t, True))
    for i in range(60):
        k, t = 2 + i % 7, 2 + i % 3
        rows = truth.random_full_rank(rng, t * k, k)
        jobs.append(_partition_job(api, "partition_small", rows, t * k, k, t, None))
    # with the random codes above, about a quarter of the partition
    # inputs get a Violation
    for i in range(62):
        k, t = 3 + i % 22, 2 + i % 3
        rows = truth.planted_violation(rng, k, t, rng.randrange(1, k))
        jobs.append(_partition_job(api, "partition_planted", rows, t * k, k, t, False))

    for k in range(8, 21, 2):
        jobs.append(_min_distance_job(api, "min_distance", rng, k))

    for i in range(12):
        k = 6 + i % 11
        rows = truth.random_full_rank(rng, 3 * k, k)
        code, n = _code(api, rows, 3 * k), 3 * k
        jobs.append(Job(
            "dual_distance",
            lambda code=code: api.dual_distance(code),
            lambda d, rows=rows, n=n: expect(d == truth.dual_distance(rows, n), "dual_distance"),
        ))
    for i in range(16):
        k = 4 + i % 17
        if i % 2:
            rows, n = truth.self_orthogonal(rng, k, 2 * k), 4 * k
        else:
            rows, n = truth.random_full_rank(rng, 3 * k, k), 3 * k
        code = _code(api, rows, n)
        jobs.append(Job(
            "self_orthogonal",
            lambda code=code: api.is_self_orthogonal(code),
            lambda so, rows=rows: expect(so == truth.is_self_orthogonal(rows),
                                         "is_self_orthogonal"),
        ))

    for i in range(40):
        k = (2, 3, 2, 3, 4, 2, 3, 4, 2, 5)[i % 10]
        n = 3 * k
        a = _scrambled_cis(rng, k, 3)
        if i % 5 < 3:
            b, same = truth.scramble(rng, a, n), True
        else:
            wa = truth.weight_distribution(a, n)
            while True:
                b = _scrambled_cis(rng, k, 3)
                if truth.weight_distribution(b, n) != wa:
                    break
            same = False
        ca, cb = _code(api, a, n), _code(api, b, n)
        jobs.append(Job(
            "equivalent",
            lambda ca=ca, cb=cb: api.equivalent(ca, cb),
            lambda got, same=same: expect(got is same, f"equivalent should be {same}"),
        ))

    for i in range(10):
        k, t = 2 + i % 7, 2 + i % 2
        rows = truth.systematic_cis(rng, k, t)
        xs = tuple(rng.getrandbits(k) for _ in range(t))
        ys = tuple(rng.getrandbits(k) for _ in range(t))
        choice = api.BuildUpChoice(_code(api, rows, t * k), t, xs, ys)

        def check(c, k=k, t=t):
            expect((c.n, c.k) == (t * (k + 1), k + 1), "build_up shape")
            truth.check_partition(list(c.gen.rows), c.n, k + 1, t, truth.block_sets(k + 1, t))

        jobs.append(Job("build_up", lambda choice=choice: api.build_up(choice), check))
    for i in range(10):
        k, t = 3 + i % 8, 2 + i % 3
        rows = truth.systematic_cis(rng, k, t)
        code, row = _code(api, rows, t * k), rng.randrange(k)

        def check(c, k=k, t=t):
            expect((c.n, c.k) == (t * (k - 1), k - 1), "subtract shape")
            truth.check_partition(list(c.gen.rows), c.n, k - 1, t, truth.block_sets(k - 1, t))

        jobs.append(Job("subtract", lambda code=code, t=t, row=row: api.subtract(code, t, row), check))
    for i in range(10):
        t, m = 2 + i % 3, 5 + i % 11
        # the first block is the identity circulant, so the rank is m
        polys = (1,) + tuple(rng.getrandbits(m) for _ in range(t - 1))
        spec_i = api.QcSpec(t, m, polys)

        def check(result, t=t, m=m, polys=polys):
            c, report = result
            mask = (1 << m) - 1
            want = [
                sum((((a << r) | (a >> (m - r))) & mask) << (i * m) for i, a in enumerate(polys))
                for r in range(m)
            ]
            expect(list(c.gen.rows) == want and c.n == t * m, "qc_build generator")
            expect(report.block_gcds == tuple(truth.poly_gcd(a, (1 << m) | 1) for a in polys),
                   "qc_build block gcds")

        jobs.append(Job("qc_build", lambda s=spec_i: api.qc_build(s), check))

    # The latency percentiles sit inside two groups of jobs of one size
    # and steady cost, away from the groups' edges: p50 among partitions of
    # [24, 8] codes at t = 3 (mostly gf2 work), p90 among partitions of
    # [48, 12] codes at t = 4 and min_distance at k = 15.  A percentile on
    # the edge between two job kinds would jump from seed to seed.
    for _ in range(CERTIFY_P50_GROUP):
        rows = _scrambled_cis(rng, 8, 3)
        jobs.append(_partition_job(api, "partition_8x3", rows, 24, 8, 3, True))
    for _ in range(CERTIFY_P90_GROUP // 2):
        rows = _scrambled_cis(rng, 12, 4)
        jobs.append(_partition_job(api, "partition_12x4", rows, 48, 12, 4, True))
        jobs.append(_min_distance_job(api, "min_distance_k15", rng, 15))

    # CLI jobs read files written during set-up
    qc_path = workdir / "qc_243_9.code"
    api.formats.save(qc_path, qc_code)
    jobs.append(_cis_check_job(api, qc_path, qc_rows, qc_n, qc_k, spec.t, None, False))
    for i in range(8):
        k, t = 4 + 2 * i, 2 + i % 3
        known = i % 2 == 0
        rows = (_scrambled_cis(rng, k, t) if known
                else truth.planted_violation(rng, k, t, rng.randrange(1, k)))
        path = workdir / f"cis_{i}.code"
        api.formats.save(path, _code(api, rows, t * k))
        jobs.append(_cis_check_job(api, path, rows, t * k, k, t, known, i % 4 < 2))
    for i in range(5):
        k = 6 + 2 * i
        rows = truth.random_full_rank(rng, 3 * k, k)
        path = workdir / f"report_{i}.code"
        api.formats.save(path, _code(api, rows, 3 * k))
        jobs.append(_report_job(api, path, rows, 3 * k, i % 2 == 0))
    bk = api.formats.load(ctx["data"] / "bk_24_8.code")
    jobs.append(_report_job(api, ctx["data"] / "bk_24_8.code", list(bk.gen.rows), bk.n, True))
    jobs.append(_report_job(api, ctx["data"] / "qc_243_9.qc", qc_rows, qc_n, False))

    rng.shuffle(jobs)
    return jobs


# ---- masking --------------------------------------------------------------

def _derived_job(api, kind, rng, k, t, analyse, check_value):
    """derive_bijections on a random systematic t-CIS code, then analyse."""
    rows = truth.systematic_cis(rng, k, t)
    code = _code(api, rows, t * k)
    d = functools.cache(lambda: truth.min_distance(rows, t * k))

    def call():
        fs = api.derive_bijections(code, t)
        return fs, analyse(fs)

    def check(result):
        fs, value = result
        expect(len(fs) == t - 1, "derive_bijections returned the wrong count")
        for f in fs:
            truth.check_linear_bijection(f, k)
        check_value(fs, value, d)

    return Job(kind, call, check)


def _strength_check(fs, s, d):
    # a linear t-CIS code of minimum distance d masks at strength d - 1
    expect(s == d() - 1, f"strength {s}, expected {d() - 1}")


def _theorem1_check(fs, rep, d):
    expect(rep == {"dual_distance": d(), "cip_strength": d() - 1, "consistent": True},
           f"verify_theorem1 gave {rep}")


def _leakage_check(fs, res, d):
    k = fs[0].k
    conv = truth.hw_leakage_convolution([range(1 << k)] + [f.table for f in fs])
    expect(list(res.convolution.values) == conv, "leakage convolution values")
    const = all(v == conv[0] for v in conv)
    expect(res.constant == const, "leakage constancy flag")
    if not const:
        a, b = res.witness
        expect(conv[a] != conv[b], "leakage witness does not differ")


def _walsh_check(fs, table, d):
    truth.check_walsh_linear(table.values, fs[0], fs[0].k)


MASKING_P50_GROUP = 160
MASKING_P90_GROUP = 40


def masking(api, rng: random.Random, ctx) -> list[Job]:
    def cip(kind, k):
        return _derived_job(api, kind, rng, k, 3,
                            lambda fs: api.cip_strength(*fs), _strength_check)

    def t_ci(kind, k, t):
        return _derived_job(api, kind, rng, k, t,
                            lambda fs: api.t_ci_strength(fs), _strength_check)

    def leakage(kind, k, t):
        def analyse(fs):
            w = api.hamming_weight_leakage(k)
            return api.leakage_constancy_check(
                [w] * t, [api.BooleanPermutation.identity(k)] + list(fs))

        return _derived_job(api, kind, rng, k, t, analyse, _leakage_check)

    jobs = [cip("cip_strength", 4 + i % 7) for i in range(14)]
    jobs += [t_ci("t_ci_strength", 3 + i % 6, 3 + i % 3) for i in range(18)]
    jobs += [_derived_job(api, "verify_theorem1", rng, 2 + i % 3, 3,
                          lambda fs: api.verify_theorem1(*fs), _theorem1_check)
             for i in range(20)]
    jobs += [leakage("leakage", 3 + i % 6, 2 + i % 2) for i in range(12)]
    jobs += [_derived_job(api, "walsh_k12", rng, 12, 2,
                          lambda fs: api.walsh_table(fs[0]), _walsh_check)
             for _ in range(2)]
    # The latency percentiles sit inside two groups of jobs of one size and
    # steady cost, away from the groups' edges: p50 among strengths of
    # 3-tuples at k = 6, p90 among pair strengths at k = 8, where
    # walsh_table does the work.  A percentile on the edge between two job
    # kinds would jump from seed to seed.
    jobs += [t_ci("t_ci_strength_k6", 6, 4) for _ in range(MASKING_P50_GROUP)]
    jobs += [cip("cip_strength_k8", 8) for _ in range(MASKING_P90_GROUP)]

    for name, t in (("octacode.z4", 2), ("z4_24_6.z4", 4)):
        z = api.formats.load(ctx["data"] / name)
        gen, n, k = [list(r) for r in z.gen.rows], z.n, z.k
        lee = functools.cache(lambda gen=gen: truth.z4_lee_distance(gen))
        image = functools.cache(lambda gen=gen: truth.z4_gray_words(gen))
        residue = [sum((e & 1) << j for j, e in enumerate(r)) for r in gen]

        def check_image(img, n=n, image=image):
            expect(img.n == 2 * n and list(img.words) == image(), "gray_image words")

        def check_partition(p, n=n, k=k, t=t, residue=residue):
            expect(p.is_partition, "bundled Z4 code should be t-CIS")
            truth.check_partition(residue, n, k, t, p.sets)

        def check_derive(fs, k=k, t=t, gen=gen):
            expect(len(fs) == t - 1, "z4_derive_bijections returned the wrong count")
            for b, f in enumerate(fs, 1):
                truth.check_z4_bijection(f, gen, k, b)

        for _ in range(4):
            jobs += [
                Job("gray_image", lambda z=z: api.gray_image(z), check_image),
                Job("lee_min_distance", lambda z=z: api.lee_min_distance(z),
                    lambda d, lee=lee: expect(d == lee(), "lee_min_distance")),
                Job("z4_partition", lambda z=z, t=t: api.z4_t_cis_partition(z, t), check_partition),
                Job("z4_derive", lambda z=z, t=t: api.z4_derive_bijections(z, t), check_derive),
            ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"census": census, "certify": certify, "masking": masking}
