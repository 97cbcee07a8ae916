"""Acceptance battery: one test per criterion, printing one line each.

Budgets and tolerances are fixed here (never loosened at runtime); every
random draw is seeded so the suite is deterministic.  Desk scale: block
dimensions at most 8, sequence lengths at most 6.
"""

import time

import numpy as np

from nclp.algebra import (
    Element,
    ToleranceConfig,
    identity,
    matrix_algebra,
)
from nclp.certify import (
    NO_YTF,
    YTF,
    certify_l1_norm,
    classify_l2_isometry,
    constructive_witnesses,
    l1_ratio_lower,
    regular_norm_commutative,
)
from nclp.lp import disjoint, lp_norm
from nclp.maps import (
    CERTIFIED,
    FALSIFIED,
    LinearMap,
    _boyd_ascent,
    is_completely_positive,
    op_norm,
    positivity_tests,
    rotation_mixing,
    transpose_map,
    vec,
)
from nclp.sampling import (
    ginibre,
    random_algebra,
    random_disjoint_pair,
    random_element,
    random_positive,
    rng_from,
)
from nclp.sequences import (
    DISJOINT,
    NOT_DISJOINT,
    UNDETERMINED,
    dinq_disjoint_test,
    l1_norm_bounds,
    l1_norm_positive,
    sequence,
    sum_elements,
)
from nclp.yeadon import certify_separating
from nclp import synth

SEED = 20260808
CFG = ToleranceConfig(opt_tol=1e-6, seed=SEED)
P_GRID = (1.0, 1.5, 2.0, 3.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} ({name}): {status}" + (f" -- {detail}" if detail else ""))


def test_criterion_01_positive_sequence_rule():
    t0 = time.perf_counter()
    rng = rng_from(SEED, 1)
    worst_gap = 0.0
    ok = True
    for i in range(200):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        p = P_GRID[i % 4]
        n = 2 + i % 4
        seq = sequence([random_positive(alg, rng) for _ in range(n)])
        iv = l1_norm_bounds(seq, p, CFG)
        target = l1_norm_positive(seq, p, CFG)
        contains = iv.lower <= target * (1 + 1e-12) and target <= iv.upper * (1 + 1e-12)
        gap = (iv.upper - iv.lower) / max(iv.upper, 1e-300)
        worst_gap = max(worst_gap, gap)
        ok = ok and contains and gap <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(1, "positive sequences collapse to the sum norm", ok,
            f"200 sequences, worst relative gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_factorization_consistency():
    rng = rng_from(SEED, 2)
    ok = True
    worst = 0.0
    checked = 0
    for i in range(100):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        p = P_GRID[i % 4]
        seq = sequence([random_element(alg, rng) for _ in range(2 + i % 3)])
        iv = l1_norm_bounds(seq, p, CFG)
        if iv.meta.get("route") != "optimizer":
            continue  # exact-route inputs have no iteration history
        checked += 1
        floor = lp_norm(sum_elements(seq), p)
        visited_min = min(min(h) for h in iv.meta["histories"])
        # every visited factorization obeys the product bound within 1e-9
        holder_ok = visited_min >= floor - 1e-9 * max(floor, 1.0)
        worst = max(worst, floor - visited_min)
        # diagnostic: the polar start evaluates to the geometric mean of the
        # absolute-value row/column sums
        from nclp.algebra import absolute

        left = lp_norm(sum_elements(sequence([absolute(x.H) for x in seq])), p)
        right = lp_norm(sum_elements(sequence([absolute(x) for x in seq])), p)
        init_ok = iv.meta["init_upper"] <= np.sqrt(left * right) * (1 + 1e-9)
        descent_ok = iv.upper <= iv.meta["init_upper"] * (1 + 1e-12)
        ok = ok and holder_ok and init_ok and descent_ok
    ok = ok and checked >= 70
    _report(2, "visited factorizations obey the product bound and descend", ok,
            f"{checked} optimizer runs, worst floor violation {max(worst, 0.0):.2e}")
    assert ok


def test_criterion_03_two_term_criterion():
    rng = rng_from(SEED, 3)
    ok = True
    undetermined = 0
    for i in range(500):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        if alg.coord_dim < 2:
            alg = matrix_algebra(2 + i % 3)
        a, b = random_disjoint_pair(alg, rng, positive=(i % 3 == 0))
        v = dinq_disjoint_test(a, b, CFG)
        thr = v.threshold
        ok = ok and v.interval.upper <= thr * (1 + 1e-6) and v.status == DISJOINT
    for i in range(500):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        if i % 2 == 0:
            a, b = random_positive(alg, rng), random_positive(alg, rng)
        else:
            a, b = random_element(alg, rng), random_element(alg, rng)
        if disjoint(a, b, CFG):
            undetermined += 1
            continue
        v = dinq_disjoint_test(a, b, CFG)
        if v.status == UNDETERMINED:
            undetermined += 1
            continue
        ok = ok and v.status == NOT_DISJOINT and v.interval.lower > v.threshold * (1 + 1e-6)
    rate = undetermined / 500.0
    ok = ok and rate < 0.10
    _report(3, "two-term p=2 criterion separates both classes", ok,
            f"500+500 pairs, undetermined rate {rate:.1%}")
    assert ok


def _synthetic_battery(count: int):
    rng = rng_from(SEED, 4)
    battery = []
    for i in range(count):
        battery.append(synth.random_yeadon_map(rng, p=2.0))
    return battery


BATTERY = _synthetic_battery(200)


def test_criterion_04_factorization_roundtrip_and_falsification():
    ok = True
    worst = 0.0
    for T, w0, B0, J0 in BATTERY:
        verdict = certify_separating(T, CFG, witness_seeds=8)
        if verdict.status != CERTIFIED:
            ok = False
            continue
        tri = verdict.triple
        scale = max(B0.sup_norm(), 1.0)
        res = max(
            (tri.w - w0).sup_norm(),
            (tri.B - B0).sup_norm() / scale,
            float(np.abs(tri.J.action - J0.action).max()),
        )
        worst = max(worst, res)
        ok = ok and res <= 1e-8
    rng = rng_from(SEED, 41)
    falsified = 0
    for i in range(100):
        theta = float(rng.uniform(0.3, np.pi - 0.3))
        verdict = certify_separating(rotation_mixing(theta, 2.0), CFG)
        if verdict.status == FALSIFIED and verdict.witness is not None:
            a, b = verdict.witness
            T = rotation_mixing(theta, 2.0)
            if disjoint(a, b, CFG) and not disjoint(T(a), T(b), CFG):
                falsified += 1
    ok = ok and falsified == 100
    _report(4, "separating certification: roundtrip and falsification", ok,
            f"200 synthetic maps, worst residual {worst:.2e}; 100/100 rotations falsified")
    assert ok


def test_criterion_05_separating_norm_equality():
    ok = True
    worst_ratio_excess = 0.0
    worst_sharpness = 1.0
    for T, *_ in BATTERY:
        norm2 = op_norm(T, 2.0, CFG).upper  # exact at p = 2
        best, info = l1_ratio_lower(T, 2.0, CFG, budget=50)
        if norm2 <= 1e-12:
            continue
        ok = ok and best <= norm2 * (1 + 1e-6)
        worst_ratio_excess = max(worst_ratio_excess, best / norm2 - 1.0)
        sharp = info["positive_singleton"] / norm2
        worst_sharpness = min(worst_sharpness, sharp)
        ok = ok and sharp >= 0.95
    _report(5, "separating maps: sequence ratios match the operator norm", ok,
            f"200 maps x 50 ratios, max excess {worst_ratio_excess:.2e}, "
            f"worst positive-singleton fraction {worst_sharpness:.3f}")
    assert ok


def test_criterion_06_isometry_classification():
    rng = rng_from(SEED, 6)
    ok = True
    outcomes = {"ytf": 0, "no_ytf": 0}
    for i in range(50):
        T = synth.random_l2_isometry(rng, i)
        expect_ytf = (i % 5) != 4
        cls = classify_l2_isometry(T, CFG, pairs=10)
        if cls.alarm:
            ok = False
        if expect_ytf:
            ok = ok and cls.status == YTF
            outcomes["ytf"] += cls.status == YTF
        else:
            ok = ok and cls.status == NO_YTF
            outcomes["no_ytf"] += cls.status == NO_YTF
        # positive isometries must certify (their construction makes the
        # partial isometry a projection)
        if (i % 5) in (2, 3):
            pos = positivity_tests(T, "positive", CFG)
            ok = ok and pos.status == CERTIFIED and cls.status == YTF
    _report(6, "isometry routes agree with zero inconsistencies", ok,
            f"50 isometries: {outcomes['ytf']} factorized, {outcomes['no_ytf']} refused")
    assert ok


def test_criterion_07_two_positive_contractions():
    rng = rng_from(SEED, 7)
    ok = True
    worst_res = 0.0
    for i in range(50):
        alg = matrix_algebra(2 + i % 2)
        T = synth.random_cp_contraction(alg, 2.0, rng)
        cp_ok, _ = is_completely_positive(T, CFG)
        ok = ok and cp_ok
        best, _ = l1_ratio_lower(T, 2.0, CFG, budget=20)
        ok = ok and best <= 1.0 + 1e-6
        seq = sequence([random_element(alg, rng) for _ in range(2)])
        w = constructive_witnesses(T, seq, "two_positive_sqrt", CFG)
        worst_res = max(worst_res, w.identity_residual)
        ok = ok and w.identity_residual <= 1e-8
    _report(7, "completely positive contractions stay contractive", ok,
            f"50 maps, worst square-root identity residual {worst_res:.2e}")
    assert ok


def test_criterion_08_positive_four_norm_bound():
    rng = rng_from(SEED, 8)
    ok = True
    worst_recon = 0.0
    for i in range(50):
        alg = matrix_algebra(2 + i % 2)
        T = synth.random_positive_map(alg, 2.0, rng)
        pos = positivity_tests(T, "positive", CFG)
        ok = ok and pos.status == CERTIFIED
        up = op_norm(T, 2.0, CFG).upper
        best, _ = l1_ratio_lower(T, 2.0, CFG, budget=20)
        ok = ok and best <= 4.0 * up * (1 + 1e-6)
        seq = sequence([random_element(alg, rng) for _ in range(2)])
        w = constructive_witnesses(T, seq, "polarization", CFG)
        worst_recon = max(worst_recon, w.reconstruction_residual)
        ok = ok and w.reconstruction_residual <= 1e-9
    _report(8, "positive maps stay within four operator norms", ok,
            f"50 maps, worst polarization residual {worst_recon:.2e}")
    assert ok


def test_criterion_09_transposition_example():
    ok = True
    worst_excess = 0.0
    for p in (1.5, 2.0, 3.0):
        T = transpose_map(matrix_algebra(3), p)
        best, _ = l1_ratio_lower(T, p, CFG, budget=25)
        worst_excess = max(worst_excess, best - 1.0)
        ok = ok and best <= 1.0 + 1e-6
    # rank-n projections in M_64 have q-norm n^(1/q), to full precision
    alg64 = matrix_algebra(64)
    worst_err = 0.0
    for n in range(1, 65):
        blocks = [np.diag(np.concatenate([np.ones(n), np.zeros(64 - n)]))]
        qn = Element(alg64, blocks)
        for q in (1.5, 2.0, 3.0, 6.0):
            got = lp_norm(qn, q)
            want = n ** (1.0 / q)
            worst_err = max(worst_err, abs(got - want) / want)
    ok = ok and worst_err <= 1e-12
    # demonstration: n <= K n^(1/p) fails for every fixed K at some n
    lines = []
    for p in (1.5, 2.0, 3.0):
        for K in (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0):
            n_star = int(np.ceil(K ** (p / (p - 1.0)))) + 1
            holds = n_star > K * n_star ** (1.0 / p)
            ok = ok and holds
            lines.append(f"p={p:g}: K={K:g} fails at n={n_star}")
    print("  growth demonstration: " + "; ".join(lines[:6]) + "; ...")
    _report(9, "transposition is a contractive example with growing mismatch", ok,
            f"ratio excess {worst_excess:.2e}, projection norm error {worst_err:.2e}")
    assert ok


def test_criterion_10_commutative_regular_norm():
    rng = rng_from(SEED, 10)
    ok = True
    worst = 0.0
    for i in range(100):
        n = 2 + i % 3
        T = synth.random_commutative_map(rng, n, n, 2.0)
        cert = certify_l1_norm(T, 2.0, CFG, ratio_budget=15)
        ok = ok and cert.route == "commutative_regular" and not cert.alarm
        reg = regular_norm_commutative(T, 2.0, CFG)
        # independent oracle: weighted SVD of the entrywise modulus matrix
        wd = np.sqrt(np.array(T.domain.weights))
        wc = np.sqrt(np.array(T.codomain.weights))
        oracle = float(np.linalg.norm((np.abs(T.action) * wc[:, None]) / wd[None, :], 2))
        err = abs(cert.value_interval.upper - oracle) / max(oracle, 1e-300)
        worst = max(worst, err)
        ok = ok and err <= 1e-9 and abs(reg - oracle) <= 1e-9 * oracle
        best, _ = l1_ratio_lower(T, 2.0, CFG, budget=10)
        ok = ok and best <= oracle * (1 + 1e-6)
    _report(10, "commutative maps: certified value equals the modulus norm", ok,
            f"100 maps, worst deviation {worst:.2e}")
    assert ok


def test_criterion_11_p_equals_one():
    rng = rng_from(SEED, 11)
    ok = True
    worst_sharp = np.inf
    for i in range(100):
        alg = random_algebra(rng, max_blocks=2, max_dim=3)
        T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 1.0)
        # sample sequences; at p = 1 both endpoints are exact direct sums
        singleton_best = 0.0
        seq_ratios = []
        for j in range(20):
            items = [random_element(alg, rng) for _ in range(1 + j % 3)]
            num = sum(lp_norm(T(x), 1.0) for x in items)
            den = sum(lp_norm(x, 1.0) for x in items)
            if den <= 1e-12:
                continue
            seq_ratios.append(num / den)
            for x in items:
                d = lp_norm(x, 1.0)
                if d > 1e-12:
                    singleton_best = max(singleton_best, lp_norm(T(x), 1.0) / d)
        # independent ascent with a different seed estimates the norm; the
        # singleton sampler then has to recover at least 95% of it
        comparator = op_norm(T, 1.0, ToleranceConfig(opt_tol=1e-6, seed=SEED + 1)).lower
        rng2 = rng_from(SEED, 11, i)
        starts = [identity(alg)]
        for k in range(8):
            starts.append(
                random_element(alg, rng2) if k % 2 else random_positive(alg, rng2)
            )
        vals, _ = _boyd_ascent(T, 1.0, CFG, 40, np.stack([vec(x) for x in starts]))
        singleton_best = max(singleton_best, float(vals.max()))
        comparator = max(comparator, singleton_best)
        # every sequence ratio is dominated by the norm estimate
        ok = ok and all(r <= comparator * (1 + 1e-6) for r in seq_ratios)
        if comparator > 1e-12:
            worst_sharp = min(worst_sharp, singleton_best / comparator)
    ok = ok and worst_sharp >= 0.95
    _report(11, "p = 1: sequence ratios collapse to the operator norm", ok,
            f"100 maps, worst singleton sharpness {worst_sharp:.3f}")
    assert ok
