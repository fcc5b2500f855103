"""Golden battery: fixed-seed CSV rows pinned byte for byte, except wall_ms.

The adgac-only, a2-adgac and margin-adgac rows sort; they were written by
the level-synchronous quicksort, which draws every pivot and every
orientation of one recursion depth in one call each.  The adgac-only and
a2-adgac rows were re-pinned when ADGAC stopped splitting a segment that lies
inside one group: fewer comparisons, so every later draw moved.  The
margin-adgac rows sort groups of one point, a full sort, and did not move.
The baseline-a2 and passive-erm rows never sort; they were written by one scalar label call per
instance, before labels were asked in batches, except the gate-flag row at
seed 111, first pinned when the batch size, the effective kappa and the
oracle bands each got a single owner.  The rows at seeds 11-15, 21-23,
31-33, 55, 56, 101, 102 and 111 were re-pinned when the band radii became
exact closed-form inverses of their masses; seeds 71-73 have a label band
too, but none of their labeled instances lies between the old and new radius.
The margin-adgac rows at seeds 41, 42 and 91 were re-pinned in their labels
and comparisons only when the learner stopped labeling a band after its last
fit; every draw up to that fit, and so the error, is unchanged.
The rows at seeds 131-134 and 137 pin that each round's plan is computed
only when the round runs: at tsybakov kappa 2.5 the third A2 round needs more
than the sample cap, at kappa 3 the second and at kappa 4 the first, so a
plan computed up front, or before the early-exit test, would turn these rows
into BudgetExceededError rows.  The kappa 3 row on a grid of 3 keeps one
survivor after round 1 and exits before round 2, whose row is over the cap.
The margin row at seed 137 is the cap of its first round; the error row keeps
the 32 labels of the seed batch, asked before the cap is met.
The a2-adgac rows at seeds 31-33, 81 and 82, and on a grid of 3 at seed 132
at kappa 3 and 2.5, were re-pinned when A2-ADGAC came to keep, as the
baseline always did, the hypotheses within n_i eps_i of the round's best
survivor.  Under the absolute count rule it used before, a search that
landed one group off the boundary left no threshold of the coarse grid alive,
and the two grid-3 trials raised EmptyVersionSpaceError.
A refactor that keeps the rng stream, the permutation and the query counts
reproduces them exactly; a change that alters behaviour on purpose re-pins
them and says why.
"""

from adgac.bench import CSV_HEADER, ExperimentConfig, run_trials

WALL_MS = CSV_HEADER.split(",").index("wall_ms")

CONFIGS = [
    # the AC-2 world, at n = 1e3 and 1e4
    dict(method="adgac-only", eps=0.05, delta=0.1, trials=4, seed=11, n_samples=1000,
         label_noise="massart", beta=0.2, comp_noise="band-adversarial", nu_prime=1e-4),
    dict(method="adgac-only", eps=0.05, delta=0.1, trials=1, seed=15, n_samples=10000,
         label_noise="massart", beta=0.2, comp_noise="band-adversarial", nu_prime=1e-4),
    dict(method="adgac-only", eps=0.1, delta=0.1, trials=2, seed=17, n_samples=1000,
         label_noise="tsybakov", kappa=1.5, mu=0.5),
    dict(method="adgac-only", eps=0.05, delta=0.1, trials=3, seed=21, n_samples=2000,
         dist="isotropic-gaussian", d=20, label_noise="massart", beta=0.1,
         comp_noise="band-adversarial", nu_prime=1e-3),
    dict(method="a2-adgac", eps=0.05, delta=0.1, trials=3, seed=31, grid=1001,
         label_noise="massart", beta=0.2, comp_noise="band-adversarial", nu_prime=1e-4),
    dict(method="margin-adgac", eps=0.1, delta=0.2, trials=2, seed=41,
         dist="isotropic-gaussian", d=5, label_noise="massart", beta=0.2),
    # label-only paths: every retained instance, or every sample, labeled directly
    dict(method="baseline-a2", eps=0.05, delta=0.1, trials=3, seed=51, grid=1001,
         label_noise="massart", beta=0.2),
    dict(method="baseline-a2", eps=0.05, delta=0.1, trials=2, seed=55, grid=1001,
         label_noise="adversarial", nu=0.02),
    dict(method="passive-erm", eps=0.05, delta=0.1, trials=2, seed=61, grid=1001,
         n_samples=2000, label_noise="tsybakov", kappa=1.5, mu=0.5),
    # adversarial label band: answers are deterministic and draw no randomness
    dict(method="adgac-only", eps=0.05, delta=0.1, trials=3, seed=71, n_samples=1000,
         label_noise="adversarial", nu=0.02),
    # power-law labels with kappa > 1 through the learners' own batch size,
    # and the comparison- and label-noise gate flags
    dict(method="a2-adgac", eps=0.1, delta=0.1, trials=2, seed=81, grid=1001,
         label_noise="tsybakov", kappa=1.5, mu=0.5),
    dict(method="margin-adgac", eps=0.2, delta=0.2, trials=1, seed=91,
         dist="isotropic-gaussian", d=3, label_noise="tsybakov", kappa=1.5, mu=0.5),
    dict(method="adgac-only", eps=0.05, delta=0.1, trials=2, seed=101, n_samples=1000,
         label_noise="tsybakov", kappa=1.5, mu=0.5,
         comp_noise="band-adversarial", nu_prime=1e-3),
    dict(method="baseline-a2", eps=0.1, delta=0.1, trials=1, seed=111, grid=1001,
         label_noise="adversarial", nu=0.2),
    # eps * n = 2.5: groups of 2 points under round-half-even, 3 under round-half-up
    dict(method="adgac-only", eps=0.05, delta=0.1, trials=2, seed=121, n_samples=50,
         label_noise="massart", beta=0.2),
    # a one-threshold class exits before round 1; a three-threshold one
    # shrinks to one survivor in round 1 and exits before round 2
    dict(method="a2-adgac", grid=1, trials=2, seed=131, label_noise="tsybakov", kappa=2.5),
    dict(method="a2-adgac", grid=1, trials=1, seed=133, label_noise="tsybakov", kappa=4.0),
    dict(method="a2-adgac", grid=3, trials=1, seed=132, label_noise="tsybakov", kappa=3.0),
    dict(method="margin-adgac", eps=0.2, delta=0.2, trials=1, seed=137,
         dist="isotropic-gaussian", d=2, label_noise="tsybakov", kappa=9.0),
    # a coarse grid under power-law labels: the round's best survivor stays
    dict(method="a2-adgac", grid=3, trials=3, seed=132, label_noise="tsybakov", kappa=2.5),
]

GOLDEN = [
    "11,adgac-only,0.05,0.1,0.03,0.005394441583704471,85,7716,1,",
    "12,adgac-only,0.05,0.1,0.013,0.003582038525755969,85,8728,1,",
    "13,adgac-only,0.05,0.1,0.017,0.004087909000944126,85,8385,1,",
    "14,adgac-only,0.05,0.1,0.007,0.0026364749192814255,85,8479,1,",
    "15,adgac-only,0.05,0.1,0.0111,0.0010477017705435073,85,94489,1,",
    "17,adgac-only,0.1,0.1,0.003,0.001729450779872038,400,6739,1,",
    "18,adgac-only,0.1,0.1,0.007,0.0026364749192814255,400,7741,1,",
    "21,adgac-only,0.05,0.1,0.0435,0.004561126505590478,85,17781,1,tolcomp-gate",
    "22,adgac-only,0.05,0.1,0.0525,0.004987171041783107,68,15164,1,tolcomp-gate",
    "23,adgac-only,0.05,0.1,0.0545,0.005075911248239078,68,15864,1,tolcomp-gate",
    "31,a2-adgac,0.05,0.1,0.01968,0.0004392345341614204,383,6730,5,",
    "32,a2-adgac,0.05,0.1,0.00687,0.0002612049597538301,350,7146,5,",
    "33,a2-adgac,0.05,0.1,0.01884,0.00042994248917733167,383,6556,5,",
    "41,margin-adgac,0.1,0.2,0.00026,5.098356597963701e-05,73,5427,6,hinge-degraded-round-6",
    "42,margin-adgac,0.1,0.2,0.00042,6.479379599930846e-05,74,5682,6,hinge-degraded-round-3",
    "51,baseline-a2,0.05,0.1,0.01449,0.0003778894004864386,1884,0,5,",
    "52,baseline-a2,0.05,0.1,0.015,0.0003843826218756514,1908,0,5,",
    "53,baseline-a2,0.05,0.1,0.01866,0.0004279229416612295,2019,0,5,",
    "55,baseline-a2,0.05,0.1,0.01879,0.00042938253224834383,1602,0,5,",
    "56,baseline-a2,0.05,0.1,0.01597,0.0003964209769928933,1610,0,5,",
    "61,passive-erm,0.05,0.1,0.02648,0.0005077283683230631,2000,0,1,",
    "62,passive-erm,0.05,0.1,0.0151,0.00038564219167513296,2000,0,1,",
    "71,adgac-only,0.05,0.1,0.005,0.0022304708023195463,85,7880,1,",
    "72,adgac-only,0.05,0.1,0.003,0.001729450779872038,85,8648,1,",
    "73,adgac-only,0.05,0.1,0.001,0.001,85,6867,1,",
    "81,a2-adgac,0.1,0.1,0.02935,0.0005337469203658228,932,5722,4,",
    "82,a2-adgac,0.1,0.1,0.006,0.0002442130217658346,814,7106,4,",
    "91,margin-adgac,0.2,0.2,0.0016,0.0001263898730120416,61,1301,5,",
    "101,adgac-only,0.05,0.1,0.031,0.0054807846153630225,250,8548,1,tolcomp-gate",
    "102,adgac-only,0.05,0.1,0.02,0.004427188724235731,250,7594,1,tolcomp-gate",
    "111,baseline-a2,0.1,0.1,0.10774,0.0009804697466010872,2346,0,4,tollabel-gate",
    "121,adgac-only,0.05,0.1,0.3,0.0648074069840786,10,267,1,",
    "122,adgac-only,0.05,0.1,0.0,0.02,10,261,1,",
    "131,a2-adgac,0.05,0.1,0.5003,0.0015811385454791746,0,0,0,early-exit-round-1",
    "132,a2-adgac,0.05,0.1,0.50065,0.0015811374940213137,0,0,0,early-exit-round-1",
    "133,a2-adgac,0.05,0.1,0.50178,0.0015811288106919058,0,0,0,early-exit-round-1",
    "132,a2-adgac,0.05,0.1,0.0,1e-05,28296,485172,1,early-exit-round-2",
    "137,margin-adgac,0.2,0.2,nan,nan,32,0,0,error:BudgetExceededError",
    "132,a2-adgac,0.05,0.1,0.0,1e-05,3537,66383,1,early-exit-round-2",
    "133,a2-adgac,0.05,0.1,0.0,1e-05,3537,54716,1,early-exit-round-2",
    "134,a2-adgac,0.05,0.1,0.0,1e-05,3537,60170,1,early-exit-round-2",
]


def _rows_without_wall_ms(config):
    reports, _ = run_trials(config)
    rows = []
    for report in reports:
        fields = report.to_csv_row().split(",")
        del fields[WALL_MS]
        rows.append(",".join(fields))
    return rows


def test_golden_battery_rows():
    rows = [row for kw in CONFIGS for row in _rows_without_wall_ms(ExperimentConfig(**kw))]
    assert rows == GOLDEN
