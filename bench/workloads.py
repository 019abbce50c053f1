"""Workload definitions: instance classes and the ops run on each instance.

A class is a size (buyers x items x support) plus the exact profile-space
size its instances must have.  ``generate_files`` writes a seeded pool per
size and the workload takes, in index order, the first ``count`` files whose
profile space equals ``profiles``.  The selection reads support sizes only,
never values, so value ties (and the one-lookahead tie defect they expose)
occur at the generator's own rate; it exists because a generated 3x3x3
instance ranges from ~500 to 19,683 profiles, and one such instance would
otherwise decide a run's time by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

VALUE_MAX = 10                 # the CLI default and the test corpora's value range
MC_TRIALS = 20_000             # ~0.25 s per 5,832-profile op on the per-trial path
TINY_MC_TRIALS = 2_000


@dataclass(frozen=True)
class InstanceClass:
    kind: str                  # "production-cost" or "two-sided"
    buyers: int
    items: int
    support: int
    profiles: int              # exact profile-space size of selected instances
    count: int
    opt: bool = False          # run `opt`: the dense LP stays under ~1 GB

    @property
    def label(self) -> str:
        short = "pc" if self.kind == "production-cost" else "ts"
        return f"{short}-{self.buyers}x{self.items}x{self.support}@{self.profiles}"


@dataclass(frozen=True)
class Op:
    key: str                   # unique within a workload: "<instance>:<name>"
    instance: str              # instance file, relative to the checkout root
    command: str               # profit_exact | profit_mc | bound | check | opt
    mechanism: str | None
    argv: tuple[str, ...]
    trials: int = 0


def _pc(b, i, s, profiles, count, opt=False):
    return InstanceClass("production-cost", b, i, s, profiles, count, opt)


def _ts(b, i, s, profiles, count, opt=False):
    return InstanceClass("two-sided", b, i, s, profiles, count, opt)


# Production-cost profit and bound: enumeration, mechanism kernels, duality.
PC_EVAL = (
    _pc(2, 2, 3, 81, 30),
    _pc(2, 3, 2, 64, 15),
    _pc(3, 2, 2, 64, 15),
    _pc(2, 3, 3, 729, 40),
    _pc(3, 3, 2, 512, 40),
    _pc(3, 3, 3, 5832, 9),
)

# Checkers and the dense LP.  `opt` runs up to 256 buyer profiles: at 512 the
# dense LP peaks at ~4.4 GB, which the 7 GB benchmark host cannot spare.  No
# 3x3x3 instance: its four checks take ~11 s, and one instance alone would
# set the run-to-run spread of every figure.
PC_VERIFY = (
    _pc(2, 2, 3, 81, 40, opt=True),
    _pc(2, 3, 2, 64, 20, opt=True),
    _pc(3, 2, 2, 64, 20, opt=True),
    _pc(3, 3, 2, 256, 8, opt=True),
    _pc(3, 3, 2, 512, 6),
    _pc(2, 3, 3, 729, 6),
)

# Two-sided reduction.  `opt` solves one LP per seller profile, so it runs
# only where the buyer space is small (<= 81 buyer profiles, 9-27 LPs).
TS_BROKER = (
    _ts(2, 2, 3, 729, 16, opt=True),
    _ts(1, 3, 3, 729, 16, opt=True),
    _ts(2, 3, 3, 3888, 4),
)

WORKLOADS = {"pc-eval": PC_EVAL, "pc-verify": PC_VERIFY, "ts-broker": TS_BROKER}

# The smoke variant: one small class per workload, one instance.
TINY = {
    "pc-eval": (_pc(2, 2, 3, 81, 1),),
    "pc-verify": (_pc(2, 2, 3, 81, 1, opt=True),),
    "ts-broker": (_ts(1, 3, 3, 729, 1, opt=True),),
}

SHIPPED = ("it", "bvcg", "1la", "mix")


def ops_for(workload: str, cls: InstanceClass, path: str, trials: int) -> list[Op]:
    """The ops one instance gets in ``workload``."""
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    tag = f"{cls.label}/{name}"
    ops: list[Op] = []

    def add(label, command, mechanism, *args, trials=0):
        argv = (args[0], "--instance", path) + tuple(args[1:])
        ops.append(Op(f"{tag}:{label}", path, command, mechanism, argv, trials))

    if workload == "pc-eval":
        for mech in SHIPPED:
            add(f"profit-{mech}", "profit_exact", mech, "profit", "--mechanism", mech)
        add("mc-1la", "profit_mc", "1la", "profit", "--mechanism", "1la",
            "--mode", "mc", "--trials", str(trials), "--seed", "1", trials=trials)
        add("bound-mix", "bound", "mix", "bound", "--mechanism", "mix")
    elif workload == "pc-verify":
        for mech in SHIPPED:
            add(f"check-{mech}", "check", mech, "check", "--mechanism", mech,
                "--property", "all")
        if cls.opt:
            add("opt", "opt", None, "opt")
    elif workload == "ts-broker":
        for mech in SHIPPED:
            red = "reduced-" + mech
            add(f"profit-{red}", "profit_exact", red, "profit", "--mechanism", red)
        add("mc-reduced-mix", "profit_mc", "reduced-mix", "profit", "--mechanism",
            "reduced-mix", "--mode", "mc", "--trials", str(trials), "--seed", "1",
            trials=trials)
        add("check-reduced-mix", "check", "reduced-mix", "check", "--mechanism",
            "reduced-mix", "--property", "all")
        if cls.opt:
            add("opt", "opt", None, "opt")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
