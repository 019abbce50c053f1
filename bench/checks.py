"""Output checks: paper invariants that hold for any correct implementation.

Each op execution is judged twice.  *Integrity* (the ``correct`` flag): the
op returned an exit code, its stdout parsed, its ``instance_digest`` matched
the file, its exit code agreed with the verdicts it printed, and its stdout
was byte-identical on every pass.  *Invariants* (the ``failed`` count): on
top of integrity, the op exited 0 and its figures satisfy the identities
below.  A failed op with intact output is the program reporting a property
violation (at the seed: the ``r_identity`` check of ``bound``, ROADMAP
item 1); it is counted, never hidden.
"""

from __future__ import annotations

IDENTITY_TOL = 1e-9            # exact-profit identities
LP_TOL = 1e-6                  # LP-coupled bounds
MC_SIGMAS = 5.0


def integrity_error(run, file_digest: str) -> str | None:
    if run["exit"] is None:
        return f"raised {run['error']}"
    doc = run["doc"]
    if doc is None:
        return "stdout is not JSON"
    if doc.get("instance_digest") != file_digest:
        return "instance_digest does not match the file"
    # `check` and `bound` print verdicts and exit 1 when one fails.
    verdicts = [c["passed"] for c in doc.get("checks", [])]
    expected = 0 if all(verdicts) else 1
    if run["exit"] != expected:
        return f"exit {run['exit']} disagrees with the printed verdicts"
    return None


def invariant_errors(ops, runs, opt_reference) -> dict[str, str]:
    """Invariant violations of one pass, as {op key: reason}.

    ``runs`` maps op key to that op's run record (integrity already passed
    or recorded); ``opt_reference`` maps an instance path to the best shipped
    mechanism's exact profit.
    """
    errors: dict[str, str] = {}
    exact: dict[tuple[str, str], float] = {}
    for op in ops:
        run = runs[op.key]
        if run["doc"] is not None and op.command == "profit_exact" and run["exit"] == 0:
            exact[(op.instance, op.mechanism)] = run["doc"]["results"]["profit"]

    for op in ops:
        run = runs[op.key]
        doc = run["doc"]
        if run["exit"] != 0 or doc is None:
            errors[op.key] = f"exit {run['exit']}"
            if doc is not None and op.command in ("check", "bound"):
                bad = [c["property"] for c in doc["checks"] if not c["passed"]]
                errors[op.key] += " failing " + ",".join(bad)
            continue
        res = doc.get("results", {})
        if op.command == "profit_exact" and op.mechanism.endswith("mix"):
            prefix = op.mechanism.removesuffix("mix")
            it = exact.get((op.instance, prefix + "it"))
            bvcg = exact.get((op.instance, prefix + "bvcg"))
            if it is None or bvcg is None:
                errors[op.key] = "no it/bvcg profit to compare with"
            elif abs(res["profit"] - (0.75 * it + 0.25 * bvcg)) > IDENTITY_TOL:
                errors[op.key] = "mix != 0.75 it + 0.25 bvcg"
        elif op.command == "profit_mc":
            ref = exact.get((op.instance, op.mechanism))
            if ref is None:
                errors[op.key] = "no exact profit to compare with"
            elif abs(res["estimate"] - ref) > MC_SIGMAS * res["stderr"] + IDENTITY_TOL:
                errors[op.key] = "MC estimate beyond 5 stderr of the exact profit"
        elif op.command == "opt" and "opt_lp" in res:
            if res["opt_lp"] < opt_reference[op.instance] - LP_TOL:
                errors[op.key] = "opt_lp below the best shipped exact profit"
        elif op.command == "opt":
            if res["best_reduced_profit"] > res["expected_cost_market_opt"] + LP_TOL:
                errors[op.key] = "two-sided lhs > rhs"
            elif res["eight_approx"] != "PASS":
                errors[op.key] = "eight_approx FAIL"
    return errors
