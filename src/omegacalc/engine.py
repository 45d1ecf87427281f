"""Dispatcher: run one, several or all routes to the invariant and compare.

Method names accepted everywhere: "closed" (closed form), "auto" (closed
form if one applies, else the fully cancelled flats sum), "all" (every
applicable route), any chain-sum variant by its hyphenated name, and
"schubert" for inputs that carry Schubert construction data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .chainsums import (
    SET_VARIANT_CAP,
    SET_VARIANTS,
    FLAT_VARIANTS,
    ChainSumRun,
    Variant,
    component_sign,
    covalue,
    schubert_omega,
)
from .closedform import omega_closed_form
from .errors import Infeasible, OmegacalcError
from .matroid import Matroid

METHOD_CLOSED = "closed"
METHOD_AUTO = "auto"
METHOD_ALL = "all"
METHOD_SCHUBERT = "schubert"

ALL_METHOD_NAMES = [METHOD_CLOSED, METHOD_SCHUBERT] + [v.value for v in Variant]


@dataclass(frozen=True)
class MethodResult:
    method: str
    omega: int
    chains: int | None = None
    seconds: float = 0.0
    note: str = ""


@dataclass
class OmegaReport:
    matroid_id: str
    n: int
    r: int
    results: list[MethodResult] = field(default_factory=list)
    consensus: int | None = None
    agree: bool = True
    noteworthy: str = ""

    def finish(self) -> "OmegaReport":
        values = {res.omega for res in self.results}
        self.agree = len(values) == 1
        self.consensus = values.pop() if len(values) == 1 else None
        if self.consensus is not None and self.consensus < 0:
            # no negative value is known; worth flagging, not an error
            self.noteworthy = "negative invariant"
        return self


def _run_variant(matroid: Matroid, variant: Variant) -> MethodResult:
    if variant in FLAT_VARIANTS and matroid.has_loops():
        # flats sums are undefined with loops; the invariant is 0 outright
        return MethodResult(variant.value, 0, chains=0, note="loops")
    run: ChainSumRun = covalue(matroid, variant)
    sign = component_sign(matroid)
    return MethodResult(variant.value, sign * run.covalue, run.chains, run.seconds)


def _run_closed(matroid: Matroid) -> MethodResult | None:
    start = time.perf_counter()
    value = omega_closed_form(matroid)
    if value is None:
        return None
    return MethodResult(METHOD_CLOSED, value, seconds=time.perf_counter() - start)


def compute_omega(
    matroid: Matroid,
    methods: str | list[str] = METHOD_AUTO,
    matroid_id: str = "",
    schubert_data: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None,
) -> OmegaReport:
    """Run the selected methods and assemble an agreement report.

    schubert_data, when the input was built from a chain and profile,
    enables the direct path-count formula as an extra method.
    """
    report = OmegaReport(matroid_id, matroid.n, matroid.r)
    if isinstance(methods, str):
        if methods == METHOD_ALL:
            selected = [METHOD_CLOSED] + [v.value for v in Variant]
            if schubert_data is not None:
                selected.insert(1, METHOD_SCHUBERT)
            lenient = True
        elif methods == METHOD_AUTO:
            closed = _run_closed(matroid)
            if closed is not None:
                report.results.append(closed)
            else:
                report.results.append(_run_variant(matroid, Variant.FINAL_FLATS))
            return report.finish()
        else:
            selected = [methods]
            lenient = False
    else:
        selected = list(methods)
        lenient = False

    for name in selected:
        if name == METHOD_AUTO:
            sub = compute_omega(matroid, METHOD_AUTO, matroid_id, schubert_data)
            report.results.extend(sub.results)
            continue
        if name == METHOD_CLOSED:
            closed = _run_closed(matroid)
            if closed is not None:
                report.results.append(closed)
            elif not lenient:
                raise OmegacalcError("no closed form applies to this matroid")
            continue
        if name == METHOD_SCHUBERT:
            if schubert_data is None:
                if lenient:
                    continue
                raise OmegacalcError("schubert method needs chain/profile input data")
            start = time.perf_counter()
            n, chain, profile = schubert_data
            value = schubert_omega(n, chain, profile)
            report.results.append(
                MethodResult(METHOD_SCHUBERT, value, seconds=time.perf_counter() - start)
            )
            continue
        try:
            variant = Variant(name)
        except ValueError as exc:
            raise OmegacalcError(f"unknown method {name!r}") from exc
        if (
            lenient
            and variant in SET_VARIANTS
            and matroid.n > SET_VARIANT_CAP
        ):
            continue
        try:
            report.results.append(_run_variant(matroid, variant))
        except Infeasible:
            if not lenient:
                raise
    return report.finish()
