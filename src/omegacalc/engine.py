"""Dispatcher: run one, several or all routes to the invariant and compare.

Method names accepted everywhere, alone or in a list: "closed" (closed
form), "auto" (closed form if one applies, else the fully cancelled
flats sum), "all" (every applicable route), any chain-sum variant by its
hyphenated name, and "schubert" for inputs that carry Schubert
construction data.

`_run` decides whether the closed and Schubert methods apply: it raises
VariantInapplicable when no closed form applies or the input carries no
Schubert data, and "all", as the whole selection or as one entry of a
list, runs every route and skips exactly that error.  Every route runs
at every ground-set size a Matroid admits.  `chainsums.covalue` decides
the flats routes on a matroid with loops, and `_run` maps that error to
the invariant 0, reported with note "loops".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .chainsums import Variant, component_sign, covalue, schubert_omega
from .closedform import omega_closed_form
from .errors import OmegacalcError, VariantInapplicable
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


def _run(
    matroid: Matroid,
    name: str,
    schubert_data: tuple[int, tuple[int, ...], tuple[int, ...]] | None,
) -> MethodResult:
    """One method by name; raises VariantInapplicable when the method does
    not apply to this input."""
    start = time.perf_counter()
    if name in (METHOD_CLOSED, METHOD_AUTO):
        value = omega_closed_form(matroid)
        if value is not None:
            return MethodResult(METHOD_CLOSED, value, seconds=time.perf_counter() - start)
        if name == METHOD_CLOSED:
            raise VariantInapplicable("no closed form applies to this matroid")
        name = Variant.FINAL_FLATS.value
    if name == METHOD_SCHUBERT:
        if schubert_data is None:
            raise VariantInapplicable("schubert method needs chain/profile input data")
        value = schubert_omega(*schubert_data)
        return MethodResult(METHOD_SCHUBERT, value, seconds=time.perf_counter() - start)
    try:
        variant = Variant(name)
    except ValueError as exc:
        raise OmegacalcError(f"unknown method {name!r}") from exc
    try:
        run = covalue(matroid, variant)
        value, chains, note = component_sign(matroid) * run.covalue, run.chains, ""
    except VariantInapplicable:
        # flats sums are undefined with loops; the invariant is 0 outright
        value, chains, note = 0, 0, "loops"
    return MethodResult(variant.value, value, chains, time.perf_counter() - start, note)


def compute_omega(
    matroid: Matroid,
    methods: str | list[str] = METHOD_AUTO,
    matroid_id: str = "",
    schubert_data: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None,
) -> OmegaReport:
    """Run the selected methods, in order, and assemble an agreement report.

    methods is one name or a list of names.  schubert_data, when the input
    was built from a chain and profile, enables the direct path-count
    formula as an extra method.  "all", alone or as a list entry, runs
    every method that applies, in `ALL_METHOD_NAMES` order; any other
    method must apply.
    """
    report = OmegaReport(matroid_id, matroid.n, matroid.r)
    for name in [methods] if isinstance(methods, str) else methods:
        if name != METHOD_ALL:
            report.results.append(_run(matroid, name, schubert_data))
            continue
        for each in ALL_METHOD_NAMES:
            try:
                report.results.append(_run(matroid, each, schubert_data))
            except VariantInapplicable:
                continue
    return report.finish()
