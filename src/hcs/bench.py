"""Succinctness experiment: prime-cycle intersection family versus minimal DFA.

The family A_k intersects the cycle DFAs for the first k primes, so its
language is a^(p1...pk * n) followed by k delimiters. The minimal DFA must
count residues modulo the prime product, while the history-constrained
gadget stays polynomial in k; the report certifies the gap through the
minimal DFA, a sound lower bound because every DFA is also an NFA.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import DEFAULT_STATE_CAP, Alphabet, FiniteAutomaton, minimize
from .core import Hcs, build_intersection_dfa, determinize_hcs, hcs_size
from .errors import ContractError, InputError

DEFAULT_K_CAP = 6


def cycle_dfa(length: int) -> FiniteAutomaton:
    """DFA over {a} accepting words whose length is a multiple of ``length``."""
    if length < 1:
        raise InputError("cycle length must be at least 1")
    return FiniteAutomaton(
        alphabet=Alphabet(("a",)),
        states=tuple(f"c{i}" for i in range(length)),
        initial=0,
        accepting=frozenset({0}),
        transitions=tuple((i, 0, (i + 1) % length) for i in range(length)),
    )


def first_primes(k: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def prime_family(k: int) -> Hcs:
    """The deterministic intersection gadget over the first k prime cycles."""
    if k < 1:
        raise InputError("the prime family is defined for k >= 1")
    return build_intersection_dfa([cycle_dfa(p) for p in first_primes(k)])


@dataclass(frozen=True)
class SuccinctnessReport:
    k: int
    primes: tuple[int, ...]
    hcs_size: int
    minimal_dfa_states: int
    product_of_primes: int
    bound_2k: int

    def validate(self) -> None:
        """Check the lower-bound chain certified by the minimal DFA."""
        if self.minimal_dfa_states < self.product_of_primes:
            raise ContractError(
                f"minimal DFA has {self.minimal_dfa_states} states, "
                f"below the prime product {self.product_of_primes}"
            )
        if self.k == 1:
            if self.product_of_primes != self.bound_2k:
                raise ContractError("at k = 1 the prime product must equal 2")
        elif self.product_of_primes <= self.bound_2k:
            raise ContractError(
                f"prime product {self.product_of_primes} does not exceed 2^k = {self.bound_2k}"
            )

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "primes": list(self.primes),
            "hcs_size": self.hcs_size,
            "minimal_dfa_states": self.minimal_dfa_states,
            "product_of_primes": self.product_of_primes,
            "bound_2k": self.bound_2k,
            "lower_bound_proxy": "minimal DFA (every DFA is an NFA)",
        }


def verify_succinctness(k: int, max_states: int = DEFAULT_STATE_CAP) -> SuccinctnessReport:
    """Build A_k, determinize, minimize, and validate the size chain; k is
    at most ``DEFAULT_K_CAP``, since the oracle is exponential in k."""
    if k < 1:
        raise InputError("k must be at least 1")
    if k > DEFAULT_K_CAP:
        raise ContractError(f"k = {k} exceeds the cap {DEFAULT_K_CAP}; the oracle is exponential in k")
    family = prime_family(k)
    primes = first_primes(k)
    minimal = minimize(determinize_hcs(family, max_states), max_states)
    product = 1
    for p in primes:
        product *= p
    report = SuccinctnessReport(
        k=k,
        primes=tuple(primes),
        hcs_size=hcs_size(family),
        minimal_dfa_states=len(minimal.states),
        product_of_primes=product,
        bound_2k=2**k,
    )
    report.validate()
    return report


def report_table(reports: list[SuccinctnessReport]) -> str:
    """Aligned-column text table for a list of reports."""
    headers = ("k", "primes", "hcs_size", "min_dfa_states", "prime_product", "2^k")
    rows = [
        (
            str(r.k),
            "*".join(str(p) for p in r.primes),
            str(r.hcs_size),
            str(r.minimal_dfa_states),
            str(r.product_of_primes),
            str(r.bound_2k),
        )
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
